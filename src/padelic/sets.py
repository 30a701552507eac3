"""Compact subsets of Z_p (ball unions / finite lists) and adelic products.

A ``CompactSet`` is either a finite disjoint union of balls ``c + p^k Z_p``
or a finite list of exact rationals with non-negative valuation.  An
``AdelicSet`` tracks finitely many primes explicitly and fills in every other
prime with one of two symbolic defaults: all of Z_p, or pZ_p.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import EmptySet
from .padic import Rat, residue, valp
from .utils import is_prime

#: Symbolic default families for untracked primes.
FULL = "Zp"
PZP = "pZp"

#: Most balls or elements a set may be given with.  The ordering recurses
#: once per split, so many nested balls or points would exhaust the
#: interpreter stack.
MAX_PARTS = 256

#: Most classes c + p^d Z_p a step function's certificate may visit (see ``mahler``).
MAX_CLASSES = 1 << 16

#: Largest exponent of p an input may name: a ball radius, a step function's
#: modulus exponent m and digits N, a ``--precision``.  Each is checked before
#: p is raised to it; the library needs a few dozen digits, while an exponent
#: of 10^8 in any of these kept one request busy past a 5 s timeout.
MAX_EXPONENT = 1 << 10


@dataclass(frozen=True)
class CompactSet:
    """Compact subset of Z_p: ball union or finite exact set."""

    prime: int
    balls: Optional[Tuple[Tuple[int, int], ...]] = None  # (center, radius exponent)
    finite: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        if (self.balls is None) == (self.finite is None):
            raise ValueError("exactly one of balls/finite must be given")

    @classmethod
    def from_balls(cls, p: int, balls: Sequence[Tuple[int, int]]) -> "CompactSet":
        return normalize(cls(p, balls=tuple((c, k) for c, k in balls)))

    @classmethod
    def from_finite(cls, p: int, elems: Sequence[Rat]) -> "CompactSet":
        return normalize(cls(p, finite=tuple(Fraction(x) for x in elems)))

    @classmethod
    def zp(cls, p: int) -> "CompactSet":
        return cls(p, balls=((0, 0),))

    @classmethod
    def pzp(cls, p: int) -> "CompactSet":
        return cls(p, balls=((0, 1),))

    def is_finite(self) -> bool:
        return self.finite is not None

    def max_ball_exponent(self) -> int:
        return max((k for _, k in self.balls), default=0) if self.balls else 0

    def __str__(self):
        if self.is_finite():
            return f"p={self.prime}; finite: " + ", ".join(str(x) for x in self.finite)
        return f"p={self.prime}; balls: " + ", ".join(
            f"{c}+p^{k}" for c, k in self.balls)


def normalize(s: CompactSet) -> CompactSet:
    """Canonical form: disjoint balls sorted by (k, center), or deduped finite list."""
    parts = s.balls if s.balls is not None else s.finite
    if len(parts) > MAX_PARTS:
        kind = "balls" if s.balls is not None else "elements"
        raise ValueError(f"{len(parts)} {kind} given, at most {MAX_PARTS} allowed")
    p = s.prime
    if not _is_int(p) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not a prime")
    if s.is_finite():
        seen, out = set(), []
        for x in s.finite:
            if valp(x, p) < 0:
                raise ValueError(f"{x} has negative {p}-adic valuation")
            if x not in seen:
                seen.add(x)
                out.append(x)
        if not out:
            raise EmptySet("finite set with no elements")
        return CompactSet(p, finite=tuple(sorted(out)))
    if not s.balls:
        raise EmptySet("ball union with no balls")
    for c, k in s.balls:
        if not (_is_int(c) and _is_int(k)) or not 0 <= k <= MAX_EXPONENT:
            raise ValueError(f"ball {c!r}+p^{k!r} needs an integer centre "
                             f"and radius in 0..{MAX_EXPONENT}")
    balls = {(c % p ** k, k) for c, k in s.balls}
    changed = True
    while changed:
        changed = False
        kept = set()
        for c, k in sorted(balls, key=lambda b: b[1]):  # shallow first
            if not any(k > k0 and c % p ** k0 == c0 for c0, k0 in kept):
                kept.add((c, k))
        # coalesce complete sibling families: p balls of radius k, one parent
        balls = kept
        families: Dict[Tuple[int, int], list] = {}
        for c, k in kept:
            if k:
                families.setdefault((c % p ** (k - 1), k - 1), []).append((c, k))
        for parent, family in families.items():
            if len(family) == p:
                balls = balls.difference(family) | {parent}
                changed = True
    return CompactSet(p, balls=tuple(sorted(balls, key=lambda b: (b[1], b[0]))))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def residues(s: CompactSet, m: int) -> set:
    """Exactly the residues modulo p^m meeting the set."""
    if m < 0:
        raise ValueError("modulus exponent must be >= 0")
    p = s.prime
    mod = p ** m
    if s.is_finite():
        return {residue(x, mod) for x in s.finite}
    out = set()
    for c, k in s.balls:
        if k >= m:
            out.add(c % mod)
        else:
            step = p ** k
            out.update((c + step * t) % mod for t in range(p ** (m - k)))
    return out


def count_residues(s: CompactSet, m: int) -> int:
    """len(residues(s, m)) without enumerating them.

    The balls of a normalized set are disjoint, so a ball of radius k < m
    meets p^(m-k) residues that no other ball meets, while a deeper ball
    meets one residue, which other deep balls may share.
    """
    if s.is_finite():
        return len(residues(s, m))
    p = s.prime
    deep = {c % p ** m for c, k in s.balls if k >= m}
    return len(deep) + sum(p ** (m - k) for _, k in s.balls if k < m)


@dataclass(frozen=True)
class AdelicSet:
    """Product set over all primes: tracked components plus a symbolic default."""

    tracked: Dict[int, CompactSet] = field(default_factory=dict)
    default: str = FULL

    def __post_init__(self):
        if self.default not in (FULL, PZP):
            raise ValueError(f"unknown default family {self.default!r}")
        for p, comp in self.tracked.items():
            if comp.prime != p:
                raise ValueError(f"component at {p} built for prime {comp.prime}")

    def component(self, p: int) -> CompactSet:
        if p in self.tracked:
            return self.tracked[p]
        return CompactSet.zp(p) if self.default == FULL else CompactSet.pzp(p)

    def __str__(self):
        parts = [f"default={self.default}"]
        parts.extend(str(self.tracked[p]) for p in sorted(self.tracked))
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# set-description DSL


def parse_set(text: str) -> CompactSet:
    """Parse ``p=INT; balls: c+p^k, ...`` or ``p=INT; finite: r, ...``."""
    head, _, body = text.partition(";")
    head = head.strip()
    if not head.startswith("p="):
        raise ValueError(f"set description must start with 'p=': {text!r}")
    p = int(head[2:])
    body = body.strip()
    if body.startswith("balls:"):
        balls = []
        for item in body[len("balls:"):].split(","):
            center, _, radius = item.partition("+")
            radius = radius.strip()
            if not radius.startswith("p^"):
                raise ValueError(f"bad ball {item!r}, expected 'c+p^k'")
            balls.append((int(center.strip()), int(radius[2:])))
        return CompactSet.from_balls(p, balls)
    if body.startswith("finite:"):
        try:
            elems = [Fraction(item.strip()) for item in body[len("finite:"):].split(",")]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return CompactSet.from_finite(p, elems)
    raise ValueError(f"expected 'balls:' or 'finite:' in {text!r}")


def parse_adelic(text: str) -> AdelicSet:
    """Parse ``default=Zp|pZp`` followed by optional per-prime set clauses."""
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    if not chunks or not chunks[0].startswith("default="):
        raise ValueError(f"adelic description must start with 'default=': {text!r}")
    default = chunks[0][len("default="):].strip()
    tracked: Dict[int, CompactSet] = {}
    i = 1
    while i < len(chunks):
        if not chunks[i].startswith("p="):
            raise ValueError(f"expected 'p=' clause, got {chunks[i]!r}")
        if i + 1 >= len(chunks):
            raise ValueError(f"dangling clause {chunks[i]!r}")
        comp = parse_set(chunks[i] + "; " + chunks[i + 1])
        if comp.prime in tracked:
            raise ValueError(f"prime {comp.prime} tracked twice")
        tracked[comp.prime] = comp
        i += 2
    return AdelicSet(tracked=tracked, default=default)


def set_to_json(s: CompactSet) -> dict:
    if s.is_finite():
        return {"p": s.prime,
                "finite": [{"num": x.numerator, "den": x.denominator} for x in s.finite]}
    return {"p": s.prime, "balls": [{"center": c, "k": k} for c, k in s.balls]}


def _json_object(obj: Any, what: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _json_list(obj: Any, what: str) -> List[Any]:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON list, got {obj!r}")
    return obj


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not truncated."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def rational_from_json(e: Any, what: str) -> Fraction:
    """A JSON integer or a ``{"num": a, "den": b}`` object with integer fields."""
    if _is_int(e):
        return Fraction(e)
    if not isinstance(e, dict):
        raise ValueError(f"{what} {e!r} is neither an integer nor a num/den object")
    num, den = e["num"], e["den"]
    if not (_is_int(num) and _is_int(den)) or den == 0:
        raise ValueError(f"{what} {num!r}/{den!r} is not a rational number")
    return Fraction(num, den)


def set_from_json(obj: Any) -> CompactSet:
    obj = _json_object(obj, "set")
    if "finite" in obj:
        elems = [rational_from_json(e, "element") for e in _json_list(obj["finite"], "finite")]
        return CompactSet.from_finite(obj["p"], elems)
    balls = [_json_object(b, "ball") for b in _json_list(obj["balls"], "balls")]
    return CompactSet.from_balls(obj["p"], [(b["center"], b["k"]) for b in balls])


def adelic_to_json(a: AdelicSet) -> dict:
    return {"default": a.default,
            "tracked": {str(p): set_to_json(a.tracked[p]) for p in sorted(a.tracked)}}


def adelic_from_json(obj: Any) -> AdelicSet:
    obj = _json_object(obj, "adelic set")
    tracked = _json_object(obj.get("tracked", {}), "tracked")
    return AdelicSet(tracked={int(p): set_from_json(s) for p, s in tracked.items()},
                     default=obj.get("default", FULL))
