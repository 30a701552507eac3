"""Compact subsets of Z_p and adelic products.

A ``CompactSet`` is one sorted tuple of parts (centre, radius): a ball
c + p^k Z_p has an integer centre, and a point x is the part (x, INF).  An
``AdelicSet`` tracks finitely many primes explicitly and fills in every other
prime p with a symbolic default, the ball p^s Z_p: Z_p (s = 0) or pZ_p (s = 1).
Its p-ordering is a_n = p^s n (Bhargava, J. reine angew. Math. 490 (1997)).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import EmptySet
from .padic import INF, Rat, residue, valp
from .utils import is_prime, primes_up_to, v_of_factorial

#: Symbolic default families for untracked primes: the shift s of p^s Z_p.
FULL = "Zp"
PZP = "pZp"
SHIFTS = {FULL: 0, PZP: 1}

#: Most balls or points a set may be given with.  The ordering recurses
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
    """Compact subset of Z_p: disjoint parts sorted by (radius, centre), points last."""

    prime: int
    parts: Tuple[Tuple[Rat, int], ...]  # (centre, radius); a point has radius INF

    @classmethod
    def from_balls(cls, p: int, balls: Sequence[Tuple[int, int]]) -> "CompactSet":
        return normalize(cls(p, tuple((c, k) for c, k in balls)))

    @classmethod
    def from_finite(cls, p: int, elems: Sequence[Rat]) -> "CompactSet":
        return normalize(cls(p, tuple((Fraction(x), INF) for x in elems)))

    def size(self):
        """The number of elements; INF once the set has a ball."""
        return len(self.parts) if self.parts[0][1] == INF else INF

    def max_ball_exponent(self) -> int:
        return max((k for _, k in self.parts if k != INF), default=0)


def normalize(s: CompactSet) -> CompactSet:
    """Canonical form: disjoint balls, then the points outside them.  Only a
    Fraction centre may have radius INF, so a ball of JSON radius Infinity is refused."""
    parts = s.parts
    if len(parts) > MAX_PARTS:
        raise ValueError(f"{len(parts)} balls or points given, at most {MAX_PARTS} allowed")
    p = s.prime
    if not _is_int(p) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not a prime")
    if not parts:
        raise EmptySet("set with no balls or points")
    balls, points = set(), []
    for c, k in parts:
        if k == INF and isinstance(c, Fraction):
            if valp(c, p) < 0:
                raise ValueError(f"{c} has negative {p}-adic valuation")
            points.append(c)
        elif not (_is_int(c) and _is_int(k)) or not 0 <= k <= MAX_EXPONENT:
            raise ValueError(f"ball {c!r}+p^{k!r} needs an integer centre "
                             f"and radius in 0..{MAX_EXPONENT}")
        else:
            balls.add((c % p ** k, k))
    changed = True
    while changed:
        changed = False
        kept, radii = set(), {k for _, k in balls}
        for c, k in sorted(balls, key=lambda b: b[1]):  # shallow first
            if not any((c % p ** k0, k0) in kept for k0 in radii if k0 < k):
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
    points = dict.fromkeys(points)  # deduped in input order, which sorts fastest
    if balls:  # a point inside a ball adds nothing to it
        points = [x for x in points if not any(residue(x, p ** k) == c for c, k in balls)]
    return CompactSet(p, tuple(sorted(balls, key=lambda b: (b[1], b[0]))
                               + [(x, INF) for x in sorted(points)]))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def residues(s: CompactSet, m: int) -> set:
    """Exactly the residues modulo p^m meeting the set."""
    if m < 0:
        raise ValueError("modulus exponent must be >= 0")
    p = s.prime
    mod = p ** m
    out = set()
    for c, k in s.parts:
        if k >= m:
            out.add(residue(c, mod))
        else:
            step = p ** k
            out.update((c + step * t) % mod for t in range(p ** (m - k)))
    return out


def count_residues(s: CompactSet, m: int) -> int:
    """len(residues(s, m)) without enumerating them.

    The parts of a normalized set are disjoint, so a ball of radius k < m
    meets p^(m-k) residues that no other part meets, while a deeper ball or
    a point meets one residue, which other deep parts may share.
    """
    p = s.prime
    deep = {residue(c, p ** m) for c, k in s.parts if k >= m}
    return len(deep) + sum(p ** (m - k) for _, k in s.parts if k < m)


@dataclass(frozen=True)
class AdelicSet:
    """Product set over all primes: tracked components plus a symbolic default."""

    tracked: Dict[int, CompactSet] = field(default_factory=dict)
    default: str = FULL

    def __post_init__(self):
        # a JSON default may be any value, hashable or not
        if not isinstance(self.default, str) or self.default not in SHIFTS:
            raise ValueError(f"unknown default family {self.default!r}")
        for p, comp in self.tracked.items():
            if comp.prime != p:
                raise ValueError(f"component at {p} built for prime {comp.prime}")

    @property
    def shift(self) -> int:
        """s of the ball p^s Z_p at every untracked prime."""
        return SHIFTS[self.default]

    def component(self, p: int) -> CompactSet:
        if p in self.tracked:
            return self.tracked[p]
        return CompactSet(p, ((0, self.shift),))

    def untracked_w(self, p: int, n: int) -> int:
        """w_p(n) of the default ball at an untracked p: s n + v_p(n!)."""
        return self.shift * n + v_of_factorial(n, p)

    def untracked_primes(self, n: int) -> Optional[List[int]]:
        """The untracked primes with w_p(n) > 0, or None for all of them."""
        if self.shift and n:
            return None
        return [p for p in primes_up_to(n) if p not in self.tracked]


# ---------------------------------------------------------------------------
# set-description DSL


_NUMBER = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _text_number(text: str, what: str, fraction: bool = False) -> Rat:
    """The integer that text spells in ASCII digits, -?[0-9]+, or with
    fraction=True also a/b; ValueError for anything else, such as "1_0",
    "+1", "1e1", "0.5", other scripts' digits or a zero denominator."""
    m = _NUMBER.fullmatch(text)
    if m is None or (m[2] is not None and not fraction):
        raise ValueError(f"{what} {text!r} is not an integer{' or a/b' if fraction else ''}")
    if m[2] is None:
        return int(m[1])
    if not int(m[2]):
        raise ValueError(f"zero denominator in {what} {text!r}")
    return Fraction(int(m[1]), int(m[2]))


def parse_set(text: str) -> CompactSet:
    """Parse ``p=INT; balls: c+p^k, ...`` or ``p=INT; finite: r, ...``."""
    head, _, body = text.partition(";")
    head = head.strip()
    if not head.startswith("p="):
        raise ValueError(f"set description must start with 'p=': {text!r}")
    p = _text_number(head[2:].strip(), "prime")
    body = body.strip()
    if body.startswith("balls:"):
        balls = []
        for item in body[len("balls:"):].split(","):
            center, _, radius = item.partition("+")
            radius = radius.strip()
            if not radius.startswith("p^"):
                raise ValueError(f"bad ball {item!r}, expected 'c+p^k'")
            balls.append((_text_number(center.strip(), "centre"),
                          _text_number(radius[2:].strip(), "radius")))
        return CompactSet.from_balls(p, balls)
    if body.startswith("finite:"):
        return CompactSet.from_finite(p, [_text_number(item.strip(), "element", True)
                                          for item in body[len("finite:"):].split(",")])
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
    out: Dict[str, Any] = {"p": s.prime}
    for c, k in s.parts:
        if k == INF:
            out.setdefault("finite", []).append({"num": c.numerator, "den": c.denominator})
        else:
            out.setdefault("balls", []).append({"center": c, "k": k})
    return out


def _json_object(obj: Any, what: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _int_keys(obj: Any, what: str) -> Dict[int, Any]:
    """A JSON object keyed by integers written as strings; keys that name one
    integer twice, such as "2" and "02", are refused, not overwritten."""
    out: Dict[int, Any] = {}
    for key, value in _json_object(obj, what).items():
        n = _text_number(key, f"{what} key")
        if n in out:
            raise ValueError(f"{what} names {n} twice")
        out[n] = value
    return out


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
    tracked = _int_keys(obj.get("tracked", {}), "tracked")
    return AdelicSet(tracked={p: set_from_json(s) for p, s in tracked.items()},
                     default=obj.get("default", FULL))
