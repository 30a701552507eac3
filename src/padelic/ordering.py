"""Greedy p-orderings, their valuation sequences, and the two local bases.

The greedy step minimizes v_p(prod_k (y - a_k)) over the set.  Candidates are
enumerated as residues of the set at an adaptive depth d; a candidate class is
scored by the sum of its factor valuations capped at d, which is a lower bound
for every point of the class and exact as soon as no previous point lies in
the class.  The depth is increased until the minimum is attained by such an
exact class, so the chosen step valuation is provably the true minimum.

Chosen points are exact set elements: canonical integer residues for ball
sets (membership there only depends on finitely many digits), exact rationals
for finite sets.  All downstream evaluations are therefore exact.

The greedy search is a stream of steps (a_n, w(n)), and step n never depends
on how many steps follow, so every prefix of an ordering is itself the
ordering of that length.  ``LocalLifts`` keeps one stream per set together
with the running product g_n = prod_{k<n} (x - a_k) modulo p^N, so a caller
that needs the lifts of every degree runs the search once.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Tuple, Union

from .errors import LengthExceedsSet, PrecisionExhausted
from .padic import DEFAULT_PRECISION, residue, valp
from .polys import RatPoly, horner_mod
from .sets import CompactSet, residues

Point = Union[int, Fraction]
Step = Tuple[Point, int]  # (a_n, w(n))


@dataclass(frozen=True)
class POrdering:
    """A p-ordering a_0..a_L of a compact set with its valuation sequence w."""

    prime: int
    set: CompactSet
    points: Tuple[Point, ...]
    w: Tuple[int, ...]
    precision: int

    def length(self) -> int:
        return len(self.points) - 1

    def point_residues(self, depth: int = None) -> List[int]:
        depth = self.precision if depth is None else depth
        mod = self.prime ** depth
        return [residue(a, mod) for a in self.points]


def p_ordering(s: CompactSet, length: int, n_prec: int = None) -> POrdering:
    """Greedy p-ordering of s with points a_0..a_length.

    Deterministic: among step minimizers the candidate with the smallest
    canonical residue is chosen.  Raises PrecisionExhausted when deciding a
    step would need valuations at or beyond n_prec digits, and
    LengthExceedsSet for finite sets that are too small.
    """
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if length < 0:
        raise ValueError("length must be >= 0")
    if s.is_finite() and length >= len(s.finite):
        raise LengthExceedsSet(
            f"ordering of length {length} from a set of {len(s.finite)} elements")
    steps = list(islice(_ordering_steps(s, n_prec), length + 1))
    return POrdering(s.prime, s, tuple(a for a, _ in steps), tuple(v for _, v in steps),
                     n_prec)



def _ordering_steps(s: CompactSet, n_prec: int) -> Iterator[Step]:
    """The greedy steps (a_n, w(n)) of s, n = 0, 1, ...; a finite set's run out."""
    if s.is_finite():
        return _p_ordering_finite(s, n_prec)
    return _p_ordering_balls(s, n_prec)


def _p_ordering_finite(s: CompactSet, n_prec: int) -> Iterator[Step]:
    p = s.prime
    mod = p ** n_prec
    remaining = sorted(s.finite, key=lambda x: (residue(x, mod), x))
    a = remaining.pop(0)
    yield a, 0
    # sums[i] = sum of valp(remaining[i] - a_k) over the points chosen so far
    sums = [0] * len(remaining)
    while remaining:
        sums = [v + valp(y - a, p) for v, y in zip(sums, remaining)]
        val = min(sums)
        if val >= n_prec:
            raise PrecisionExhausted(f"step valuation {val} >= precision {n_prec}")
        i = sums.index(val)
        a = remaining.pop(i)
        del sums[i]
        yield a, val


def _p_ordering_balls(s: CompactSet, n_prec: int) -> Iterator[Step]:
    p = s.prime
    start_depth = s.max_ball_exponent() + 1
    points: List[Point] = [min(residues(s, start_depth))]
    yield points[0], 0
    # counters[j-1] counts previous points modulo p^j; the capped factor sum of
    # a candidate r at depth d is sum_j counters[j-1][r mod p^j].
    counters: List[Counter] = []
    candidates: List[List[int]] = []  # candidates[d-1]: sorted residues of s mod p^d
    n = 0
    while True:
        n += 1
        d = start_depth
        while True:
            if d > n_prec:
                raise PrecisionExhausted(
                    f"step {n} undecided at precision {n_prec}")
            while len(counters) < d:
                j = len(counters) + 1
                counters.append(Counter(a % p ** j for a in points))
            while len(candidates) < d:
                candidates.append(sorted(residues(s, len(candidates) + 1)))
            mods = [p ** (j + 1) for j in range(d)]
            best_val, best_r = None, None
            exact = False
            for r in candidates[d - 1]:
                val = sum(counters[j][r % mods[j]] for j in range(d))
                if best_val is None or val < best_val:
                    best_val, best_r = val, r
                    exact = counters[d - 1][r % mods[d - 1]] == 0
                elif val == best_val and not exact and counters[d - 1][r % mods[d - 1]] == 0:
                    best_r, exact = r, True
            if exact:
                break
            d += 1
        points.append(best_r)
        for j, counter in enumerate(counters):
            counter[best_r % p ** (j + 1)] += 1
        yield best_r, best_val


def product_poly(o: POrdering, n: int) -> RatPoly:
    """The monic polynomial g_n = prod_{k<n} (x - a_k)."""
    g = RatPoly.constant(1)
    for a in o.points[:n]:
        g = g * RatPoly.make([-a, 1])
    return g


def basis_rational(o: POrdering, n: int) -> RatPoly:
    """f_n = prod_{k<n} (x - a_k)/(a_n - a_k) with exact rational coefficients."""
    if n > o.length():
        raise ValueError(f"degree {n} exceeds ordering length {o.length()}")
    den = Fraction(1)
    for a in o.points[:n]:
        den *= o.points[n] - a
    return product_poly(o, n).scale(1 / den)


def rational_lift(o: POrdering, n: int) -> RatPoly:
    """Monic integer lift h_n of g_n modulo p^w(n), divided by p^w(n).

    h_n has canonical coefficients in [0, p^w(n)) below the leading term; the
    returned rational polynomial maps the whole set into Z_p.
    """
    if n > o.length():
        raise ValueError(f"degree {n} exceeds ordering length {o.length()}")
    g, mod = [1], o.prime ** o.precision
    for a in o.points[:n]:
        g = _times_linear(g, residue(a, mod), mod)
    return _lift(g, o.prime, n, o.w[n], o.precision)


def _times_linear(g: List[int], a: int, mod: int) -> List[int]:
    """(x - a) * g modulo mod; coefficients lowest degree first."""
    out = [-a * g[0] % mod]
    out.extend((c - a * d) % mod for c, d in zip(g, g[1:]))
    out.append(g[-1])
    return out


def _lift(g: List[int], p: int, n: int, wn: int, precision: int) -> RatPoly:
    """h_n / p^w(n) from the monic g_n modulo p^precision, lowest degree first."""
    if precision < wn:
        raise PrecisionExhausted(f"precision {precision} below w({n}) = {wn}")
    mod = p ** wn
    h = [c % mod for c in g[:-1]]
    h.append(1)  # g is monic; keep the lift monic
    return RatPoly.make(h).scale(Fraction(1, mod))


class LocalLifts:
    """One greedy p-ordering of a set, pulled a step at a time, and its lifts.

    ``w(n)`` runs the search only as far as step n, so an error of step n
    surfaces when degree n is first asked for.  ``lift(n)`` is
    ``rational_lift`` of the ordering at degree n, read from the product
    g_n modulo p^N that is advanced by one linear factor per degree.
    """

    def __init__(self, s: CompactSet, n_prec: int):
        self.prime, self.precision = s.prime, n_prec
        self._steps = _ordering_steps(s, n_prec)
        self._mod = s.prime ** n_prec
        self._points: List[Point] = []
        self._w: List[int] = []
        self._g = [1]  # g_k modulo p^N, k = number of factors taken so far

    def w(self, n: int) -> int:
        while len(self._w) <= n:
            a, v = next(self._steps)
            self._points.append(a)
            self._w.append(v)
        return self._w[n]

    def lift(self, n: int) -> RatPoly:
        wn = self.w(n)
        for a in self._points[len(self._g) - 1:n]:
            self._g = _times_linear(self._g, residue(a, self._mod), self._mod)
        return _lift(self._g, self.prime, n, wn, self.precision)


def local_membership(f: RatPoly, s: CompactSet, n_prec: int = None) -> bool:
    """Whether f maps the set into Z_p, via values at p-ordering points.

    With f = F/D, F integral, f(a) lies in Z_p exactly when F(a) = 0 mod
    p^v_p(D), so the values are tested on integer residues.  When p does not
    divide D, f maps all of Z_p into Z_p and no ordering is built.
    """
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    p = s.prime
    den, num = f.integer_form()
    v = valp(den, p)
    if v == 0:
        return True
    d = f.degree()
    if s.is_finite() and d >= len(s.finite):
        pts: List[Point] = list(s.finite)
    else:
        pts = list(p_ordering(s, d, n_prec).points)
    mod = p ** v
    num = [c % mod for c in num]
    return all(horner_mod(num, residue(a, mod), mod) == 0 for a in pts)
