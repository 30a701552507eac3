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
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import LengthExceedsSet, PrecisionExhausted
from .padic import DEFAULT_PRECISION, residue, valp
from .polys import RatPoly
from .sets import CompactSet, residues

Point = Union[int, Fraction]


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
    if s.is_finite():
        return _p_ordering_finite(s, length, n_prec)
    return _p_ordering_balls(s, length, n_prec)


def _p_ordering_finite(s: CompactSet, length: int, n_prec: int) -> POrdering:
    p = s.prime
    if length >= len(s.finite):
        raise LengthExceedsSet(
            f"ordering of length {length} from a set of {len(s.finite)} elements")
    mod = p ** n_prec
    remaining = sorted(s.finite, key=lambda x: (residue(x, mod), x))
    points: List[Point] = [remaining.pop(0)]
    w = [0]
    for _ in range(length):
        best = None
        for i, y in enumerate(remaining):
            val = sum(valp(y - a, p) for a in points)
            if best is None or val < best[0]:
                best = (val, i)
        val, i = best
        if val >= n_prec:
            raise PrecisionExhausted(f"step valuation {val} >= precision {n_prec}")
        points.append(remaining.pop(i))
        w.append(val)
    return POrdering(p, s, tuple(points), tuple(w), n_prec)


def _p_ordering_balls(s: CompactSet, length: int, n_prec: int) -> POrdering:
    p = s.prime
    start_depth = s.max_ball_exponent() + 1
    points: List[Point] = [min(residues(s, start_depth))]
    w = [0]
    # counters[j-1] counts previous points modulo p^j; the capped factor sum of
    # a candidate r at depth d is sum_j counters[j-1][r mod p^j].
    counters: List[Counter] = []
    for n in range(1, length + 1):
        d = start_depth
        while True:
            if d > n_prec:
                raise PrecisionExhausted(
                    f"step {n} undecided at precision {n_prec}")
            while len(counters) < d:
                j = len(counters) + 1
                counters.append(Counter(a % p ** j for a in points))
            mods = [p ** (j + 1) for j in range(d)]
            best_val, best_r = None, None
            exact = False
            for r in sorted(residues(s, d)):
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
        w.append(best_val)
        for j, counter in enumerate(counters):
            counter[best_r % p ** (j + 1)] += 1
    return POrdering(p, s, tuple(points), tuple(w), n_prec)


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
    p, wn = o.prime, o.w[n]
    if o.precision < wn:
        raise PrecisionExhausted(f"precision {o.precision} below w({n}) = {wn}")
    if n == 0:
        return RatPoly.constant(1)
    g = product_poly(o, n)
    mod = p ** wn
    h = [residue(c, mod) for c in g.coeffs[:-1]]
    h.append(1)  # g is monic; keep the lift monic
    return RatPoly.make(h).scale(Fraction(1, mod))


def local_membership(f: RatPoly, s: CompactSet, n_prec: int = None) -> bool:
    """Whether f maps the set into Z_p, via values at p-ordering points."""
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    p = s.prime
    if f.is_zero():
        return True
    d = f.degree()
    if s.is_finite() and d >= len(s.finite):
        pts: List[Point] = list(s.finite)
    else:
        pts = list(p_ordering(s, d, n_prec).points)
    return all(valp(f(a), p) >= 0 for a in pts)
