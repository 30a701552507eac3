"""Adelic points, polynomials with adelic coefficients, and adelic orderings.

Untracked components are uniform: an adelic point carries one rational value
for every untracked prime, and the canonical ordering uses the diagonal
sequence 0, 1, 2, ... there.  Its step valuations and exception primes are
those of the set's default (``AdelicSet.untracked_w``, ``untracked_primes``),
so only the finitely many primes where a step product fails to be a unit are
ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import NoAdelicOrdering
from .globalbasis import _prime_factors
from .ordering import POrdering, p_ordering
from .padic import DEFAULT_PRECISION, PAdicInt, Rat, residue, valp
from .polys import RatPoly
from .sets import FULL, MAX_EXPONENT, AdelicSet, CompactSet
from .utils import is_prime, strip_primes


@dataclass(frozen=True)
class AdelicPoint:
    """Element of the adelic product: tracked components plus a diagonal default."""

    tracked: Dict[int, PAdicInt]
    default: Fraction


@dataclass(frozen=True)
class AdelicPoly:
    """Polynomial with adelic coefficients, materialized at finitely many primes."""

    degree: int
    tracked: Dict[int, RatPoly]
    default: RatPoly

    def component(self, p: int) -> RatPoly:
        return self.tracked.get(p, self.default)


@dataclass(frozen=True)
class AdelicOrdering:
    """Sequence of adelic points that is a p-ordering in every component."""

    set: AdelicSet
    points: Tuple[AdelicPoint, ...]
    local: Dict[int, POrdering]
    exceptions: Tuple[Tuple[int, ...], ...]  # per index: primes with positive step valuation

    def length(self) -> int:
        return len(self.points)

    def w(self, p: int, n: int) -> int:
        """Step valuation of the p-component at index n."""
        if p in self.local:
            return self.local[p].w[n]
        return self.set.untracked_w(p, n)

    def point_value(self, p: int, n: int) -> Rat:
        if p in self.local:
            return self.local[p].points[n]
        return self.points[n].default


def adelic_ordering(a: AdelicSet, length: int, n_prec: int = None) -> AdelicOrdering:
    """Adelic ordering with `length` points (indices 0..length-1).

    Tracked components come from the per-prime p-orderings, their points
    reduced modulo p^n_prec; untracked components are the diagonal sequence
    0, 1, 2, ...
    """
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if length < 1:
        raise ValueError("length must be >= 1")
    top = length - 1
    untracked = a.untracked_primes(top)
    if untracked is None:
        raise NoAdelicOrdering(
            "pZ_p default gives step valuation >= 1 at every untracked prime")
    local = {p: p_ordering(comp, top) for p, comp in a.tracked.items()}
    points = [AdelicPoint(tracked={p: PAdicInt(p, residue(o.points[n], p ** n_prec), n_prec)
                                   for p, o in local.items()},
                          default=Fraction(n))
              for n in range(length)]
    exceptions = []
    for n in range(length):
        exc = {p for p in untracked if p <= n}
        exc.update(p for p in local if local[p].w[n] > 0)
        exceptions.append(tuple(sorted(exc)))
    return AdelicOrdering(set=a, points=tuple(points), local=local,
                          exceptions=tuple(exceptions))


def adelic_membership(g: AdelicPoly, o: AdelicOrdering) -> bool:
    """Value criterion: g is integer-valued iff g(alpha_k) is integral, k <= deg."""
    if g.degree > o.length() - 1:
        raise ValueError("ordering too short for the degree of g")
    covered = set(g.tracked) | set(o.local)
    for k in range(g.degree + 1):
        for p in covered:
            f_p = g.component(p)
            if valp(f_p(o.point_value(p, k)), p) < 0:
                return False
        if strip_primes(g.default(Fraction(k)).denominator, covered) > 1:
            return False  # non-integral at an untracked prime
    return True


def poly_as_adelic(f: RatPoly, o: AdelicOrdering) -> AdelicPoly:
    """Re-read a rational polynomial as an adelic polynomial (equal components)."""
    primes = set(o.local) | _prime_factors(f.denominator())
    return AdelicPoly(degree=max(f.degree(), 0), tracked={p: f for p in primes}, default=f)


def scale_into_z(components: Dict[int, Sequence[Tuple[Rat, int]]]
                 ) -> Tuple[int, AdelicSet]:
    """Minimal d with d*E inside the integral adeles, plus the scaled set.

    Input components are ball unions in Q_p, given as (center, radius
    exponent) with rational centers of possibly negative valuation.
    """
    for p in components:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not a prime")
    exps = {}
    for p, balls in components.items():
        if not balls:
            raise ValueError(f"empty component at {p}")
        low = min(min(valp(Fraction(c), p), k) if Fraction(c) != 0 else k
                  for c, k in balls)
        exps[p] = max(0, -low)
        if exps[p] + max(max(k for _, k in balls), 0) > MAX_EXPONENT:
            raise ValueError(f"exponents of {p} after scaling pass the cap {MAX_EXPONENT}")
    d = 1
    for p, e in sorted(exps.items()):
        d *= p ** e
    tracked = {}
    for p, balls in components.items():
        scaled = []
        for c, k in balls:
            k2 = k + exps[p]
            scaled.append((residue(Fraction(c) * d, p ** k2), k2))
        tracked[p] = CompactSet.from_balls(p, scaled)
    return d, AdelicSet(tracked=tracked, default=FULL)

