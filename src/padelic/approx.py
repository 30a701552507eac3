"""One rational polynomial close to prescribed functions at several primes.

Each target function is expanded in the ordering basis of its component, the
coefficients are lifted to integers, and the resulting exact partial sums,
integer numerators over one denominator each, are combined coefficientwise
by ``globalbasis.crt_combine`` so the output is congruent to each partial
sum p-adically and integral at every other prime.  Soundness is re-verified
before returning: per-prime ball-wise closeness plus global membership.

A partial sum sum c_n f_n is built in nested Newton form.  With
f_n = prod_{k<n} (x - a_k) / d_n and d_n = prod_{k<n} (a_n - a_k), it is
e_0 + (x - a_0)(e_1 + (x - a_1)(e_2 + ...)) with e_n = c_n / d_n, one pass of
O(L^2) multiplications over a common denominator of the e_n.

Closeness is checked pointwise in integers by ``mahler._first_miss``, the
certificate of the ``mahler`` module docstring, at each target's k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Dict, List, Sequence, Tuple

from .errors import CertificateFailed
from .globalbasis import crt_combine, global_membership
from .mahler import StepFunction, _first_miss, expand
from .ordering import POrdering
from .polys import RatPoly
from .sets import AdelicSet


@dataclass(frozen=True)
class ApproxRequest:
    set: AdelicSet
    targets: Dict[int, Tuple[StepFunction, int]]  # prime -> (function, closeness exp)

    def __post_init__(self):
        for p, (phi, k) in self.targets.items():
            if k < 1:
                raise ValueError("closeness exponent must be >= 1")
            if phi.prime != p:
                raise ValueError(f"target at {p} carries a {phi.prime}-adic function")
            if phi.precision < k:
                raise ValueError(f"target at {p} tabulated to {phi.precision} digits, "
                                 f"closeness {k} requested")
            if phi.domain != self.set.component(p):
                raise ValueError(f"target domain at {p} differs from the set component")


@dataclass(frozen=True)
class ApproxCertificate:
    poly: RatPoly
    closeness: Dict[int, int]  # prime -> verified closeness exponent
    member: bool
    degree: int
    attempts: int


def approximate(r: ApproxRequest) -> ApproxCertificate:
    """Rational polynomial within p^-k of each target, integer-valued on the set."""
    if not r.targets:
        return ApproxCertificate(poly=RatPoly.zero(), closeness={}, member=True,
                                 degree=-1, attempts=1)
    last_error = None
    for attempt in (1, 2):
        try:
            f = _build(r, mult=attempt)
        except CertificateFailed as exc:
            last_error = exc
            continue
        bad = _verify(f, r)
        if bad is None and global_membership(f, r.set):
            return ApproxCertificate(
                poly=f, closeness={p: k for p, (_, k) in r.targets.items()},
                member=True, degree=f.degree(), attempts=attempt)
        last_error = CertificateFailed(
            bad if bad else "combined polynomial fails global membership")
    raise CertificateFailed(f"approximation not certified: {last_error}")


def _build(r: ApproxRequest, mult: int) -> RatPoly:
    k_top = max(k for _, k in r.targets.values())
    parts = []
    for p, (phi, k) in sorted(r.targets.items()):
        series = expand(phi, min(mult * k, phi.precision))
        parts.append((p, k_top, *_newton_sum(series.ordering, series.coeffs)))
    return RatPoly.over(*crt_combine(parts))


def _newton_sum(o: POrdering, coeffs: Sequence[int]) -> Tuple[int, List[int]]:
    """sum_n c_n f_n over the ordering basis, folded in nested Newton form, as
    (den, num): integer numerators, lowest degree first, over one denominator.

    The fold runs in integers on the points L a_n (``POrdering.numerators``),
    with the e_n scaled by their common denominator; it gives the sum as a
    polynomial in L x, whose coefficient of x^i is L^i times that of (L x)^i.
    """
    top = max((n for n, c in enumerate(coeffs) if c), default=-1)
    pts = o.numerators
    e = [Fraction(coeffs[n], prod(pts[n] - a for a in pts[:n])) for n in range(top + 1)]
    den = lcm(*(x.denominator for x in e))
    h: list = []  # lowest degree first
    for n in range(top, -1, -1):
        a = pts[n]
        h = [0] + h  # h <- h * (x - a_n) + e_n * den
        for i in range(len(h) - 1):
            h[i] -= a * h[i + 1]
        h[0] += e[n].numerator * (den // e[n].denominator)
    return den, [c * o.scale ** i for i, c in enumerate(h)]


def _verify(f: RatPoly, r: ApproxRequest):
    """Exact per-target closeness check; None when every target passes."""
    den, num = f.integer_form()
    for p, (phi, k) in r.targets.items():
        miss = _first_miss(num, den, phi, k)
        if miss is not None:
            return f"target at {p} misses {miss}"
    return None
