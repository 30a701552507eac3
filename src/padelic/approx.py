"""One rational polynomial close to prescribed functions at several primes.

Each target function is expanded in the ordering basis of its component,
each partial sum is folded by ``mahler._fold`` into F over p^W (the
congruences are in the ``mahler`` module docstring), and the parts
(p, k, W, F) are combined coefficientwise by ``globalbasis.crt_combine`` so
the output is congruent to each partial sum p-adically and integral at every
other prime.  Soundness is re-verified before returning: per-prime ball-wise
closeness plus global membership.

Closeness is checked pointwise in integers by ``mahler._first_miss``, the
certificate of the ``mahler`` module docstring, at each target's k, in one
attempt (``approximate`` says why a second could not help).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import CertificateFailed
from .globalbasis import crt_combine, global_membership
from .mahler import StepFunction, _first_miss, _fold, expand
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
    """Rational polynomial within p^-k of each target, integer-valued on the set.

    One attempt, built from ``expand(phi, k)``, always passes the checks: f is
    within p^-k of phi_p and integer-valued on E_p at each target p, and
    D = prod p^W is a unit at every other prime q, so f is integral on E_q.
    More digits gain nothing: if the 2k-digit series certifies at length L,
    every later coefficient is 0 mod p^2k, so the k-digit run of zeros
    certifies by length L + p^m, unless that passes the length cap.  A failed
    check would be a defect; it and an expansion that reaches its cap raise
    CertificateFailed.  ``attempts`` is always 1.
    """
    if not r.targets:
        return ApproxCertificate(poly=RatPoly.zero(), closeness={}, member=True,
                                 degree=-1, attempts=1)
    try:
        f = _build(r)
    except CertificateFailed as exc:
        raise CertificateFailed(f"approximation not certified: {exc}") from None
    bad = _verify(f, r)
    if bad is None and not global_membership(f, r.set):
        bad = "combined polynomial fails global membership"
    if bad is not None:
        raise CertificateFailed(f"approximation not certified: {bad}")
    return ApproxCertificate(
        poly=f, closeness={p: k for p, (_, k) in r.targets.items()},
        member=True, degree=f.degree(), attempts=1)


def _build(r: ApproxRequest) -> RatPoly:
    k_top = max(k for _, k in r.targets.values())
    parts = []
    for p, (phi, k) in sorted(r.targets.items()):
        s = expand(phi, k)
        digits = k_top + s.ordering.w[s.length() - 1]  # >= k_top + W: F / p^W = S mod p^k_top
        parts.append((p, k_top, *_fold(s.ordering, s.coeffs, digits)))
    return RatPoly.over(*crt_combine(parts))


def _verify(f: RatPoly, r: ApproxRequest):
    """Exact per-target closeness check; None when every target passes."""
    den, num = f.integer_form()
    for p, (phi, k) in r.targets.items():
        miss = _first_miss(num, den, phi, k)
        if miss is not None:
            return f"target at {p} misses {miss}"
    return None
