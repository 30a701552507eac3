"""One rational polynomial close to prescribed functions at several primes.

Each target function is expanded in the ordering basis of its component, the
coefficients are lifted to integers, and the resulting exact partial sums are
combined coefficientwise by CRT so the output is congruent to each partial
sum p-adically and integral at every other prime.  Soundness is re-verified
before returning: per-prime ball-wise closeness plus global membership.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .errors import CertificateFailed
from .globalbasis import crt_combine, global_membership
from .mahler import StepFunction, expand
from .ordering import basis_rational
from .padic import DEFAULT_PRECISION, valp
from .polys import RatPoly
from .sets import AdelicSet, residues


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


def approximate(r: ApproxRequest, n_prec: int = None) -> ApproxCertificate:
    """Rational polynomial within p^-k of each target, integer-valued on the set."""
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if not r.targets:
        return ApproxCertificate(poly=RatPoly.zero(), closeness={}, member=True,
                                 degree=-1, attempts=1)
    last_error = None
    for attempt, big_n in enumerate((n_prec, 2 * n_prec), start=1):
        try:
            f = _build(r, mult=attempt)
        except CertificateFailed as exc:
            last_error = exc
            continue
        bad = _verify(f, r)
        if bad is None and global_membership(f, r.set, big_n):
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
        series = expand(phi, None, min(mult * k, phi.precision))
        partial = RatPoly.zero()
        for n, c in enumerate(series.coeffs):
            if c:
                partial = partial + basis_rational(series.ordering, n).scale(c)
        parts.append((p, k_top, partial))
    cap = max(f.degree() for _, _, f in parts)
    return crt_combine(parts, max(cap, 0))


def _verify(f: RatPoly, r: ApproxRequest):
    """Exact per-target closeness check; None when every target passes."""
    for p, (phi, k) in r.targets.items():
        domain = phi.domain
        if domain.is_finite():
            for e in domain.finite:
                if valp(phi.value_at(e) - f(e), p) < k:
                    return f"target at {p} misses element {e}"
            continue
        depth = max(phi.modulus_exp, domain.max_ball_exponent())
        step = p ** depth
        top = max(f.degree(), 0)
        for c in residues(domain, depth):
            target = Fraction(phi.value_at(c))
            diffs = [target - f(Fraction(c + step * i)) for i in range(top + 1)]
            # binomial-basis coefficients of t -> phi(c) - f(c + p^depth t)
            for _ in range(top + 1):
                if valp(diffs[0], p) < k:
                    return f"target at {p} misses ball {c} + {p}^{depth} Z_{p}"
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return None
