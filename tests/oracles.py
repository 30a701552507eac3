"""Slow reference algorithms that the tests compare the library against.

Each is an earlier, more direct implementation of something the library now
computes another way; none of them is used by ``src/``.
"""
from __future__ import annotations

from fractions import Fraction

from padelic.adelic import AdelicOrdering, AdelicPoly
from padelic.mahler import MahlerSeries, StepFunction, _BasisEvaluator
from padelic.ordering import local_membership
from padelic.padic import valp
from padelic.polys import RatPoly
from padelic.sets import FULL, PZP, AdelicSet, CompactSet, residues


def certify_by_differences(s: MahlerSeries, phi: StepFunction,
                           evaluator: _BasisEvaluator) -> bool:
    """The forward-difference certificate: every Mahler coefficient of
    phi(c) - S(c + p^d t), t = 0..top, vanishes mod p^N on each class c mod p^d."""
    p, small = phi.prime, phi.prime ** s.precision
    top = s.length() - 1
    domain = phi.domain
    if domain.is_finite():
        for e in domain.finite:
            fvals = evaluator.values(e, top)
            total = sum(ck * fk for ck, fk in zip(s.coeffs, fvals)) % small
            if (total - phi.value_at(e)) % small:
                return False
        return True
    depth = max(phi.modulus_exp, domain.max_ball_exponent())
    step = p ** depth
    for c in residues(domain, depth):
        target = phi.table[c % p ** phi.modulus_exp]
        diffs = []
        for i in range(top + 1):
            fvals = evaluator.values(c + step * i, top)
            total = sum(ck * fk for ck, fk in zip(s.coeffs, fvals))
            diffs.append((target - total) % small)
        for _ in range(top + 1):
            if diffs[0] % small:
                return False
            diffs = [(b - a) % small for a, b in zip(diffs, diffs[1:])]
    return True


def trial_division_primes(n: int) -> set:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def membership_by_factoring(f: RatPoly, a: AdelicSet) -> bool:
    """Reference: factor the denominator and test each untracked prime."""
    if f.is_zero():
        return True
    if not all(local_membership(f, comp) for comp in a.tracked.values()):
        return False
    for p in trial_division_primes(f.denominator()) - set(a.tracked):
        if a.default == FULL and f.min_valuation_on_zp(p) < 0:
            return False
        if a.default == PZP and not local_membership(f, CompactSet.pzp(p)):
            return False
    return True


def adelic_membership_by_factoring(g: AdelicPoly, o: AdelicOrdering) -> bool:
    """Reference: the value criterion, factoring each default value's denominator."""
    covered = set(g.tracked) | set(o.local)
    for k in range(g.degree + 1):
        for p in covered:
            x = o.point_value(p, k) if p in o.local else Fraction(k)
            if valp(g.component(p)(x), p) < 0:
                return False
        if not trial_division_primes(g.default(Fraction(k)).denominator) <= covered:
            return False
    return True
