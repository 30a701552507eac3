"""The pointwise certificate against the forward-difference reference.

``oracles.certify_by_differences`` is the earlier certificate: on every
depth-d class c of a ball domain it evaluates the basis at c + p^d * i for
i = 0..top and requires every forward difference of phi(c) - S(c + p^d * i)
to vanish modulo p^N.  ``mahler._certify`` must reach the same boolean on
every series, certified or not.
"""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from padelic.errors import PrecisionExhausted
from padelic.mahler import MahlerSeries, StepFunction, _certify, expand
from padelic.ordering import basis_rational, p_ordering
from padelic.padic import residue
from padelic.sets import CompactSet, residues

from oracles import certify_by_differences


def _series(s: MahlerSeries, coeffs) -> MahlerSeries:
    return MahlerSeries(ordering=s.ordering, coeffs=tuple(coeffs),
                        precision=s.precision, certified=False)


def _domain(p: int, shape: str, rng: random.Random) -> CompactSet:
    if shape == "zp":
        return CompactSet.zp(p)
    if shape == "balls":
        k = rng.randrange(1, 3)
        centres = rng.sample(range(p ** k), rng.randrange(1, p ** k))
        return CompactSet.from_balls(p, [(c, k) for c in centres])
    elems = set()
    while len(elems) < rng.randrange(3, 9):
        elems.add(rng.randrange(-40, 41))
    return CompactSet.from_finite(p, sorted(elems))


@given(st.sampled_from([2, 3, 5]), st.sampled_from(["zp", "balls", "finite"]),
       st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_pointwise_certificate_matches_difference_table(p, shape, n_prec, seed):
    rng = random.Random(seed)
    dom = _domain(p, shape, rng)
    m = rng.randrange(0, 3 if p < 5 else 2)
    table = {r: rng.randrange(p ** n_prec) for r in residues(dom, m)}
    phi = StepFunction(p, dom, m, table, n_prec)
    try:
        full = expand(phi, None, n_prec)
    except PrecisionExhausted:
        assume(False)  # finite domains are ordered at len + 1 digits only
    assert _certify(full, phi) is True
    assert certify_by_differences(full, phi) is True
    cases = [full.coeffs[:n] for n in range(1, full.length())]
    for _ in range(3):
        corrupted = list(full.coeffs)
        k = rng.randrange(len(corrupted))
        corrupted[k] = (corrupted[k] + rng.randrange(1, p ** n_prec)) % p ** n_prec
        cases.append(corrupted)
        cases.append(corrupted[:rng.randrange(1, len(corrupted) + 1)])
    for coeffs in cases:
        s = _series(full, coeffs)
        assert _certify(s, phi) == certify_by_differences(s, phi)


def test_certificate_rejects_a_prefix_that_agrees_on_the_ordering_points():
    # the first coefficients interpolate phi at a_0..a_top, so only points
    # beyond the ordering prefix can reject the truncation
    dom = CompactSet.zp(2)
    phi = StepFunction(2, dom, 2, {0: 1, 1: 6, 2: 3, 3: 0}, 4)
    full = expand(phi, None, 4)
    for n in range(1, full.length()):
        s = _series(full, full.coeffs[:n])
        assert _certify(s, phi) == certify_by_differences(s, phi)
        if any(full.coeffs[n:]):
            assert not _certify(s, phi)


def test_evaluator_values_match_exact_basis():
    dom = CompactSet.from_balls(3, [(1, 1), (5, 2)])
    full = expand(StepFunction(3, dom, 2, {r: r for r in residues(dom, 2)}, 5), None, 5)
    top = full.length() - 1
    # an ordering kept at 2 digits builds its tables again when asked for 5
    low = p_ordering(dom, top, 2)
    low.basis_values(1, top, 2)
    for x in (1, 5, 14, 22, 40, Fraction(1, 4)):
        exact = [residue(basis_rational(full.ordering, k)(Fraction(x)), 3 ** 5)
                 for k in range(top + 1)]
        assert full.ordering.basis_values(x, top, 5) == exact
        assert low.basis_values(x, top, 5) == exact
    # a finite set's rational and negative points keep N + w(n) digits
    fin = p_ordering(CompactSet.from_finite(
        3, [Fraction(1, 2), 5, -4, 0, 9, Fraction(7, 4), 2, 1]), 7, 6)
    for x in fin.set.finite:
        assert fin.basis_values(x, 7, 6) == [residue(basis_rational(fin, k)(x), 3 ** 6)
                                             for k in range(8)]
