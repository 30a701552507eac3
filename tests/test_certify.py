"""The pointwise certificate against the forward-difference reference.

``oracles.certify_by_differences`` is the earlier certificate: on every
depth-d class c of a ball domain it evaluates the basis at c + p^d * i for
i = 0..top and requires every forward difference of phi(c) - S(c + p^d * i)
to vanish modulo p^N.  ``mahler._certify`` must reach the same boolean on
every series, certified or not.  ``oracles.first_miss_all_points`` is the
pointwise test on all deg + 1 points of a class; ``mahler._first_miss``
stops at ceil(M/d) of them and must name the same first miss.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from padelic import mahler
from padelic.mahler import MahlerSeries, StepFunction, _certify, _first_miss, expand
from padelic.ordering import basis_rational, p_ordering
from padelic.padic import residue, valp
from padelic.polys import RatPoly
from padelic.sets import CompactSet, residues

from oracles import (certify_by_differences, first_miss_all_points,
                     partial_sum_by_basis_rational, zp)


def _series(s: MahlerSeries, coeffs) -> MahlerSeries:
    return MahlerSeries(ordering=s.ordering, coeffs=tuple(coeffs), precision=s.precision)


def _domain(p: int, shape: str, rng: random.Random) -> CompactSet:
    if shape == "zp":
        return zp(p)
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
    full = expand(phi, n_prec)
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
    dom = zp(2)
    phi = StepFunction(2, dom, 2, {0: 1, 1: 6, 2: 3, 3: 0}, 4)
    full = expand(phi, 4)
    for n in range(1, full.length()):
        s = _series(full, full.coeffs[:n])
        assert _certify(s, phi) == certify_by_differences(s, phi)
        if any(full.coeffs[n:]):
            assert not _certify(s, phi)


def test_evaluator_values_match_exact_basis():
    dom = CompactSet.from_balls(3, [(1, 1), (5, 2)])
    full = expand(StepFunction(3, dom, 2, {r: r for r in residues(dom, 2)}, 5), 5)
    top = full.length() - 1
    # tables built at 2 digits are built again when asked for 5
    low = p_ordering(dom, top)
    low.basis_values(1, top, 2)
    for x in (1, 5, 14, 22, 40, Fraction(1, 4)):
        exact = [residue(basis_rational(full.ordering, k)(Fraction(x)), 3 ** 5)
                 for k in range(top + 1)]
        assert full.ordering.basis_values(x, top, 5) == exact
        assert low.basis_values(x, top, 5) == exact
    # a finite set's rational and negative points keep N + w(n) digits
    fin = p_ordering(CompactSet.from_finite(
        3, [Fraction(1, 2), 5, -4, 0, 9, Fraction(7, 4), 2, 1]), 7)
    for x, _ in fin.set.parts:
        assert fin.basis_values(x, 7, 6) == [residue(basis_rational(fin, k)(x), 3 ** 6)
                                             for k in range(8)]


def _certify_args(s: MahlerSeries, phi: StepFunction):
    """The (num, den, k) that ``_certify`` hands to ``_first_miss``."""
    seen = []

    def spy(num, den, phi, k):
        seen.append((num, den, k))
        return _first_miss(num, den, phi, k)

    with mock.patch.object(mahler, "_first_miss", spy):
        _certify(s, phi)
    return seen[0]


def _shifted_product(p: int, depth: int, c: int, count: int) -> RatPoly:
    """prod_{t<count} (x - c - p^depth t): zero at the first count test points
    of the class c + p^depth Z_p and a unit times p^(depth count) count! at the next."""
    out = RatPoly.make([1])
    for t in range(count):
        out = out * RatPoly.make([-(c + p ** depth * t), 1])
    return out


@given(st.sampled_from([2, 3, 5]), st.integers(0, 1), st.integers(0, 1),
       st.integers(1, 4), st.sampled_from(["certify", "approx"]), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_first_miss_matches_all_points(p, radius, lift, n_prec, form, seed):
    # d = m > radius (m >= radius + 2 at p = 2), so the class polynomial of the
    # full series has degree J = ceil(M/d) - 1 below deg, and the two tests
    # visit different numbers of points
    rng = random.Random(seed)
    m = radius + 1 + (lift if p < 5 else 0) + (p == 2)
    if radius:
        centres = rng.sample(range(p), rng.randrange(1, p))
        dom = CompactSet.from_balls(p, [(c, 1) for c in centres])
    else:
        dom = zp(p)
    table = {r: rng.randrange(p ** n_prec) for r in residues(dom, m)}
    phi = StepFunction(p, dom, m, table, n_prec)
    full = expand(phi, n_prec)
    lengths = {full.length()} | {rng.randrange(1, full.length() + 1) for _ in range(2)}
    bases = []
    for n in sorted(lengths):
        if form == "certify":
            bases.append(_certify_args(_series(full, full.coeffs[:n]), phi))
        else:
            den, num = partial_sum_by_basis_rational(_series(full, full.coeffs[:n])).integer_form()
            q = rng.choice([1, p, p * p, 7, 7 * p])
            bases.append(([c * q for c in num], den * q, rng.randrange(1, n_prec + 1)))
    classes = sorted(residues(dom, m))
    below = 0
    for num, den, k in bases:
        digits = k + valp(den, p)
        top_j = -(-digits // m) - 1
        below += top_j < len(num) - 1
        cases = [num]
        for _ in range(3):
            bumped = list(num) or [0]
            bumped[rng.randrange(len(bumped))] += (p ** rng.randrange(digits + 1)
                                                   * rng.randrange(1, p))
            cases.append(bumped)
            # zero at t < J of one class, so there only the point t = J sees it
            bump = _shifted_product(p, m, rng.choice(classes), top_j).scale(
                p ** rng.randrange(digits) * rng.randrange(1, p)).integer_form()[1]
            cases.append([a + b for a, b in zip_longest(num, bump, fillvalue=0)])
        for case in cases:
            assert _first_miss(case, den, phi, k) == first_miss_all_points(case, den, phi, k)
    assume(below)


def test_first_miss_evaluates_ceil_m_over_d_points_per_class():
    rng = random.Random(5)
    dom = zp(3)
    table = {r: rng.randrange(3 ** 4) for r in residues(dom, 3)}
    phi = StepFunction(3, dom, 3, table, 4)
    full = expand(phi, 4)
    num, den, k = _certify_args(full, phi)
    digits = k + valp(den, 3)
    points = min(len(num), -(-digits // 3))
    assert points < len(num)
    calls = []
    horner_mod = mahler.horner_mod

    def counting(coeffs, x, mod):
        calls.append(x)
        return horner_mod(coeffs, x, mod)

    with mock.patch.object(mahler, "horner_mod", counting):
        assert _certify(full, phi)
    assert len(calls) == 27 * points
