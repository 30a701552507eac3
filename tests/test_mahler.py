"""Series expansion of step functions: recursion, certificates, sup-norm."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import padelic.ordering
from padelic.mahler import StepFunction, expand, expand_in_basis
from padelic.adelic import adelic_ordering
from padelic.ordering import basis_rational
from padelic.padic import INF, residue
from padelic.sets import (FULL, MAX_CLASSES, AdelicSet, CompactSet, count_residues,
                          residues)

from oracles import partial_sum_by_basis_rational, series_value, sup_norm_data, zp


def step(p, domain, m, table, n_prec=6):
    return StepFunction(p, domain, m, table, n_prec)


def test_x_squared_coefficients_frozen():
    # phi(r) = r^2 mod 64 as a function of r mod 8: finite differences of the
    # value table on 0,1,2,... give [0, 1, 2, 0, 0, 0, 0, 0, 0, 48, ...]
    dom = zp(2)
    phi = step(2, dom, 3, {r: r * r % 64 for r in range(8)})
    s = expand(phi, 6)
    assert s.coeffs[:10] == (0, 1, 2, 0, 0, 0, 0, 0, 0, 48)


def test_constant_function():
    dom = zp(3)
    phi = step(3, dom, 0, {0: 7}, 4)
    s = expand(phi, 4)
    assert s.coeffs[0] == 7
    assert all(c == 0 for c in s.coeffs[1:])


def test_evaluate_matches_table():
    dom = CompactSet.from_balls(2, [(1, 2)])
    random.seed(5)
    phi = step(2, dom, 3, {r: random.randrange(64) for r in residues(dom, 3)})
    s = expand(phi, 6)
    f = partial_sum_by_basis_rational(s)
    for r in sorted(residues(dom, 6)):
        assert residue(f(r), 64) == phi.value_at(r) % 64


def test_step_function_prime_must_match_domain():
    with pytest.raises(ValueError, match="domain"):
        StepFunction(3, zp(2), 1, {0: 0, 1: 1}, 4)


def test_certificate_class_count_is_capped():
    # the cap counts classes mod 2^d, d the deepest radius, without listing them
    assert count_residues(zp(2), 16) == MAX_CLASSES
    over = CompactSet.from_balls(2, [(0, 1), (1, 17)])
    assert count_residues(over, 17) == MAX_CLASSES + 1
    with pytest.raises(ValueError, match="classes"):
        StepFunction(2, over, 0, {0: 1}, 4)
    StepFunction(2, CompactSet.from_balls(2, [(0, 1), (1, 16)]), 0, {0: 1}, 4)


def test_evaluate_rational_argument_in_ball_domain():
    # Fraction arguments are reduced like integers: 1/3 lies in 1 + 2Z_2
    dom = CompactSet.from_balls(2, [(1, 1)])
    phi = step(2, dom, 2, {1: 5, 3: 12})
    s = expand(phi, 6)
    f = partial_sum_by_basis_rational(s)
    assert residue(f(Fraction(1, 3)), 64) == phi.value_at(Fraction(1, 3))


def test_recursion_equals_triangular_solve():
    random.seed(11)
    dom = zp(2)
    phi = step(2, dom, 2, {r: random.randrange(64) for r in range(4)})
    s = expand(phi, 6)
    basis = [basis_rational(s.ordering, n) for n in range(s.length())]
    assert list(s.coeffs) == expand_in_basis(phi, basis, 6)


def test_expand_in_basis_rejects_irregular():
    dom = zp(2)
    phi = step(2, dom, 1, {0: 1, 1: 2}, 4)
    s = expand(phi, 4)
    from padelic.polys import RatPoly
    bad = [RatPoly.x_power(n, 2) for n in range(s.length())]  # 2x^n: non-unit lead
    with pytest.raises(ValueError):
        expand_in_basis(phi, bad, 4)


def test_sup_norm_identity_requires_certificate():
    dom = zp(2)
    phi = step(2, dom, 1, {0: 4, 1: 12}, 4)
    s = expand(phi, 4)
    lo, hi = sup_norm_data(s, phi)
    assert lo == hi == 2  # all values divisible by 4, one exactly


def test_sup_norm_zero_function_is_inf():
    dom = zp(3)
    phi = step(3, dom, 1, {0: 0, 1: 0, 2: 0}, 4)
    s = expand(phi, 4)
    lo, hi = sup_norm_data(s, phi)
    assert lo is INF and hi is INF


def test_sup_norm_reads_values_at_the_series_precision():
    # 16 = 0 mod 2^3: a series expanded to 3 digits has only zero coefficients,
    # and the values read to 3 digits vanish too; reading 16 whole reported a
    # violation on a certified series
    phi = step(2, zp(2), 1, {0: 16, 1: 0}, 6)
    s = expand(phi, 3)
    assert sup_norm_data(s, phi) == (INF, INF)
    assert sup_norm_data(expand(phi, 6), phi) == (4, 4)


def test_finite_domain_expansion_is_interpolation():
    dom = CompactSet.from_finite(2, [1, 3, 4, 6])
    phi = step(2, dom, 3, {r: (r * r + 1) % 64 for r in residues(dom, 3)})
    s = expand(phi, 6)
    assert s.length() <= 4
    f = partial_sum_by_basis_rational(s)
    for e, _ in dom.parts:
        assert residue(f(e), 64) == phi.value_at(e)


def test_expand_runs_one_ordering_search(monkeypatch):
    # 72 coefficients: an ordering searched again whenever it doubled from 15
    # points would be searched at 15, 30, 60 and 120
    searches = []

    def counted(s, search=padelic.ordering._ordering_steps):
        searches.append(s.prime)
        return search(s)
    monkeypatch.setattr(padelic.ordering, "_ordering_steps", counted)
    rng = random.Random(1)
    dom = zp(3)
    s = expand(step(3, dom, 3, {r: rng.randrange(9) for r in residues(dom, 3)}, 2), 2)
    assert s.length() == 72 and searches == [3]


def test_expand_adelic_orders_a_finite_component_at_its_own_precision():
    # the ordering of a finite set depends on the set alone, so an adelic
    # ordering, which takes no precision, has the points that expand orders at 4
    dom = CompactSet.from_finite(3, [1, -1, 3 ** 10 - 1])
    a = AdelicSet(tracked={3: dom}, default=FULL)
    phi = StepFunction(3, dom, 1, {1: 1, 2: 2}, 4)
    assert adelic_ordering(a, 2).local[3].points == expand(phi, 4).ordering.points[:2]


@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_random_roundtrip(p, m, seed):
    rng = random.Random(seed)
    dom = zp(p)
    phi = step(p, dom, m, {r: rng.randrange(p ** 5) for r in residues(dom, m)}, 5)
    s = expand(phi, 5)
    for r in sorted(residues(dom, m)):
        assert series_value(s, r) == phi.value_at(r)
    lo, hi = sup_norm_data(s, phi)
    assert lo == hi


def exact_interpolation(phi, o):
    """Coefficients of the interpolant of phi's table in the exact basis f_k."""
    coeffs = []
    for n, a in enumerate(o.points):
        a = Fraction(a)
        coeffs.append(phi.value_at(a) - sum(c * basis_rational(o, k)(a)
                                            for k, c in enumerate(coeffs)))
    return coeffs


def test_finite_domain_with_a_deep_step_valuation():
    # 0 and 4096 are 2^12 apart: the step valuation 12 lies above N = 4 and
    # above len + 1 digits, but a finite set's valuations are exact
    dom = CompactSet.from_finite(2, [0, 4096, 1])
    phi = step(2, dom, 1, {0: 1, 1: 3}, 4)
    s = expand(phi, 4)
    assert s.coeffs == (1, 2, 0)
    assert s.ordering.w == (0, 0, 12)
    assert s.coeffs == tuple(residue(c, 2 ** 4) for c in exact_interpolation(phi, s.ordering))


@given(st.sampled_from([2, 3]), st.lists(st.integers(-40, 40), min_size=2, max_size=6,
                                         unique=True),
       st.integers(6, 14), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_finite_domain_expansion_is_exact_interpolation(p, elems, e, n_prec, seed):
    # one element p^e away from another forces a step valuation >= e
    dom = CompactSet.from_finite(p, elems + [elems[0] + p ** e])
    rng = random.Random(seed)
    phi = step(p, dom, 1, {r: rng.randrange(p ** n_prec) for r in residues(dom, 1)}, n_prec)
    s = expand(phi, n_prec)
    assert s.length() <= dom.size()
    exact = exact_interpolation(phi, s.ordering)[:s.length()]
    assert s.coeffs == tuple(residue(c, p ** n_prec) for c in exact)
