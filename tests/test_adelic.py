"""Adelic orderings, membership by their value criterion, and the scaling reduction."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padelic.adelic import adelic_ordering, scale_into_z
from padelic.errors import NoAdelicOrdering
from padelic.globalbasis import global_membership, regular_basis
from padelic.polys import RatPoly
from padelic.sets import FULL, PZP, AdelicSet

from oracles import adelic_membership_by_factoring, binomial, pzp, zp
from test_globalbasis import random_binomial_poly

ZHAT = AdelicSet(tracked={}, default=FULL)


def test_default_ordering_is_diagonal():
    # untracked points are the indices 0..5 themselves; golden case
    # adelic_ordering_zp pins them as the CLI prints them
    o = adelic_ordering(ZHAT, 6)
    assert o.local == {} and len(o.exceptions) == 6
    assert ZHAT.untracked_w(2, 4) == 3  # v_2(4!)
    assert ZHAT.untracked_w(5, 4) == 0


def test_exception_lists():
    o = adelic_ordering(ZHAT, 8)
    # untracked: p enters the exception list at every index n >= p
    for n in range(8):
        assert o.exceptions[n] == tuple(p for p in (2, 3, 5, 7) if p <= n)


def test_exception_lists_with_tracked_pzp():
    a = AdelicSet(tracked={2: pzp(2)}, default=FULL)
    o = adelic_ordering(a, 5)
    # w_2 on 2Z_2 is [0,1,3,4,7]: positive from index 1 on
    for n in range(1, 5):
        assert 2 in o.exceptions[n]
    assert 2 not in o.exceptions[0]


def test_pzp_default_has_no_ordering():
    a = AdelicSet(tracked={}, default=PZP)
    with pytest.raises(NoAdelicOrdering):
        adelic_ordering(a, 2)
    # a single point is still fine
    assert len(adelic_ordering(a, 1).exceptions) == 1


def test_basis_transfer_from_global():
    a = AdelicSet(tracked={2: pzp(2), 3: zp(3)}, default=FULL)
    fam = regular_basis(a, 5)
    o = adelic_ordering(a, 8)
    for f in fam.polys:
        assert global_membership(f, a) and adelic_membership_by_factoring(f, o)


def test_membership_rejects_non_integral():
    o = adelic_ordering(ZHAT, 5)
    bad = RatPoly.make([0, Fraction(1, 2)])
    assert not global_membership(bad, ZHAT) and not adelic_membership_by_factoring(bad, o)
    for n in range(5):
        b = binomial(n)
        assert global_membership(b, ZHAT) and adelic_membership_by_factoring(b, o)


def test_scale_into_z():
    d, scaled = scale_into_z({2: [(Fraction(1, 2), 1)], 3: [(0, 1)]})
    assert d == 2
    assert scaled.tracked[2].parts == ((1, 2),)  # (1/2 + 2Z_2) * 2 = 1 + 4Z_2
    assert scaled.tracked[3].parts == ((0, 1),)
    assert scaled.default == FULL


def test_scale_into_z_integral_input_is_unscaled():
    d, scaled = scale_into_z({5: [(3, 2)]})
    assert d == 1
    assert scaled.tracked[5].parts == ((3, 2),)


@pytest.mark.parametrize("p", [1, 4, 6])
def test_scale_into_z_rejects_composite_key(p):
    with pytest.raises(ValueError, match="not a prime"):
        scale_into_z({p: [(3, 1)]})


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_adelic_membership_matches_factoring_oracle(seed):
    rng = random.Random(seed)
    a = AdelicSet(tracked={p: zp(p) for p in rng.sample([2, 3], rng.randrange(3))},
                  default=FULL)
    f = random_binomial_poly(rng, [2, 3, 5], 10 ** 6)
    o = adelic_ordering(a, max(f.degree(), 0) + 1)
    assert global_membership(f, a) == adelic_membership_by_factoring(f, o)
