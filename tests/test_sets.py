"""Compact subsets of Z_p: normalization, residues, membership, DSL, JSON."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padelic.errors import EmptySet
from padelic.ordering import p_ordering
from padelic.padic import INF, valp
from padelic.sets import (FULL, PZP, AdelicSet, CompactSet, count_residues,
                          normalize, parse_adelic, parse_set,
                          residues, set_from_json, set_to_json,
                          adelic_from_json, adelic_to_json)
from padelic.utils import is_prime, primes_up_to

from oracles import pzp, zp


def test_normalize_merges_contained_balls():
    s = CompactSet.from_balls(2, [(0, 1), (4, 3), (1, 2)])  # 4+8Z inside 0+2Z
    assert s.parts == ((0, 1), (1, 2))


def test_normalize_canonicalizes_centers():
    # 10 mod 9 = 1 lands inside -2 mod 3 = 1, so one ball remains
    s = CompactSet.from_balls(3, [(10, 2), (-2, 1)])
    assert s.parts == ((1, 1),)


def test_normalize_coalesces_full_families():
    s = CompactSet.from_balls(2, [(0, 2), (2, 2), (1, 1)])
    assert s == zp(2)


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        CompactSet.from_finite(5, [])


def test_residues_of_zp():
    assert residues(zp(2), 3) == {0, 1, 2, 3, 4, 5, 6, 7}
    assert residues(pzp(2), 3) == {0, 2, 4, 6}


def test_residues_of_ball_union():
    s = CompactSet.from_balls(3, [(1, 1), (2, 2)])
    assert residues(s, 2) == {1, 4, 7, 2}


def test_count_mod_p():
    assert count_residues(zp(5), 1) == 5
    assert count_residues(pzp(5), 1) == 1
    assert count_residues(CompactSet.from_finite(3, [1, 4, 2]), 1) == 2  # 1=4 mod 3


def test_parse_set_dsl():
    s = parse_set("p=2; balls: 0+p^1, 1+p^1")
    assert s == zp(2)
    f = parse_set("p=3; finite: 1, 2/5, -4")
    assert f.parts == ((Fraction(-4), INF), (Fraction(2, 5), INF), (Fraction(1), INF))


@given(st.integers(0, 59).filter(lambda n: not is_prime(n)))
def test_composite_modulus_rejected(n):
    with pytest.raises(ValueError, match="not a prime"):
        parse_set(f"p={n}; balls: 0+p^1")
    with pytest.raises(ValueError, match="not a prime"):
        parse_set(f"p={n}; finite: 1, 2")
    with pytest.raises(ValueError, match="not a prime"):
        set_from_json({"p": n, "balls": [{"center": 0, "k": 1}]})


def test_parse_adelic_dsl():
    a = parse_adelic("default=Zp; p=2; balls: 0+p^2; p=3; finite: 1, 2")
    assert a.default == FULL
    assert set(a.tracked) == {2, 3}
    assert a.component(5) == zp(5)
    b = parse_adelic("default=pZp")
    assert b.component(7) == pzp(7)


@pytest.mark.parametrize("default", [FULL, PZP])
def test_untracked_w_is_the_default_ball_p_ordering(default):
    # the closed form s n + v_p(n!) against Bhargava's recursion
    a = AdelicSet(default=default)
    for p in primes_up_to(49):
        w = p_ordering(a.component(p), 59).w
        assert tuple(a.untracked_w(p, n) for n in range(60)) == w


@pytest.mark.parametrize("default", [FULL, PZP])
def test_untracked_primes_are_those_of_positive_w(default):
    a = AdelicSet(tracked={3: pzp(3)}, default=default)
    w = {p: p_ordering(a.component(p), 59).w for p in primes_up_to(60) if p != 3}
    for n in range(60):
        positive = [p for p in sorted(w) if w[p][n] > 0]
        if a.shift and n:  # then every untracked prime is positive
            assert a.untracked_primes(n) is None and positive == sorted(w)
        else:
            assert a.untracked_primes(n) == positive


@st.composite
def compact_sets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        balls = draw(st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 3)), min_size=1, max_size=4))
        return CompactSet.from_balls(p, balls)
    elems = draw(st.lists(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)),
        min_size=1, max_size=5, unique=True))
    return CompactSet.from_finite(p, [e for e in elems if valp(e, p) >= 0] or [0])


@given(compact_sets())
def test_set_json_roundtrip(s):
    assert set_from_json(set_to_json(s)) == s


@given(compact_sets(), compact_sets())
def test_adelic_json_roundtrip(s1, s2):
    tracked = {s1.prime: s1}
    if s2.prime != s1.prime:
        tracked[s2.prime] = s2
    a = AdelicSet(tracked=tracked, default=PZP)
    assert adelic_from_json(adelic_to_json(a)) == a


@given(compact_sets(), st.integers(1, 4))
def test_residues_refine_consistently(s, m):
    p = s.prime
    deep = residues(s, m + 1)
    shallow = residues(s, m)
    assert {r % p ** m for r in deep} == shallow


@given(compact_sets(), st.integers(0, 4))
def test_count_residues_matches_residues(s, m):
    # the closed form counts points and balls alike
    assert count_residues(s, m) == len(residues(s, m))


@pytest.mark.parametrize("balls", [[(0, -1)], [(0, 1.5)], [("0", 1)], [(0, True)]])
def test_ball_fields_must_be_integers_with_radius_at_least_zero(balls):
    with pytest.raises(ValueError):
        CompactSet.from_balls(2, balls)


@pytest.mark.parametrize("obj", [
    {"p": "2", "balls": [{"center": 0, "k": 0}]},
    {"p": 2.0, "balls": [{"center": 0, "k": 0}]},
    {"p": 2, "balls": [{"center": "1", "k": 1}]},
    {"p": 3, "finite": [{"num": "1", "den": 2}]},
    {"p": 3, "finite": [{"num": 1, "den": 0}]},
    # JSON's Infinity reads as a float radius; only a point has radius INF
    {"p": 2, "balls": [{"center": 5, "k": float("inf")}]},
    {"p": 2, "balls": [{"center": 5, "k": float("-inf")}]},
    {"p": 2, "balls": [{"center": 5, "k": float("nan")}]},
])
def test_set_from_json_rejects_non_integer_fields(obj):
    with pytest.raises(ValueError):
        set_from_json(obj)
