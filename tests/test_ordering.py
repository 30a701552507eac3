"""p-orderings against the greedy search and brute-force oracles, plus the local bases."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import padelic.ordering
from padelic.errors import LengthExceedsSet
from padelic.ordering import (POrdering, basis_rational, local_membership, p_ordering,
                              product_poly, rational_lift)
from padelic.padic import residue, valp
from padelic.polys import RatPoly
from padelic.sets import CompactSet, residues

from oracles import (binomial, greedy_ball_ordering, greedy_finite_ordering,
                     membership_at_points, poly_sum, pzp, rational_lift_by_fractions, zp)


def oracle_w_finite(elems, p):
    """Lexicographically minimal valuation sequence over all orderings = the
    true w, since w is ordering-invariant for valid p-orderings."""
    best = None
    for perm in permutations(elems):
        w = tuple(sum(valp(Fraction(perm[n]) - Fraction(perm[k]), p) for k in range(n))
                  for n in range(len(perm)))
        if best is None or w < best:
            best = w
    return best


def oracle_w_balls(balls, p, length, depth):
    """Stepwise exhaustive greedy over all residues at a fixed large depth."""
    res = sorted(residues(CompactSet.from_balls(p, balls), depth))
    pts = [min(res)]
    w = [0]
    for _ in range(length):
        best = None
        for y in res:
            if y in pts:
                continue
            v = sum(valp(y - a, p) for a in pts)
            if best is None or v < best[0]:
                best = (v, y)
        w.append(best[0])
        pts.append(best[1])
    return w


def test_zp_ordering_is_legendre():
    for p in (2, 3, 5):
        o = p_ordering(zp(p), 10)
        assert o.points == tuple(range(11))
        assert list(o.w) == [valp(math.factorial(n), p) for n in range(11)]


def test_two_balls_frozen_oracle():
    # E = (1 + 3Z_3) u (2 + 9Z_3): exhaustive greedy at depth 12 gave this w
    o = p_ordering(CompactSet.from_balls(3, [(1, 1), (2, 2)]), 8)
    assert list(o.w) == [0, 0, 1, 2, 2, 4, 4, 5, 6]


def test_pzp_ordering():
    o = p_ordering(pzp(2), 6)
    assert o.points == (0, 2, 4, 6, 8, 10, 12)
    assert list(o.w) == [0, 1, 3, 4, 7, 8, 10]


def test_finite_frozen_oracle():
    s = [1, 2, 3, 4, 5, 9]
    assert p_ordering(CompactSet.from_finite(2, s), 5).w == (0, 0, 1, 1, 3, 6)
    assert p_ordering(CompactSet.from_finite(3, s), 5).w == (0, 0, 0, 1, 1, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_finite_matches_exhaustive_oracle(p):
    for size in (2, 3, 4):
        for elems in combinations(range(8), size):
            got = p_ordering(CompactSet.from_finite(p, elems), size - 1).w
            assert got == oracle_w_finite(elems, p), (p, elems)


@given(st.sampled_from([2, 3]),
       st.lists(st.tuples(st.integers(0, 26), st.integers(0, 3)),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_ball_matches_exhaustive_oracle(p, balls):
    o = p_ordering(CompactSet.from_balls(p, balls), 6)
    assert list(o.w) == oracle_w_balls(balls, p, 6, 7)


@given(st.sampled_from([2, 3, 5]), st.booleans(),
       st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 3), st.sampled_from([1, 7, 11])),
                min_size=1, max_size=4),
       st.integers(-40, 40), st.sampled_from([1, -1, 2, 3, 5, 6, 7, 10, 25]))
@settings(max_examples=60, deadline=None)
def test_affine_image_adds_n_vp_b_to_w(p, finite, draws, t, b):
    # x -> t + b x multiplies every difference by b, so
    # w_(t+bE)(n) = w_E(n) + n v_p(b); a ball c + p^k Z_p maps onto the
    # ball t + b c + p^(k + v_p(b)) Z_p
    v = valp(b, p)
    if finite:
        s = CompactSet.from_finite(p, [Fraction(c, d) for c, _, d in draws])
        image = CompactSet.from_finite(p, [t + b * x for x, _ in s.parts])
    else:
        s = CompactSet.from_balls(p, [(c, k) for c, k, _ in draws])
        image = CompactSet.from_balls(p, [(t + b * c, k + v) for c, k in s.parts])
    top = min(10, s.size() - 1)
    w = p_ordering(s, top).w
    assert list(p_ordering(image, top).w) == [w[n] + n * v for n in range(top + 1)]


def _compose_affine(f: RatPoly, b: Fraction, t: Fraction) -> RatPoly:
    """f(b x + t), by Horner's rule on coefficient lists, lowest degree first."""
    out: list = []
    for c in reversed(f.coeffs):
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            nxt[i] += t * a
            nxt[i + 1] += b * a
        nxt[0] += c
        out = nxt
    return RatPoly.make(out)


@given(st.sampled_from([2, 3, 5]), st.booleans(),
       st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 3), st.sampled_from([1, 7, 11])),
                min_size=1, max_size=4),
       st.integers(-40, 40), st.sampled_from([1, 11]),
       st.sampled_from([1, -1, 2, 3, 5, 6, 7, 10, 25, Fraction(4, 7)]), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_affine_image_keeps_integer_valued_polynomials(p, finite, draws, t_num, t_den, b, seed):
    # f lies in Int(t + bE, Z_p) exactly when f(b x + t) lies in Int(E, Z_p),
    # b != 0 with v_p(b) >= 0; f is drawn on the image's regular basis with
    # coefficients that are sometimes not p-integral, so both answers occur
    rng = random.Random(seed)
    t, v = Fraction(t_num, t_den), valp(b, p)
    if finite:
        s = CompactSet.from_finite(p, [Fraction(c, d) for c, _, d in draws])
        image = CompactSet.from_finite(p, [t + b * x for x, _ in s.parts])
    else:
        s = CompactSet.from_balls(p, [(c, k) for c, k, _ in draws])
        image = CompactSet.from_balls(
            p, [(residue(t + b * c, p ** (k + v)), k + v) for c, k in s.parts])
    o = p_ordering(image, min(4, image.size() - 1))
    f = poly_sum(basis_rational(o, n).scale(
        Fraction(rng.randrange(-9, 10), p if rng.random() < 0.15 else 1))
        for n in range(len(o.points)))
    assert local_membership(f, image) == local_membership(_compose_affine(f, b, t), s)


def test_length_exceeds_set():
    with pytest.raises(LengthExceedsSet):
        p_ordering(CompactSet.from_finite(2, [1, 2]), 2)


def test_close_points_need_no_precision():
    s = CompactSet.from_finite(2, [0, 2 ** 12])
    assert p_ordering(s, 1).w == (0, 12)


@given(st.sampled_from([2, 3, 5]),
       st.lists(st.tuples(st.integers(-50, 50), st.sampled_from([1, 7, 11, 13]),
                          st.one_of(st.none(), st.integers(1, 20))),
                min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_finite_ordering_matches_greedy_search(p, draws):
    # rational elements, some of them paired with a point p^e away
    elems = set()
    for num, den, e in draws:
        elems.add(Fraction(num, den))
        if e is not None:
            elems.add(Fraction(num, den) + p ** e)
    s = CompactSet.from_finite(p, sorted(elems))
    elems = [x for x, _ in s.parts]
    top = s.size() - 1
    o = p_ordering(s, top)
    # the greedy search decides every step below each element's valuation sum
    n_prec = 1 + max(sum(valp(x - y, p) for y in elems if y != x) for x in elems)
    assert list(o.w) == greedy_finite_ordering(s, n_prec)[1]
    assert sorted(o.points) == elems
    sums = [{y: sum(valp(y - b, p) for b in o.points[:n]) for y in o.points[n:]}
            for n in range(top + 1)]
    assert list(o.w) == [sums[n][a] for n, a in enumerate(o.points)]
    # each point is the least of the remaining elements with the least sum
    assert list(o.w) == [min(sums[n].values()) for n in range(top + 1)]
    assert all(a == min(y for y, v in sums[n].items() if v == o.w[n])
               for n, a in enumerate(o.points))


def test_finite_basis_values_beyond_the_ordering_precision():
    # w(3) = 12 exceeds N = 4, so the basis tables need the points exactly,
    # not modulo p^(N + 2)
    s = CompactSet.from_finite(2, [0, 4096, 1, Fraction(1, 3)])
    o = p_ordering(s, 3)
    assert o.w == (0, 0, 1, 12)
    for x, _ in s.parts:
        assert o.basis_values(x, 3, 4) == [
            residue(basis_rational(o, k)(x), 2 ** 4) for k in range(4)]


def test_w_is_ordering_invariant():
    # any valid p-ordering (greedy from any start) yields the same w
    elems = [0, 1, 2, 5, 8, 9]
    p = 2
    base = oracle_w_finite(elems, p)
    for start in elems:
        pts = [start]
        w = [0]
        rest = [e for e in elems if e != start]
        while rest:
            v, y = min((sum(valp(Fraction(y - a), p) for a in pts), y) for y in rest)
            w.append(v)
            pts.append(y)
            rest.remove(y)
        assert tuple(w) == base


def test_basis_rational_is_triangular():
    o = p_ordering(zp(3), 5)
    for n in range(6):
        f = basis_rational(o, n)
        assert f(Fraction(o.points[n])) == 1
        for k in range(n):
            assert f(Fraction(o.points[k])) == 0


def test_basis_values_are_integral():
    o = p_ordering(CompactSet.from_balls(2, [(1, 2)]), 5)
    for n in range(6):
        f = basis_rational(o, n)
        for r in sorted(residues(o.set, 7)):
            assert valp(f(Fraction(r)), 2) >= 0


def test_product_poly_monic():
    o = p_ordering(zp(2), 4)
    g = product_poly(o, 3)
    assert g.lc() == 1 and g.degree() == 3
    assert g(Fraction(o.points[0])) == 0


def test_rational_lift_properties():
    o = p_ordering(pzp(2), 4)
    for n in range(1, 5):
        lift = rational_lift(o, n)
        w = o.w[n]
        # shape: (monic integer poly with coefficients in [0, 2^w)) / 2^w
        assert lift.lc() == Fraction(1, 2 ** w)
        for c in lift.coeffs[:-1]:
            num = c * 2 ** w
            assert num.denominator == 1 and 0 <= num < 2 ** w
        # congruent to the ordering product modulo 2^w over the integers
        g = product_poly(o, n)
        for cl, cg in zip(lift.coeffs, g.coeffs):
            assert valp(cl * 2 ** w - cg, 2) >= w or cl * 2 ** w == cg
        # maps the set into Z_2
        assert local_membership(lift, o.set)


def test_local_membership():
    s = zp(2)
    assert local_membership(binomial(4), s)
    assert not local_membership(RatPoly.make([Fraction(1, 2)]), s)
    # x^2/2 is integral on 2Z_2 but not on Z_2
    f = RatPoly.make([0, 0, Fraction(1, 2)])
    assert local_membership(f, pzp(2))
    assert not local_membership(f, s)


def _membership_domain(p: int, shape: str, rng: random.Random) -> CompactSet:
    if shape == "zp":
        return zp(p)
    if shape == "balls":
        k = rng.randrange(1, 4)
        return CompactSet.from_balls(
            p, [(c, k) for c in rng.sample(range(p ** k), min(p ** k, rng.randrange(1, 4)))])
    elems = {Fraction(rng.randrange(-60, 61), rng.choice([1, 1, 13]))
             for _ in range(rng.randrange(2, 9))}
    return CompactSet.from_finite(p, sorted(elems))


@given(st.sampled_from([2, 3, 5]), st.sampled_from(["zp", "balls", "finite"]),
       st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_local_membership_matches_fraction_values(p, shape, seed):
    rng = random.Random(seed)
    s = _membership_domain(p, shape, rng)
    # denominators: powers of p, primes other than p, and mixtures of both
    dens = [1, p, p ** 2, p ** 3, 7 * 11, p * 13, p ** 2 * 17]
    for _ in range(8):
        f = RatPoly.make([Fraction(rng.randrange(-30, 31), rng.choice(dens))
                          for _ in range(rng.randrange(1, 8))])
        if valp(f.denominator(), p) == 0:
            assert local_membership(f, s)
        assert local_membership(f, s) == membership_at_points(f, s)


@given(st.sampled_from([2, 3, 5]), st.sampled_from(["zp", "balls", "finite"]),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_lifts_asked_in_any_order_match_fractions(p, shape, seed):
    # a random order of degrees lowers the degree and raises w past the
    # modulus of the running product, so both ways of multiplying out afresh run
    rng = random.Random(seed)
    s = _membership_domain(p, shape, rng)
    top = min(12, s.size() - 1)
    reference = p_ordering(s, top)
    o, pulled = p_ordering(s, top), POrdering(s)

    def pulled_lift(n):
        h = pulled.lift(n)  # integer numerators over p^w(n)
        return RatPoly.over(p ** pulled.w[n], h)

    for n in [rng.randrange(top + 1) for _ in range(15)]:
        expected = rational_lift_by_fractions(reference, n, 64)  # 64 digits: more than w(12)
        assert rational_lift(o, n) == expected
        assert pulled_lift(n) == expected
    with pytest.raises(ValueError):
        rational_lift(o, top + 1)


def test_local_membership_unit_denominator_builds_no_ordering(monkeypatch):
    # the closed form needs no digits, where the greedy search needs more
    # than 3 to decide step 1 here; the two must agree at 32
    s = CompactSet.from_balls(2, [(0, 1), (3, 3)])
    o = p_ordering(s, 12)
    assert (list(o.points), list(o.w)) == greedy_ball_ordering(s, 12, 32)
    f = RatPoly.make([0] * 12 + [Fraction(1, 6)])
    assert local_membership(f, s) is membership_at_points(f, s) is False
    # a denominator prime to 2 decides membership without any ordering
    def no_ordering(*args):
        raise AssertionError("p_ordering called")
    monkeypatch.setattr(padelic.ordering, "p_ordering", no_ordering)
    assert local_membership(RatPoly.make([0, Fraction(5, 7)] + [0] * 10 + [Fraction(1, 3)]),
                            s)


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.tuples(st.integers(0, 7 ** 4), st.integers(0, 4)),
                min_size=1, max_size=3),
       st.integers(0, 25))
@settings(max_examples=100, deadline=None)
def test_ball_ordering_matches_greedy_search(p, balls, length):
    s = CompactSet.from_balls(p, balls)
    o = p_ordering(s, length)
    assert (list(o.points), list(o.w)) == greedy_ball_ordering(s, length)


def test_ball_ordering_needs_no_precision():
    # no precision is asked for, and the steps are those the greedy search
    # decides at 64 digits, far past w(30)
    s = CompactSet.from_balls(3, [(1, 1), (2, 5)])
    o = p_ordering(s, 30)
    assert (list(o.points), list(o.w)) == greedy_ball_ordering(s, 30, 64)
    assert max(o.w) > 1
