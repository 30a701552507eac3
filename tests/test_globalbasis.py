"""Characteristic modules, coefficientwise CRT, and the global Z-basis."""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import padelic.ordering
from padelic.errors import FactorLimitExceeded, NotFinitelyGenerated, PadelicError
from padelic.globalbasis import (FACTOR_BOUND, _prime_factors, char_ideal, crt_combine,
                                 global_membership, regular_basis)
from padelic.ordering import local_membership
from padelic.padic import valp
from padelic.polys import RatPoly
from padelic.sets import FULL, PZP, AdelicSet, CompactSet, parse_adelic

from oracles import (binomial, crt_combine_by_fractions, membership_by_binomial_lcm,
                     membership_by_factoring, poly_sum, pzp, regular_basis_per_degree, zp)

ZHAT = AdelicSet(tracked={}, default=FULL)


def test_char_ideal_default_full_is_factorial():
    for n in range(9):
        ideal = char_ideal(ZHAT, n)
        assert ideal.is_fractional()
        assert ideal.denominator() == math.factorial(n)


def test_char_ideal_pzp_not_finitely_generated():
    a = AdelicSet(tracked={}, default=PZP)
    assert char_ideal(a, 0).is_fractional()
    for n in range(1, 6):
        ideal = char_ideal(a, n)
        assert not ideal.is_fractional()
        with pytest.raises(NotFinitelyGenerated):
            ideal.denominator()


def test_char_ideal_tracked_component():
    # 2Z_2 tracked: w = [0,1,3,4,...], other primes from Legendre
    a = AdelicSet(tracked={2: pzp(2)}, default=FULL)
    ideal = char_ideal(a, 3)
    assert ideal.factored == {2: 4, 3: 1}


def _part(p: int, k: int, f: RatPoly):
    """f, whose denominator is a power of p, as a CRT part (p, k, w, num)."""
    den, num = f.integer_form()
    w = valp(den, p)
    assert den == p ** w
    return p, k, w, num


def test_crt_combine_congruences():
    f2 = RatPoly.make([1, Fraction(5, 8)])
    f3 = RatPoly.make([2, Fraction(1, 3), 1])
    out = RatPoly.over(*crt_combine([_part(2, 3, f2), _part(3, 2, f3)]))
    for i in range(3):
        c2 = f2.coeffs[i] if i <= f2.degree() else Fraction(0)
        c3 = f3.coeffs[i] if i <= f3.degree() else Fraction(0)
        assert valp(out.coeffs[i] - c2, 2) >= 3
        assert valp(out.coeffs[i] - c3, 3) >= 2
        # integral at every other prime
        assert all(out.coeffs[i].denominator % q for q in (5, 7, 11, 13))


def test_crt_combine_handles_negative_valuations():
    f2 = RatPoly.make([Fraction(3, 4)])  # v_2 = -2
    f3 = RatPoly.make([Fraction(1, 9)])  # v_3 = -2
    out = RatPoly.over(*crt_combine([_part(2, 2, f2), _part(3, 1, f3)]))
    assert valp(out.coeffs[0] - Fraction(3, 4), 2) >= 2
    assert valp(out.coeffs[0] - Fraction(1, 9), 3) >= 1


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.integers(-8, 8), min_size=1, max_size=3),
       st.lists(st.integers(-8, 8), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_crt_combine_random_parts(w2, w3, k2, k3, c2, c3):
    f2, f3 = RatPoly.over(2 ** w2, c2), RatPoly.over(3 ** w3, c3)
    out = RatPoly.over(*crt_combine([(2, k2, w2, c2), (3, k3, w3, c3)]))
    def coeff(f, i):
        return f.coeffs[i] if i <= f.degree() else Fraction(0)

    for i in range(max(f2.degree(), f3.degree()) + 1):
        assert valp(coeff(out, i) - coeff(f2, i), 2) >= k2
        assert valp(coeff(out, i) - coeff(f3, i), 3) >= k3


@given(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=2, max_size=3, unique=True),
       st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_crt_combine_matches_fraction_crt(primes, seed):
    rng = random.Random(seed)
    parts = []
    for p in primes:
        num = [rng.choice([0, rng.randrange(-10 ** 6, 10 ** 6)])
               for _ in range(rng.choice([0, 1, 2, 5, 9]))]
        parts.append((p, rng.randrange(1, 5), rng.choice([0, 0, 1, 2, 3]), num))
    big_d, f = crt_combine(parts)
    expected = crt_combine_by_fractions(
        [(p, k, RatPoly.over(p ** w, num)) for p, k, w, num in parts])
    assert RatPoly.over(big_d, f) == expected
    assert big_d == math.prod(p ** w for p, _, w, _ in parts)
    modulus = math.prod(p ** (k + w) for p, k, w, _ in parts)
    assert all(0 <= c < modulus for c in f)


def test_crt_combine_reads_no_valuation():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
    parts = [(p, 2, 3, list(range(1, 31))) for p in (2, 3, 5)]
    sys.setprofile(profile)
    try:
        crt_combine(parts)
    finally:
        sys.setprofile(None)
    assert crt_combine.__code__ in called and valp.__code__ not in called


def test_regular_basis_binomial_denominators():
    fam = regular_basis(ZHAT, 8)
    for n, f in enumerate(fam.polys):
        assert f.degree() == n
        assert f.lc() == Fraction(1, math.factorial(n))
        assert global_membership(f, ZHAT)


def test_regular_basis_tracked_pzp():
    a = AdelicSet(tracked={2: pzp(2)}, default=FULL)
    fam = regular_basis(a, 5)
    for n, f in enumerate(fam.polys):
        d = char_ideal(a, n).denominator()
        assert abs(f.lc()) == Fraction(1, d)
        assert local_membership(f, pzp(2))
        assert global_membership(f, a)


def test_regular_basis_pzp_default_fails():
    with pytest.raises(NotFinitelyGenerated):
        regular_basis(AdelicSet(tracked={}, default=PZP), 2)


def test_global_membership():
    assert global_membership(binomial(6), ZHAT)
    assert not global_membership(RatPoly.make([0, Fraction(1, 2)]), ZHAT)
    # x^2/2 integer-valued when the 2-component is 2Z_2
    a = AdelicSet(tracked={2: pzp(2)}, default=FULL)
    assert global_membership(RatPoly.make([0, 0, Fraction(1, 2)]), a)


def random_binomial_poly(rng: random.Random, tracked, max_den: int,
                         max_degree: int = 3) -> RatPoly:
    """sum b_k binom(x, k) whose denominators are random, tracked-only or 1."""
    terms = []
    for k in range(rng.randrange(1, max_degree + 2)):
        kind = rng.randrange(3)
        if kind == 0:
            den = rng.randrange(1, max_den)
        elif kind == 1:
            den = math.prod(p ** rng.randrange(3) for p in tracked)
        else:
            den = 1
        terms.append(binomial(k).scale(Fraction(rng.randrange(-50, 51), den)))
    return poly_sum(terms)


@given(st.sampled_from([FULL, PZP]), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_global_membership_matches_factoring_oracle(default, seed):
    rng = random.Random(seed)
    tracked = {p: rng.choice([zp(p), pzp(p),
                              CompactSet.from_balls(p, [(1, 1)])])
               for p in rng.sample([2, 3, 5, 7], rng.randrange(0, 4))}
    a = AdelicSet(tracked=tracked, default=default)
    f = random_binomial_poly(rng, tracked, 10 ** 6 if default == FULL else 10 ** 4)
    assert global_membership(f, a) == membership_by_factoring(f, a)


@given(st.integers(0, 12), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_zp_default_membership_matches_binomial_lcm(max_degree, seed):
    # the integer values of F/D against the Fraction binomial coefficients
    rng = random.Random(seed)
    tracked = {p: rng.choice([pzp(p), CompactSet.from_balls(p, [(1, 1)])])
               for p in rng.sample([2, 3, 5, 7], rng.randrange(0, 3))}
    a = AdelicSet(tracked=tracked, default=FULL)
    f = random_binomial_poly(rng, tracked, 10 ** 6, max_degree)
    if rng.randrange(2):  # a monomial-basis perturbation, mostly not integer-valued
        f = poly_sum([f, RatPoly.x_power(rng.randrange(max_degree + 1),
                                         Fraction(1, rng.randrange(1, 50)))])
    assert global_membership(f, a) == membership_by_binomial_lcm(f, a)


def test_prime_factors_refuses_beyond_the_bound():
    big = 10 ** 42 + 63  # prime
    with pytest.raises(FactorLimitExceeded):
        _prime_factors(big)
    q = 1099511627689  # a prime just below 2^40 factors within the bound
    assert q < FACTOR_BOUND ** 2
    assert _prime_factors(6 * q) == {2, 3, q}


@st.composite
def tracked_components(draw):
    """Z-hat with 1-3 tracked ball unions or finite sets at primes up to 7."""
    tracked = {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3,
                           unique=True)):
        if draw(st.booleans()):
            balls = draw(st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 3)),
                                  min_size=1, max_size=3))
            tracked[p] = CompactSet.from_balls(p, [(c % p ** k, k) for c, k in balls])
        else:
            elems = draw(st.lists(
                st.tuples(st.integers(-300, 300), st.integers(1, 9).filter(lambda d: d % p)),
                min_size=1, max_size=12))
            tracked[p] = CompactSet.from_finite(p, [Fraction(a, d) for a, d in elems])
    return AdelicSet(tracked=tracked, default=FULL)


def _outcome(build):
    try:
        return build().polys
    except PadelicError as exc:
        return type(exc), str(exc)


@given(tracked_components(), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_regular_basis_matches_per_degree_oracle(a, degree):
    # the same polynomials, or the same error from the same degree and prime;
    # the oracle keeps 64 digits, more than any w here needs
    assert _outcome(lambda: regular_basis(a, degree)) == _outcome(
        lambda: regular_basis_per_degree(a, degree, 64))


def test_regular_basis_runs_one_search_per_prime(monkeypatch):
    searches = []
    for name in ("_ordering_steps",):
        def counted(s, search=getattr(padelic.ordering, name)):
            searches.append(s.prime)
            return search(s)
        monkeypatch.setattr(padelic.ordering, name, counted)
    a = parse_adelic("default=Zp; p=2; balls: 0+p^1, 3+p^3; p=5; balls: 1+p^1; p=3; finite: "
                     + ", ".join(str(i) for i in range(30)))
    regular_basis(a, 24)
    assert sorted(searches) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
