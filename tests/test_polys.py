"""Exact rational polynomials: algebra, binomial transforms, parsing."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from padelic.padic import valp
from padelic.polys import (MAX_POLY_DEGREE, RatPoly, format_poly, horner, horner_mod,
                           parse_poly)

from oracles import binomial_coeffs, min_valuation_on_zp

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
polys = st.builds(RatPoly.make, st.lists(rationals, min_size=0, max_size=6))


def test_binomial_polynomial():
    b3 = RatPoly.binomial(3)  # x(x-1)(x-2)/6
    assert b3(Fraction(5)) == Fraction(10)
    assert b3.lc() == Fraction(1, 6)
    assert all(b3(Fraction(n)) == math.comb(n, 3) for n in range(10))


def test_degree_and_lc():
    assert RatPoly.zero().degree() == -1
    assert RatPoly.make([1, 0, 0]).degree() == 0
    assert RatPoly.x_power(4, Fraction(2, 3)).lc() == Fraction(2, 3)


@given(polys, polys, rationals)
def test_ring_axioms_at_a_point(f, g, x):
    assert (f * g)(x) == f(x) * g(x)


def test_binomial_coeffs_are_finite_differences():
    f = RatPoly.make([1, 0, 1])  # x^2 + 1
    # nth finite difference at 0: 1, 1, 2, 0, ...
    assert binomial_coeffs(f, 5) == [Fraction(1), Fraction(1), Fraction(2),
                                     Fraction(0), Fraction(0)]


@given(polys.filter(lambda f: not f.is_zero()), st.sampled_from([2, 3, 5]))
def test_min_valuation_on_zp_is_sharp(f, p):
    v = min_valuation_on_zp(f, p)
    # achieved on integers 0..deg, never beaten there
    vals = [valp(f(Fraction(n)), p) for n in range(f.degree() + 2)]
    assert min(vals) >= v
    # sharpness: some binomial coefficient realizes it
    assert v in [valp(c, p) for c in binomial_coeffs(f, f.degree() + 1) if c]


def test_parse_format_roundtrip_examples():
    for text in ["1/2*x^2 - 1/2*x", "x", "-x^3 + 2", "0", "3/4"]:
        f = parse_poly(text)
        assert parse_poly(format_poly(f)) == f


@given(polys)
def test_parse_format_roundtrip(f):
    assert parse_poly(format_poly(f)) == f


@pytest.mark.parametrize("text", ["x^-1+1", "x^-2", "0.5*x", "1e2*x", "x^1.5", "1/0*x",
                                  "2x", "x^", "y", "1/2/3*x", "2**x"])
def test_parse_rejects_outside_grammar(text):
    with pytest.raises(ValueError):
        parse_poly(text)


@given(polys, st.integers(-20, 20), st.integers(2, 50))
def test_horner_evaluates_the_integer_form(f, x, mod):
    # one coefficient order, lowest degree first: over() reads back what
    # integer_form() writes, and both Horner forms read the same list
    den, num = f.integer_form()
    assert RatPoly.over(den, num) == f
    assert horner(num, x) == f(x) * den
    assert horner_mod(num, x, mod) == f(x) * den % mod


def test_denominator():
    f = RatPoly.make([Fraction(1, 6), Fraction(3, 4)])
    assert f.denominator() == 12
    assert RatPoly.zero().denominator() == 1


def test_parse_poly_caps_the_power_of_each_term():
    assert MAX_POLY_DEGREE == 256
    assert parse_poly("1/3*x^256+1/2*x").degree() == 256
    assert parse_poly("x^200*x^56").degree() == 256
    for text in ("x^257", "x^200*x^57 + 1", "1 - 2*x^100000000"):
        with pytest.raises(ValueError, match="exceeds the cap"):
            parse_poly(text)
