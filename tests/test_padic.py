"""p-adic valuations, residues of rationals, and coset residues."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from padelic.padic import INF, residue, valp

PRIMES = [2, 3, 5, 7]

rationals = st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60))


def test_valp_basics():
    assert valp(0, 2) == INF
    assert valp(12, 2) == 2
    assert valp(12, 3) == 1
    assert valp(Fraction(3, 8), 2) == -3
    assert valp(Fraction(-9, 5), 3) == 2


@given(st.sampled_from(PRIMES), st.integers(-10**6, 10**6).filter(bool),
       st.integers(-10**6, 10**6).filter(bool))
def test_valp_multiplicative(p, a, b):
    assert valp(Fraction(a) * Fraction(b), p) == valp(a, p) + valp(b, p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valp_rejects_modulus_below_two(p):
    with pytest.raises(ValueError):
        valp(5, p)


def test_embed_and_residue():
    x = residue(6, 2 ** 5)
    assert (x, valp(x, 2)) == (6, 1)
    assert valp(residue(0, 2 ** 4), 2) == INF


def test_embed_rational():
    # 1/3 in Z_2: 3 * residue = 1 mod 2^6
    x = residue(Fraction(1, 3), 2 ** 6)
    assert valp(x, 2) == 0
    assert 3 * x % 64 == 1


def test_mul_div():
    assert residue(Fraction(6) * 10, 2 ** 7) == 60
    assert residue(Fraction(1, 3), 16) == 11  # 3 * 11 = 33 = 1 mod 16
    assert residue(Fraction(-7, 3), 1) == 0
    with pytest.raises(ValueError):
        residue(Fraction(1, 2), 16)  # 2 is not a unit mod 16


@given(st.sampled_from(PRIMES), rationals, rationals, st.integers(0, 10))
def test_add_agrees_with_integers(p, a, b, n):
    assume(a.denominator % p and b.denominator % p)
    mod = p ** n
    assert residue(a + b, mod) == (residue(a, mod) + residue(b, mod)) % mod
    assert residue(a - b, mod) == (residue(a, mod) - residue(b, mod)) % mod


@given(st.sampled_from(PRIMES), rationals, rationals, st.integers(0, 10))
def test_mul_agrees_with_integers(p, a, b, n):
    assume(a.denominator % p and b.denominator % p)
    mod = p ** n
    assert residue(a * b, mod) == residue(a, mod) * residue(b, mod) % mod
    assert 0 <= residue(a, mod) < mod


def test_padic_int_roundtrip():
    x = residue(Fraction(7, 5), 3 ** 4)
    assert 5 * x % 81 == 7 % 81
    assert valp(x, 3) == 0
    with pytest.raises(ValueError):
        residue(Fraction(1, 3), 3 ** 4)  # 3 is not a unit mod 81
