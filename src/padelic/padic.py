"""Exact rationals, p-adic valuations, and residues modulo p^N.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms,
positive denominator), so gcd/canonical-form bookkeeping comes for free.
Truncation only ever happens modulo p^N: ``residue`` reduces a p-integral
rational to the coset ``residue + p^N Z_p``, and every caller keeps its N
beside it, so no digit beyond it is ever claimed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

#: Valuation of zero (and of "zero to working precision").
INF = math.inf

Rat = Union[int, Fraction]

#: Working precision in p-adic digits when no ``--precision`` is given.
DEFAULT_PRECISION = 32


def valp(x: Rat, p: int):
    """p-adic valuation of a rational; INF for zero."""
    if p < 2:
        raise ValueError(f"valuation at {p} is undefined")
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def residue(x: Rat, mod: int) -> int:
    """Canonical residue in [0, mod) of a rational whose denominator is prime to mod."""
    return x.numerator * pow(x.denominator, -1, mod) % mod
