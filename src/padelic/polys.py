"""Dense univariate polynomials over Q with exact Fraction coefficients."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import List, Sequence, Tuple

from .padic import Rat


@dataclass(frozen=True)
class RatPoly:
    """Polynomial sum(coeffs[i] * x^i) with no trailing zero leading coefficient."""

    coeffs: Tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs: Sequence[Rat]) -> "RatPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def over(cls, den: int, nums: Sequence[int]) -> "RatPoly":
        """The polynomial with integer numerators nums (lowest degree first) over den."""
        return cls.make([Fraction(c, den) for c in nums])

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def constant(cls, c: Rat) -> "RatPoly":
        return cls.make([c])

    @classmethod
    def x_power(cls, n: int, c: Rat = 1) -> "RatPoly":
        return cls.make([0] * n + [c])

    @classmethod
    def binomial(cls, n: int) -> "RatPoly":
        """The binomial polynomial x(x-1)...(x-n+1)/n!."""
        poly = cls.constant(1)
        for k in range(n):
            poly = poly * cls.make([-k, 1])
        return poly * cls.constant(Fraction(1, factorial(n)))

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if self.is_zero() or other.is_zero():
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly.make(out)

    def scale(self, c: Rat) -> "RatPoly":
        return RatPoly.make([Fraction(c) * a for a in self.coeffs])

    def denominator(self) -> int:
        """Least common denominator of the coefficients."""
        d = 1
        for c in self.coeffs:
            d = d * c.denominator // gcd(d, c.denominator)
        return d

    def integer_form(self) -> Tuple[int, List[int]]:
        """(D, F): the least common denominator D and the integer coefficients
        of D * f, lowest degree first, so ``RatPoly.over(D, F)`` is f."""
        d = self.denominator()
        return d, [c.numerator * (d // c.denominator) for c in self.coeffs]

    def __str__(self):
        return format_poly(self)


def horner(coeffs: Sequence[int], x: int) -> int:
    """The integer polynomial with coefficients lowest degree first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_mod(coeffs: Sequence[int], x: int, mod: int) -> int:
    """The integer polynomial with coefficients lowest degree first, at x, mod mod."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


# ---------------------------------------------------------------------------
# tiny infix grammar: terms "a/b*x^n" joined by + and -

#: Largest power of x that ``parse_poly`` accepts: it builds one coefficient
#: per degree, and membership tests take forward differences of its values.
#: The CLI caps ``--degree`` at it and ``--length`` at one point more.
MAX_POLY_DEGREE = 256

_COEFF = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
_POWER = re.compile(r"x(\^[0-9]+)?")


def parse_poly(text: str) -> RatPoly:
    """Parse e.g. ``1/2*x^2 - 1/2*x + 3``.

    Factors are integers, ``a/b`` fractions and powers ``x^n`` with n >= 0;
    anything else (floats, negative exponents) and a term of power above
    MAX_POLY_DEGREE raise ValueError.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = []
    start = 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > start and text[i - 1] not in "+-*/^":
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    coeffs = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError("dangling sign in polynomial")
        coeff = Fraction(1)
        power = 0
        for factor in term.split("*"):
            if _POWER.fullmatch(factor):
                power += int(factor[2:]) if factor != "x" else 1
            elif _COEFF.fullmatch(factor):
                coeff *= Fraction(factor)
            else:
                raise ValueError(f"cannot parse factor {factor!r}")
        if power > MAX_POLY_DEGREE:
            raise ValueError(f"power x^{power} exceeds the cap x^{MAX_POLY_DEGREE}")
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
    n = max(coeffs) + 1
    return RatPoly.make([coeffs.get(i, Fraction(0)) for i in range(n)])


def format_poly(f: RatPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for n in range(f.degree(), -1, -1):
        c = f.coeffs[n]
        if c == 0:
            continue
        mag = abs(c)
        if n == 0:
            body = str(mag)
        else:
            xpart = "x" if n == 1 else f"x^{n}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
