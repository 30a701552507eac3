"""Characteristic modules, coefficientwise CRT, and global regular bases.

The basis is built in integers, one degree n at a time.  The primes with
w_p(n) > 0 are those of the characteristic ideal: the tracked primes whose
component meets at most n classes mod p (a p-ordering takes a new class at
each step while one is left) and ``AdelicSet.untracked_primes``.  Each gives
its lift h_n, integer numerators over p^w(n); ``crt_combine`` glues the
parts (p, 1, w_p(n), h_n) into F / D, D = prod_p p^w_p(n), and a Bezout
step on the top numerator makes the leading coefficient exactly 1/D.  Only
the finished polynomial becomes a ``RatPoly``.  One ``POrdering`` per prime
serves every degree of a call.  No precision is involved: a lift keeps g_n
modulo a power of p that grows with w(n), so the ideal and the basis are
exact at every degree.

The output is that of a CRT over Q that clears each coefficient's
denominators by a scale S of its own, a divisor of D.  Write D = T S with
v_p(T) = j at a part prime p.  If c S = r'' modulo p^(k + v_p(S)), then
T c S = T r'' modulo p^(k + v_p(S) + j) = p^(k + v_p(D)), and
0 <= T r'' < T prod_p p^(k + v_p(S)); so the residue over D is r' = T r''
and r' / D = r'' / S.  The top numerator is prime to D, so the leading
coefficient F_n / D is already reduced and ``_xgcd`` returns the Bezout
pair of the reduced Fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import FactorLimitExceeded, NotFinitelyGenerated, SetTooSmall
from .ordering import POrdering, local_membership
from .polys import RatPoly, horner
from .sets import AdelicSet
from .utils import strip_primes

#: Largest trial divisor of ``_prime_factors``: a number whose part left after
#: removing the factors up to this bound exceeds its square is refused.
FACTOR_BOUND = 1 << 20


@dataclass(frozen=True)
class CharIdeal:
    """Degree-n characteristic module: (1/D) Z with D = prod p^np, or not f.g."""

    degree: int
    factored: Optional[Dict[int, int]] = None  # prime -> np, only np > 0
    witness: Optional[str] = None  # description when not finitely generated

    def is_fractional(self) -> bool:
        return self.factored is not None

    def denominator(self) -> int:
        if not self.is_fractional():
            raise NotFinitelyGenerated(self.witness)
        return prod(p ** e for p, e in self.factored.items())


@dataclass(frozen=True)
class BasisFamily:
    """Regular basis polys[n] (degree n) of the integer-valued polynomials on a set."""

    polys: Tuple[RatPoly, ...]


class _Locals(dict):
    """prime -> the POrdering of the set's component there, made on first use."""

    def __init__(self, a: AdelicSet):
        super().__init__()
        self.set = a

    def __missing__(self, p: int) -> POrdering:
        out = self[p] = POrdering(self.set.component(p))
        return out


def char_ideal(a: AdelicSet, n: int) -> CharIdeal:
    """The degree-n characteristic module of the set, as a factored fractional ideal."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _char_ideal(a, n, _Locals(a))


def _char_ideal(a: AdelicSet, n: int, local: _Locals) -> CharIdeal:
    untracked = a.untracked_primes(n)
    if untracked is None:
        return CharIdeal(degree=n, witness=(
            "every untracked prime contributes w_p(%d) >= 1 on pZ_p" % n))
    factored = {p: a.untracked_w(p, n) for p in untracked}
    for p in sorted(a.tracked):
        size = a.tracked[p].size()
        if size <= n:
            raise SetTooSmall(f"component at {p} has {size} elements, degree {n} needs more")
        factored[p] = local[p].extend(n).w[n]
    return CharIdeal(degree=n, factored={p: w for p, w in sorted(factored.items()) if w})


def crt_combine(parts: Sequence[Tuple[int, int, int, Sequence[int]]]) -> Tuple[int, List[int]]:
    """(D, F): one polynomial F/D congruent to each part modulo p^k in Z_(p)[x].

    Each part is (p, k, w, num), the polynomial num/p^w with integer
    numerators num, lowest degree first.  D = prod p^w, so v_p(D) = w at a
    part prime p and F/D is q-integral at every other prime q; F/D is the
    part modulo p^k exactly when F = num D/p^w modulo p^(k + w).  No
    valuation is read.  Each F_i is the least non-negative numerator over D,
    so the output is deterministic.
    """
    if not parts:
        return 1, []
    primes = [p for p, _, _, _ in parts]
    if len(set(primes)) != len(primes):
        raise ValueError("part primes must be distinct")
    big_d = prod(p ** w for p, _, w, _ in parts)
    mods = [p ** (k + w) for p, k, w, _ in parts]
    big_m = prod(mods)
    # F_i = sum of num_i * coef mod M, coef = D/p^w modulo the part's
    # p^(k + w) and 0 modulo every other part's
    coefs = []
    for (p, _, w, _), m in zip(parts, mods):
        rest = big_m // m
        coefs.append(big_d // p ** w * rest * pow(rest, -1, m) % big_m)
    width = max(len(num) for _, _, _, num in parts)
    return big_d, [sum(c * num[i] for c, (_, _, _, num) in zip(coefs, parts) if i < len(num))
                   % big_m for i in range(width)]


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def regular_basis(a: AdelicSet, max_degree: int) -> BasisFamily:
    """Z-basis with one polynomial of each degree up to max_degree."""
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    local = _Locals(a)
    polys: List[RatPoly] = []
    for n in range(max_degree + 1):
        ideal = _char_ideal(a, n, local)
        if not ideal.is_fractional():
            raise NotFinitelyGenerated(ideal.witness)
        if not ideal.factored:
            polys.append(RatPoly.x_power(n))
            continue
        den, f_n = crt_combine([(p, 1, w, local[p].lift(n))
                                for p, w in ideal.factored.items()])
        # Bezout step: the lifts are monic over p^w, so the top numerator is
        # prime to D and u F + v D x^n has top numerator exactly 1 (the pair
        # (u, v) from _xgcd fixes the output; another pair changes every poly)
        g, u, v = _xgcd(f_n[n], den)
        assert g == 1 and len(f_n) == n + 1 and den == ideal.denominator()
        f_n = [c * u for c in f_n]
        f_n[n] += v * den
        polys.append(RatPoly.over(den, f_n))
    return BasisFamily(polys=tuple(polys))


def global_membership(f: RatPoly, a: AdelicSet) -> bool:
    """Whether f is integer-valued on the whole adelic set.

    Tracked primes use the p-ordering value criterion.  Untracked primes only
    matter when they divide a coefficient denominator.  With f = F/D, F
    integral, the binomial-basis coefficients of f are Delta^n F(0) / D,
    n <= deg f, so a Z_p default fails exactly at the primes dividing
    D / gcd(D, Delta^n F(0) for every n).  The forward differences and the
    values F(0..deg) are related by a unimodular integer matrix, so that gcd
    is gcd(D, F(0), ..., F(deg)).  The tracked primes are divided out of the
    quotient and any factor left is a failure; nothing is factored.  A pZ_p
    default is checked directly at each untracked prime of the denominator.
    """
    if f.is_zero():
        return True
    for p, comp in a.tracked.items():
        if not local_membership(f, comp):
            return False
    if not a.shift:
        den, num = f.integer_form()
        if strip_primes(den, a.tracked) == 1:
            return True
        values = (horner(num, x) for x in range(len(num)))  # F(0..deg)
        return strip_primes(den // gcd(den, *values), a.tracked) == 1
    for p in _prime_factors(f.denominator()) - set(a.tracked):
        if not local_membership(f, a.component(p)):
            return False
    return True


def _prime_factors(n: int) -> set:
    """The prime factors of n by trial division up to FACTOR_BOUND.

    Raises FactorLimitExceeded when what is left of n after the divisors up
    to the bound exceeds FACTOR_BOUND^2, i.e. might be composite.
    """
    out = set()
    d = 2
    while d * d <= n:
        if d > FACTOR_BOUND:
            raise FactorLimitExceeded(
                f"cofactor {n} has no factor up to {FACTOR_BOUND}; not factored")
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out
