"""Characteristic modules, coefficientwise CRT, and global regular bases.

The basis construction follows the local-to-global recipe: for each degree n
collect the finitely many primes whose component meets at most n residues
modulo p, CRT-combine the local rational lifts modulo p, then apply a Bezout
adjustment so the leading coefficient is exactly 1 over the factorial-like
denominator.  One ``POrdering`` per prime serves every degree of a call: the
ordering and the product polynomial are extended, never rebuilt.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import FactorLimitExceeded, NotFinitelyGenerated, SetTooSmall
from .ordering import POrdering, local_membership
from .padic import DEFAULT_PRECISION, residue, valp
from .polys import RatPoly
from .sets import FULL, PZP, AdelicSet, CompactSet, count_mod_p
from .utils import primes_up_to, strip_primes, v_of_factorial

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
        d = 1
        for p, e in self.factored.items():
            d *= p ** e
        return d


@dataclass(frozen=True)
class BasisFamily:
    """Regular basis polys[n] (degree n) of the integer-valued polynomials on a set."""

    set: AdelicSet
    polys: Tuple[RatPoly, ...]


class _Locals(dict):
    """prime -> the POrdering of the set's component there, made on first use."""

    def __init__(self, a: AdelicSet, n_prec: int):
        super().__init__()
        self.set, self.precision = a, n_prec

    def __missing__(self, p: int) -> POrdering:
        out = self[p] = POrdering(self.set.component(p), self.precision)
        return out


def _component_w(a: AdelicSet, p: int, n: int, local: _Locals) -> int:
    """w_p(n) of the component at p; Legendre's formula for an untracked Z_p."""
    if p not in a.tracked and a.default == FULL:
        return v_of_factorial(n, p)
    comp = a.component(p)
    if comp.is_finite() and len(comp.finite) <= n:
        raise SetTooSmall(
            f"component at {p} has {len(comp.finite)} elements, degree {n} needs more")
    return local[p].extend(n).w[n]


def char_ideal(a: AdelicSet, n: int, n_prec: int = None) -> CharIdeal:
    """The degree-n characteristic module of the set, as a factored fractional ideal."""
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _char_ideal(a, n, _Locals(a, n_prec))


def _char_ideal(a: AdelicSet, n: int, local: _Locals) -> CharIdeal:
    if a.default == PZP and n >= 1:
        return CharIdeal(degree=n, witness=(
            "every untracked prime contributes w_p(%d) >= 1 on pZ_p" % n))
    primes = set(a.tracked)
    if a.default == FULL:
        primes.update(primes_up_to(n))
    factored = {}
    for p in sorted(primes):
        w = _component_w(a, p, n, local)
        if w:
            factored[p] = w
    return CharIdeal(degree=n, factored=factored)


def crt_combine(parts: Sequence[Tuple[int, int, RatPoly]]) -> RatPoly:
    """One rational polynomial congruent to each part modulo p^k in Z_(p)[x].

    Each part is (p, k, f_p); the result f satisfies f = f_p + p^k * Z_(p)[x]
    for every part and has q-integral coefficients at all other primes.  Least
    non-negative numerators are chosen, so the output is deterministic.
    """
    if not parts:
        return RatPoly.zero()
    primes = [p for p, _, _ in parts]
    if len(set(primes)) != len(primes):
        raise ValueError("part primes must be distinct")
    width = max(f.degree() + 1 for _, _, f in parts)
    out: List[Fraction] = []
    for i in range(width):
        cs = {p: (f.coeffs[i] if i <= f.degree() else Fraction(0)) for p, _, f in parts}
        # clear part-prime denominators with a single scaling factor
        exps = {p: max(0, max(-valp(c, p) if c else 0 for c in cs.values()))
                for p in primes}
        scale = 1
        for p in primes:
            scale *= p ** exps[p]
        r, modulus = 0, 1
        for p, k, _ in parts:
            m = p ** (k + exps[p])
            t = residue(cs[p] * scale, m)
            x = pow(modulus, -1, m)
            r = (r + (t - r) * x % m * modulus) % (modulus * m)
            modulus *= m
        out.append(Fraction(r, scale))
    return RatPoly.make(out)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def basis_prime_set(a: AdelicSet, n: int) -> List[int]:
    """Primes whose component meets at most n residues modulo p."""
    out = [p for p in a.tracked if count_mod_p(a.tracked[p]) <= n]
    if a.default == FULL:
        out.extend(p for p in primes_up_to(n) if p not in a.tracked)
    elif n >= 1:
        raise NotFinitelyGenerated("pZ_p default fails #(E_p mod p) > n at every untracked prime")
    return sorted(out)


def regular_basis(a: AdelicSet, max_degree: int, n_prec: int = None) -> BasisFamily:
    """Z-basis with one polynomial of each degree up to max_degree."""
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    local = _Locals(a, n_prec)
    polys: List[RatPoly] = []
    for n in range(max_degree + 1):
        ideal = _char_ideal(a, n, local)
        if not ideal.is_fractional():
            raise NotFinitelyGenerated(ideal.witness)
        p_set = basis_prime_set(a, n)
        if not p_set:
            polys.append(RatPoly.x_power(n))
            continue
        parts = [(p, 1, local[p].lift(n)) for p in p_set]
        f_n = crt_combine(parts)
        assert f_n.degree() == n  # lifts are monic/p^w, so the top residue is a unit
        # Bezout step: move the leading coefficient to exactly 1/b (the pair
        # (u, v) from _xgcd fixes the output; another pair changes every poly)
        c = f_n.lc()
        aa, b = c.numerator, c.denominator
        g, u, v = _xgcd(aa, b)
        assert g == 1
        g_n = f_n.scale(u) + RatPoly.x_power(n, v)
        assert g_n.lc() == Fraction(1, b) and b == ideal.denominator()
        polys.append(g_n)
    return BasisFamily(set=a, polys=tuple(polys))


def global_membership(f: RatPoly, a: AdelicSet, n_prec: int = None) -> bool:
    """Whether f is integer-valued on the whole adelic set.

    Tracked primes use the p-ordering value criterion.  Untracked primes only
    matter when they divide a coefficient denominator.  A Z_p default fails
    exactly at the primes dividing a denominator of a binomial-basis
    coefficient (those divide the coefficient denominator too), so the tracked
    primes are divided out of their lcm and any factor left is a failure;
    nothing is factored.  A pZ_p default is checked directly at each untracked
    prime of the denominator.
    """
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    if f.is_zero():
        return True
    for p, comp in a.tracked.items():
        if not local_membership(f, comp, n_prec):
            return False
    if a.default == FULL:
        if strip_primes(f.denominator(), a.tracked) == 1:
            return True
        den = lcm(*(b.denominator for b in f.binomial_coeffs()))
        return strip_primes(den, a.tracked) == 1
    for p in _prime_factors(f.denominator()) - set(a.tracked):
        if not local_membership(f, CompactSet.pzp(p), n_prec):
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
