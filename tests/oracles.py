"""Slow reference algorithms that the tests compare the library against.

Each is an earlier, more direct implementation of something the library now
computes another way, or an independent way to check it; none of them is used
by ``src/``.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, factorial, isqrt, lcm
from typing import Iterable, List, Sequence, Tuple

from padelic.adelic import AdelicOrdering
from padelic.approx import ApproxRequest
from padelic.errors import NotFinitelyGenerated, PrecisionExhausted, SetTooSmall
from padelic.globalbasis import BasisFamily, _xgcd
from padelic.mahler import MahlerSeries, StepFunction
from padelic.ordering import (POrdering, basis_rational, local_membership, p_ordering,
                              product_poly)
from padelic.padic import DEFAULT_PRECISION, INF, residue, valp
from padelic.polys import RatPoly, horner_mod
from padelic.sets import FULL, PZP, AdelicSet, CompactSet, count_residues, residues
from padelic.utils import primes_up_to, strip_primes, v_of_factorial


def zp(p: int) -> CompactSet:
    """All of Z_p, the ball 0 + p^0 Z_p."""
    return CompactSet.from_balls(p, [(0, 0)])


def pzp(p: int) -> CompactSet:
    """The ball pZ_p."""
    return CompactSet.from_balls(p, [(0, 1)])


def certify_by_differences(s: MahlerSeries, phi: StepFunction) -> bool:
    """The forward-difference certificate: every Mahler coefficient of
    phi(c) - S(c + p^d t), t = 0..top, vanishes mod p^N on each class c mod p^d."""
    p, small = phi.prime, phi.prime ** s.precision
    top = s.length() - 1
    o, domain = s.ordering, phi.domain
    if domain.size() != INF:
        for e, _ in domain.parts:
            fvals = o.basis_values(e, top, s.precision)
            total = sum(ck * fk for ck, fk in zip(s.coeffs, fvals)) % small
            if (total - phi.value_at(e)) % small:
                return False
        return True
    depth = max(phi.modulus_exp, domain.max_ball_exponent())
    step = p ** depth
    for c in residues(domain, depth):
        target = phi.table[c % p ** phi.modulus_exp]
        diffs = []
        for i in range(top + 1):
            fvals = o.basis_values(c + step * i, top, s.precision)
            total = sum(ck * fk for ck, fk in zip(s.coeffs, fvals))
            diffs.append((target - total) % small)
        for _ in range(top + 1):
            if diffs[0] % small:
                return False
            diffs = [(b - a) % small for a, b in zip(diffs, diffs[1:])]
    return True


def first_miss_all_points(num, den: int, phi: StepFunction, k: int):
    """``mahler._first_miss`` with t = 0..deg at every class c + p^d t: all
    deg + 1 points, before the p^(d j) bound on the t^j coefficient cut them
    to ceil((k + v_p(den)) / d)."""
    p = phi.prime
    mod = p ** (k + valp(den, p))
    num = [c % mod for c in num]
    domain = phi.domain
    if domain.size() != INF:
        for e, _ in domain.parts:
            if (horner_mod(num, residue(e, mod), mod) - den * phi.value_at(e)) % mod:
                return f"element {e}"
        return None
    depth = max(phi.modulus_exp, domain.max_ball_exponent())
    step = p ** depth
    for c in residues(domain, depth):
        target = den * phi.value_at(c)
        if any((horner_mod(num, (c + step * t) % mod, mod) - target) % mod
               for t in range(max(len(num), 1))):
            return f"ball {c} + {p}^{depth} Z_{p}"
    return None


def poly_sum(polys: Iterable[RatPoly]) -> RatPoly:
    """The sum of rational polynomials, coefficient by coefficient."""
    out: List[Fraction] = []
    for f in polys:
        out += [Fraction(0)] * (len(f.coeffs) - len(out))
        for i, c in enumerate(f.coeffs):
            out[i] += c
    return RatPoly.make(out)


def binomial(n: int) -> RatPoly:
    """The binomial polynomial x(x-1)...(x-n+1)/n!."""
    poly = RatPoly.constant(1)
    for k in range(n):
        poly = poly * RatPoly.make([-k, 1])
    return poly.scale(Fraction(1, factorial(n)))


def binomial_coeffs(f: RatPoly, length: int = None) -> List[Fraction]:
    """Coefficients b_n in f = sum b_n * binom(x, n), via finite differences."""
    if length is None:
        length = f.degree() + 1
    values = [f(i) for i in range(max(length, 0))]
    return [sum((-1) ** (n - k) * comb(n, k) * values[k] for k in range(n + 1))
            for n in range(length)]


def partial_sum_by_basis_rational(s: MahlerSeries) -> RatPoly:
    """sum c_n f_n, adding each exact basis polynomial f_n in turn."""
    return poly_sum(basis_rational(s.ordering, n).scale(c)
                    for n, c in enumerate(s.coeffs) if c)


def series_value(s: MahlerSeries, x) -> int:
    """The partial sum sum c_n f_n(x) modulo p^N, N the series' precision,
    from the integer basis values of the series' ordering."""
    fvals = s.ordering.basis_values(x, s.length() - 1, s.precision)
    return sum(c * f for c, f in zip(s.coeffs, fvals)) % s.ordering.prime ** s.precision


def sup_norm_data(s: MahlerSeries, phi: StepFunction):
    """(inf_n v_p(c_n), inf_y v_p(phi(y))) with the c_n and the values of phi
    both read modulo p^N, N the series' precision; an infimum over residues
    that are all 0 is INF.  The paper's sup-norm identity says the two agree."""
    p = s.ordering.prime
    small = p ** s.precision
    coeff_inf = min((valp(c, p) for c in s.coeffs if c), default=INF)
    value_inf = min((valp(v % small, p) for v in phi.table.values() if v % small), default=INF)
    return coeff_inf, value_inf


def verify_by_differences(f: RatPoly, r: ApproxRequest):
    """The forward-difference closeness check of ``approx``: on every class
    c mod p^d each Mahler coefficient of t -> phi(c) - f(c + p^d t),
    t = 0..top, has valuation >= k; a finite domain is checked at its
    elements.  None when every target passes, else the first miss."""
    for p, (phi, k) in r.targets.items():
        domain = phi.domain
        if domain.size() != INF:
            for e, _ in domain.parts:
                if valp(phi.value_at(e) - f(e), p) < k:
                    return f"target at {p} misses element {e}"
            continue
        depth = max(phi.modulus_exp, domain.max_ball_exponent())
        step = p ** depth
        top = max(f.degree(), 0)
        for c in residues(domain, depth):
            target = Fraction(phi.value_at(c))
            diffs = [target - f(Fraction(c + step * i)) for i in range(top + 1)]
            for _ in range(top + 1):
                if valp(diffs[0], p) < k:
                    return f"target at {p} misses ball {c} + {p}^{depth} Z_{p}"
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return None


def membership_at_points(f: RatPoly, s: CompactSet) -> bool:
    """Reference local membership: f(a) in Z_p by exact Fraction evaluation at
    the ordering points a_0..a_deg (at every element of a small finite set)."""
    if f.is_zero():
        return True
    d = f.degree()
    if d >= s.size():
        pts = [x for x, _ in s.parts]
    else:
        pts = list(p_ordering(s, d).points)
    return all(valp(f(a), s.prime) >= 0 for a in pts)


def trial_division_primes(n: int) -> set:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def membership_by_factoring(f: RatPoly, a: AdelicSet) -> bool:
    """Reference: factor the denominator and test each untracked prime."""
    if f.is_zero():
        return True
    if not all(local_membership(f, comp) for comp in a.tracked.values()):
        return False
    for p in trial_division_primes(f.denominator()) - set(a.tracked):
        if a.default == FULL and min_valuation_on_zp(f, p) < 0:
            return False
        if a.default == PZP and not local_membership(f, pzp(p)):
            return False
    return True


def adelic_membership_by_factoring(f: RatPoly, o: AdelicOrdering) -> bool:
    """Reference: the value criterion with Fractions at the first deg + 1
    points of the adelic ordering, o.local[p].points[k] at a tracked prime p
    and k at an untracked prime of f's denominator."""
    primes = set(o.local) | trial_division_primes(f.denominator())
    for k in range(max(f.degree(), 0) + 1):
        for p in primes:
            x = o.local[p].points[k] if p in o.local else k
            if valp(f(Fraction(x)), p) < 0:
                return False
    return True


def membership_by_binomial_lcm(f: RatPoly, a: AdelicSet) -> bool:
    """Reference for a Z_p default: the tracked components by the value
    criterion, then the lcm of the denominators of the Fraction binomial-basis
    coefficients, with the tracked primes divided out, must be 1."""
    if not all(local_membership(f, comp) for comp in a.tracked.values()):
        return False
    den = lcm(*(b.denominator for b in binomial_coeffs(f)))
    return strip_primes(den, a.tracked) == 1


def min_valuation_on_zp(f: RatPoly, p: int):
    """inf over Z_p of v_p(f(x)); equals the min binomial-basis coefficient valuation."""
    if f.is_zero():
        return INF
    return min(valp(b, p) for b in binomial_coeffs(f))


def sieve_primes_below(n: int) -> List[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = bytes(min(n, 2))
    for d in range(2, isqrt(max(n - 1, 0)) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, n, d)))
    return [i for i, flag in enumerate(flags) if flag]


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def rational_lift_by_fractions(o: POrdering, n: int, n_prec: int) -> RatPoly:
    """h_n / p^w(n) from the exact rational product g_n, for a caller that
    keeps n_prec digits: raises PrecisionExhausted when w(n) needs more."""
    p, wn = o.prime, o.w[n]
    if n_prec < wn:
        raise PrecisionExhausted(f"precision {n_prec} below w({n}) = {wn}")
    if n == 0:
        return RatPoly.constant(1)
    g = product_poly(o, n)
    mod = p ** wn
    h = [residue(c, mod) for c in g.coeffs[:-1]]
    h.append(1)
    return RatPoly.make(h).scale(Fraction(1, mod))


def crt_combine_by_fractions(parts: Sequence[Tuple[int, int, RatPoly]]) -> RatPoly:
    """One rational polynomial congruent to each part (p, k, f_p) modulo p^k
    in Z_(p)[x], coefficient by coefficient: each coefficient's part-prime
    denominators are cleared by their own scale, read from the valuations
    of every part's coefficient, and the least non-negative residues are
    CRT-combined over that scale."""
    if not parts:
        return RatPoly.zero()
    primes = [p for p, _, _ in parts]
    if len(set(primes)) != len(primes):
        raise ValueError("part primes must be distinct")
    width = max(f.degree() + 1 for _, _, f in parts)
    out: List[Fraction] = []
    for i in range(width):
        cs = {p: (f.coeffs[i] if i <= f.degree() else Fraction(0)) for p, _, f in parts}
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


def regular_basis_per_degree(a: AdelicSet, max_degree: int,
                             n_prec: int = None) -> BasisFamily:
    """Reference: every degree orders every component afresh, lifts g_n from
    Fractions at the primes whose component meets at most n classes mod p and
    combines the lifts by ``crt_combine_by_fractions``, checking the
    characteristic ideal first."""
    if n_prec is None:
        n_prec = DEFAULT_PRECISION
    polys = []
    for n in range(max_degree + 1):
        if a.default == PZP and n >= 1:
            raise NotFinitelyGenerated(
                "every untracked prime contributes w_p(%d) >= 1 on pZ_p" % n)
        primes = set(a.tracked) | set(primes_up_to(n) if a.default == FULL else ())
        denominator = 1
        for p in sorted(primes):
            if p not in a.tracked:
                w = v_of_factorial(n, p)
            else:
                comp = a.tracked[p]
                if comp.size() <= n:
                    raise SetTooSmall(f"component at {p} has {comp.size()} elements, "
                                      f"degree {n} needs more")
                w = p_ordering(comp, n).w[n]
            denominator *= p ** w
        p_set = sorted(p for p in primes if count_residues(a.component(p), 1) <= n)
        if not p_set:
            polys.append(RatPoly.x_power(n))
            continue
        parts = [(p, 1, rational_lift_by_fractions(p_ordering(a.component(p), n), n, n_prec))
                 for p in p_set]
        f_n = crt_combine_by_fractions(parts)
        c = f_n.lc()
        g, u, v = _xgcd(c.numerator, c.denominator)
        assert g == 1
        g_n = poly_sum([f_n.scale(u), RatPoly.x_power(n, v)])
        assert g_n.lc() == Fraction(1, c.denominator) and c.denominator == denominator
        polys.append(g_n)
    return BasisFamily(polys=tuple(polys))


def greedy_ball_ordering(s: CompactSet, length: int, n_prec: int = DEFAULT_PRECISION
                         ) -> Tuple[List[int], List[int]]:
    """Points a_0..a_length and w of a ball union by the adaptive-depth greedy search.

    The greedy step minimizes v_p(prod_k (y - a_k)) over the set.  Candidates
    are the residues of the set at a depth d; a candidate class is scored by
    the sum of its factor valuations capped at d, which is a lower bound for
    every point of the class and exact as soon as no previous point lies in
    the class.  The depth is increased until the minimum is attained by such
    an exact class, so the chosen step valuation is the true minimum; among
    minimizers the least residue is taken.  Raises PrecisionExhausted when a
    step is undecided at depth n_prec.
    """
    steps = list(islice(_greedy_ball_steps(s, n_prec), length + 1))
    return [a for a, _ in steps], [v for _, v in steps]


def _greedy_ball_steps(s: CompactSet, n_prec: int):
    p = s.prime
    start_depth = s.max_ball_exponent() + 1
    points = [min(residues(s, start_depth))]
    yield points[0], 0
    # counters[j-1] counts previous points modulo p^j; the capped factor sum of
    # a candidate r at depth d is sum_j counters[j-1][r mod p^j].
    counters: List[Counter] = []
    candidates: List[List[int]] = []  # candidates[d-1]: sorted residues of s mod p^d
    n = 0
    while True:
        n += 1
        d = start_depth
        while True:
            if d > n_prec:
                raise PrecisionExhausted(
                    f"step {n} undecided at precision {n_prec}")
            while len(counters) < d:
                j = len(counters) + 1
                counters.append(Counter(a % p ** j for a in points))
            while len(candidates) < d:
                candidates.append(sorted(residues(s, len(candidates) + 1)))
            mods = [p ** (j + 1) for j in range(d)]
            best_val, best_r = None, None
            exact = False
            for r in candidates[d - 1]:
                val = sum(counters[j][r % mods[j]] for j in range(d))
                if best_val is None or val < best_val:
                    best_val, best_r = val, r
                    exact = counters[d - 1][r % mods[d - 1]] == 0
                elif val == best_val and not exact and counters[d - 1][r % mods[d - 1]] == 0:
                    best_r, exact = r, True
            if exact:
                break
            d += 1
        points.append(best_r)
        for j, counter in enumerate(counters):
            counter[best_r % p ** (j + 1)] += 1
        yield best_r, best_val


def greedy_finite_ordering(s: CompactSet, n_prec: int = DEFAULT_PRECISION
                           ) -> Tuple[List[Fraction], List[int]]:
    """Points and w of a whole finite set by the greedy search.

    Each step takes the remaining element with the least exact valuation sum
    v_p(prod_k (y - a_k)); ties go to the least residue modulo p^N, then the
    least rational, so the points depend on n_prec but w does not.  Raises
    PrecisionExhausted when a step valuation reaches n_prec.
    """
    p = s.prime
    mod = p ** n_prec
    remaining = sorted((x for x, _ in s.parts), key=lambda x: (residue(x, mod), x))
    points, w = [remaining.pop(0)], [0]
    # sums[i] = sum of valp(remaining[i] - a_k) over the points chosen so far
    sums = [0] * len(remaining)
    while remaining:
        sums = [v + valp(y - points[-1], p) for v, y in zip(sums, remaining)]
        val = min(sums)
        if val >= n_prec:
            raise PrecisionExhausted(f"step valuation {val} >= precision {n_prec}")
        i = sums.index(val)
        points.append(remaining.pop(i))
        w.append(val)
        del sums[i]
    return points, w
