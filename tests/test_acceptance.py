"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single CRITERION line with its timing so a `pytest -v -s`
run reads as a checklist.  Random data is seeded; every numeric comparison is
exact at the stated precision.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from padelic.adelic import adelic_ordering
from padelic.approx import ApproxRequest, approximate
from padelic.globalbasis import char_ideal, global_membership, regular_basis
from padelic.mahler import StepFunction, expand
from padelic.ordering import p_ordering
from padelic.padic import valp
from padelic.sets import FULL, PZP, AdelicSet, CompactSet, residues
from padelic.utils import v_of_factorial

from oracles import (adelic_membership_by_factoring, binomial, min_valuation_on_zp,
                     series_value, sup_norm_data, zp)

ZHAT = AdelicSet(tracked={}, default=FULL)

_ORDERINGS = []          # every POrdering produced here, for the monotonicity check
_MAHLER_RESULTS = []     # (phi, series) pairs shared by criteria 4 and 5
_BASIS_RESULTS = []      # (set, family) pairs shared by criteria 7 and 10


def _report(num, text, t0):
    print(f"\nCRITERION {num} PASS: {text} ({time.time() - t0:.2f}s)")


def _random_ball_set(rng, p):
    balls = [(rng.randrange(p ** 3), rng.randrange(4)) for _ in range(rng.randrange(1, 4))]
    return CompactSet.from_balls(p, balls)


# --- criterion 1 -----------------------------------------------------------

def test_criterion_01_binomial_recovery():
    t0 = time.time()
    fam = regular_basis(ZHAT, 8)
    o = adelic_ordering(ZHAT, 10)
    for n, f in enumerate(fam.polys):
        assert f.lc() == Fraction(1, math.factorial(n))
        b = binomial(n)
        assert global_membership(b, ZHAT)
        assert adelic_membership_by_factoring(b, o)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "regular basis on Z-hat has lc 1/n! and binomials are members", t0)


# --- criterion 2 -----------------------------------------------------------

def _exhaustive_w(elems, p, vtab):
    """All valid p-orderings by DFS over stepwise minimizers; returns the
    common w and asserts every branch agrees."""
    out = set()

    def rec(points, w, remaining):
        if not remaining:
            out.add(tuple(w))
            return
        vals = [(sum(vtab[abs(y - a)] for a in points), y) for y in remaining]
        m = min(v for v, _ in vals)
        for v, y in vals:
            if v == m:
                rec(points + [y], w + [v], [z for z in remaining if z != y])

    for start in elems:
        rec([start], [0], [e for e in elems if e != start])
    assert len(out) == 1, f"w not ordering-invariant on {elems} at p={p}"
    return list(out.pop())


def test_criterion_02_pordering_exhaustive_equivalence():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        vtab = {0: 10 ** 9}
        for d in range(1, 13):
            vtab[d] = valp(d, p)
        for size in range(1, 7):
            for elems in combinations(range(13), size):
                oracle = _exhaustive_w(list(elems), p, vtab)
                o = p_ordering(CompactSet.from_finite(p, elems), size - 1)
                assert list(o.w) == oracle, (p, elems)
                _ORDERINGS.append(o)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, f"recursion w equals the exhaustive optimum on {checked} finite sets", t0)


# --- criterion 3 -----------------------------------------------------------

def test_criterion_03_w_monotonicity():
    t0 = time.time()
    rng = random.Random(303)
    pool = list(_ORDERINGS)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        pool.append(p_ordering(_random_ball_set(rng, p), 10))
    assert pool, "criterion 2 must run first"
    for o in pool:
        assert all(a <= b for a, b in zip(o.w, o.w[1:])), o
    _report(3, f"w is non-decreasing across {len(pool)} orderings", t0)


# --- criterion 4 -----------------------------------------------------------

def _solve_coeffs(phi, o, n_prec):
    """Forward substitution on the exact lower-triangular system
    f_k(a_n) c_k = phi(a_n), with plain integer arithmetic (oracle path)."""
    p, mod = phi.prime, phi.prime ** n_prec
    L = None
    coeffs = []
    pts = o.points
    n = 0
    while L is None or n <= L:
        # f_k(a_n) mod p^N from exact prefix products
        num, row = 1, []
        for k in range(n + 1):
            den = 1
            for j in range(k):
                den *= pts[k] - pts[j]
            v = 0
            d = den
            while d % p == 0:
                d //= p
                v += 1
            q = num // p ** v  # num = prod_{j<k}(a_n - a_j); divisible by p^v
            row.append(q * pow(d % mod, -1, mod) % mod if num else 0)
            if k < n:
                num *= pts[n] - pts[k]
        c = (phi.value_at(pts[n]) - sum(ck * fk for ck, fk in zip(coeffs, row))) % mod
        coeffs.append(c)
        n += 1
        if L is None and n == len(pts):
            break
    return coeffs


def test_criterion_04_mahler_roundtrip():
    t0 = time.time()
    rng = random.Random(404)
    count = 0
    while count < 100:
        p = rng.choice([2, 3])
        m = rng.randrange(4)
        dom = zp(p) if rng.random() < 0.5 else _random_ball_set(rng, p)
        table = {r: rng.randrange(p ** 6) for r in residues(dom, m)}
        phi = StepFunction(p, dom, m, table, 6)
        s = expand(phi, 6)
        oracle = _solve_coeffs(phi, s.ordering, 6)[:s.length()]
        assert list(s.coeffs) == oracle
        # pointwise agreement on all residues at a sampling depth; the exact
        # ball-wise certificate inside expand covers the full certificate depth
        depth = min(m + 2, 6)
        for r in sorted(residues(dom, depth)):
            assert series_value(s, r) == phi.value_at(r)
        _MAHLER_RESULTS.append((phi, s))
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, "recursion = triangular solve and certified sums match, 100 functions", t0)


# --- criterion 5 -----------------------------------------------------------

def test_criterion_05_sup_norm_identity():
    t0 = time.time()
    assert _MAHLER_RESULTS, "criterion 4 must run first"
    for phi, s in _MAHLER_RESULTS:
        lo, hi = sup_norm_data(s, phi)
        assert lo == hi
    _report(5, f"coefficient and value infima agree for {len(_MAHLER_RESULTS)} functions", t0)


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_not_finitely_generated():
    t0 = time.time()
    a = AdelicSet(tracked={}, default=PZP)
    assert char_ideal(a, 0).is_fractional()
    for n in range(1, 6):
        assert not char_ideal(a, n).is_fractional()
    _report(6, "pZp default: degree 0 fractional, degrees 1..5 not finitely generated", t0)


# --- criterion 7 -----------------------------------------------------------

def _untracked_denominator_primes(f, tracked):
    primes, d = set(), f.denominator()
    q = 2
    while q * q <= d:
        if d % q == 0:
            primes.add(q)
            while d % q == 0:
                d //= q
        q += 1
    if d > 1:
        primes.add(d)
    return primes - set(tracked)


def test_criterion_07_regular_basis_validity():
    t0 = time.time()
    rng = random.Random(707)
    for _ in range(20):
        tracked = {p: _random_ball_set(rng, p)
                   for p in rng.sample([2, 3, 5], rng.randrange(1, 4))}
        a = AdelicSet(tracked=tracked, default=FULL)
        fam = regular_basis(a, 6)
        for n, f in enumerate(fam.polys):
            d = 1
            for p in set(tracked) | {2, 3, 5}:
                d *= p ** (p_ordering(a.component(p), n).w[n] if p in tracked
                           else v_of_factorial(n, p))
            assert abs(f.lc()) == Fraction(1, d), (n, f.lc(), d)
            from padelic.ordering import local_membership
            for p, comp in tracked.items():
                assert local_membership(f, comp)
            for q in _untracked_denominator_primes(f, tracked):
                assert min_valuation_on_zp(f, q) >= 0
        _BASIS_RESULTS.append((a, fam))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, "20 random adelic sets: lc, per-prime membership, untracked integrality", t0)


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_simultaneous_approximation():
    t0 = time.time()
    rng = random.Random(808)
    for i in range(20):
        phi2 = StepFunction(2, zp(2), 3,
                            {r: rng.randrange(2 ** 6) for r in range(8)}, 6)
        phi3 = StepFunction(3, zp(3), 2,
                            {r: rng.randrange(3 ** 6) for r in range(9)}, 6)
        t1 = time.time()
        cert = approximate(
            ApproxRequest(set=ZHAT, targets={2: (phi2, 3), 3: (phi3, 2)}))
        assert cert.member and cert.closeness == {2: 3, 3: 2}
        # independent spot check on integer residues
        for r in range(16):
            assert valp(cert.poly(Fraction(r)) - phi2.value_at(r), 2) >= 3
        for r in range(9):
            assert valp(cert.poly(Fraction(r)) - phi3.value_at(r), 3) >= 2
        assert time.time() - t1 < 10.0
    _report(8, "20 two-prime approximation instances certified", t0)


# --- criterion 9 -----------------------------------------------------------

def _oracle_w_balls(s, p, length, depth):
    res = sorted(residues(s, depth))
    pts, w = [min(res)], [0]
    for _ in range(length):
        best = min((sum(valp(y - a, p) for a in pts), y)
                   for y in res if y not in pts)
        w.append(best[0])
        pts.append(best[1])
    return w


def test_criterion_09_adelic_ordering_conditions():
    t0 = time.time()
    rng = random.Random(909)
    sets = [ZHAT]
    for _ in range(5):
        tracked = {p: _random_ball_set(rng, p)
                   for p in rng.sample([2, 3], rng.randrange(1, 3))}
        sets.append(AdelicSet(tracked=tracked, default=FULL))
    for a in sets:
        o = adelic_ordering(a, 8)
        # (a) per-prime minimality against the exhaustive residue oracle
        for p, local in o.local.items():
            oracle = _oracle_w_balls(a.component(p), p, 7,
                                     a.component(p).max_ball_exponent() + 4)
            assert list(local.w) == oracle, (p, local.w, oracle)
        for p in (2, 3):  # untracked diagonal components follow Legendre
            if p not in o.local:
                assert [a.untracked_w(p, n) for n in range(8)] == \
                    [v_of_factorial(n, p) for n in range(8)]
        # (b) exception lists are exactly the positive-step primes
        for n in range(8):
            expected = {p for p in (2, 3, 5, 7) if p <= n and p not in a.tracked}
            expected.update(p for p, local in o.local.items() if local.w[n] > 0)
            assert set(o.exceptions[n]) == expected
    _report(9, "adelic orderings: componentwise minimality and exact exception lists", t0)


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_basis_transfer():
    t0 = time.time()
    assert _BASIS_RESULTS, "criterion 7 must run first"
    for a, fam in _BASIS_RESULTS:
        o = adelic_ordering(a, 7)
        for f in fam.polys:
            assert global_membership(f, a) and adelic_membership_by_factoring(f, o)
    _report(10, f"all basis polynomials from criterion 7 pass adelic membership", t0)
