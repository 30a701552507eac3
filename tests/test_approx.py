"""Simultaneous rational approximation with verified certificates."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from padelic.approx import ApproxRequest, _build, _verify, approximate
from padelic.errors import CertificateFailed
from padelic.globalbasis import global_membership, regular_basis
from padelic.mahler import MahlerSeries, StepFunction, _fold, expand
from padelic.ordering import p_ordering
from padelic.padic import INF, valp
from padelic.polys import RatPoly
from padelic.sets import FULL, AdelicSet, CompactSet, residues

from oracles import (crt_combine_by_fractions, partial_sum_by_basis_rational, poly_sum,
                     verify_by_differences, zp)

ZHAT = AdelicSet(tracked={}, default=FULL)


def step(p, m, table, n_prec=6):
    return StepFunction(p, zp(p), m, table, n_prec)


def test_empty_targets_gives_zero():
    cert = approximate(ApproxRequest(set=ZHAT, targets={}))
    assert cert.poly == RatPoly.zero() and cert.member


def test_parity_indicator():
    # phi = parity on Z_2 at k=1: x itself qualifies, so any certified answer
    # must agree with parity mod 2 everywhere
    phi = step(2, 1, {0: 0, 1: 1}, 4)
    cert = approximate(ApproxRequest(set=ZHAT, targets={2: (phi, 1)}))
    assert cert.member
    f = cert.poly
    for r in range(16):
        assert valp(f(Fraction(r)) - (r % 2), 2) >= 1
    # sanity: the hand-picked answer x passes the same checks
    assert all(valp(Fraction(r) - (r % 2), 2) >= 1 for r in range(16))


def test_two_prime_example():
    # f = x^2-values mod 8 at p=2 and constant 2 mod 9 at p=3, one polynomial
    phi2 = step(2, 3, {r: r * r % 64 for r in range(8)}, 6)
    phi3 = step(3, 0, {0: 2}, 6)
    cert = approximate(
        ApproxRequest(set=ZHAT, targets={2: (phi2, 3), 3: (phi3, 2)}))
    f = cert.poly
    assert cert.member and global_membership(f, ZHAT)
    for r in range(32):
        assert valp(f(Fraction(r)) - r * r, 2) >= 3
        assert valp(f(Fraction(r)) - 2, 3) >= 2


def test_single_prime_matches_partial_sum():
    random.seed(2)
    phi = step(3, 1, {r: random.randrange(3 ** 6) for r in range(3)}, 6)
    cert = approximate(ApproxRequest(set=ZHAT, targets={3: (phi, 4)}))
    for r in range(27):
        assert valp(cert.poly(Fraction(r)) - phi.value_at(r), 3) >= 4


def test_tracked_ball_component():
    dom = CompactSet.from_balls(2, [(1, 1)])  # 1 + 2Z_2
    a = AdelicSet(tracked={2: dom}, default=FULL)
    phi = StepFunction(2, dom, 2, {1: 5, 3: 9}, 6)
    cert = approximate(ApproxRequest(set=a, targets={2: (phi, 2)}))
    assert cert.member
    for r in sorted(residues(dom, 5)):
        assert valp(cert.poly(Fraction(r)) - phi.value_at(r), 2) >= 2


def test_request_validation():
    phi = step(2, 1, {0: 0, 1: 1}, 4)
    with pytest.raises(ValueError):
        ApproxRequest(set=ZHAT, targets={2: (phi, 0)})  # k must be >= 1
    with pytest.raises(ValueError):
        ApproxRequest(set=ZHAT, targets={3: (phi, 1)})  # prime mismatch
    with pytest.raises(ValueError):
        ApproxRequest(set=ZHAT, targets={2: (phi, 9)})  # k beyond table digits


def test_approx_degree_is_least():
    # an integer-valued f of degree < L = cert.degree is sum c_n f_n over the
    # regular basis with integer c_n, and its closeness at p^k depends on the
    # c_n mod p^k alone; so no c_n in [0, p^k) may pass the closeness check
    checked = []
    for seed in range(60):
        rng = random.Random(seed)
        p, k, m = rng.choice([2, 3]), rng.randrange(1, 3), rng.randrange(0, 3)
        dom = zp(p) if rng.random() < 0.5 else CompactSet.from_balls(p, [(rng.randrange(p), 1)])
        table = {c: rng.randrange(p ** k) for c in residues(dom, m)}
        r = ApproxRequest(set=AdelicSet(tracked={p: dom}, default=FULL),
                          targets={p: (StepFunction(p, dom, m, table, k), k)})
        cert = approximate(r)
        assert verify_by_differences(cert.poly, r) is None
        top = cert.degree
        if top < 0 or p ** (k * top) > 1 << 10:
            continue
        basis = regular_basis(r.set, top - 1).polys if top else ()
        for cs in product(range(p ** k), repeat=top):
            f = poly_sum(b.scale(c) for b, c in zip(basis, cs))
            assert verify_by_differences(f, r) is not None, (seed, cs)
        checked.append(top)
    assert len(checked) >= 30 and max(checked) >= 5, checked


def test_monotone_in_k():
    phi2 = step(2, 2, {r: (3 * r + 1) % 16 for r in range(4)}, 4)
    for k in (1, 2, 3):
        cert = approximate(ApproxRequest(set=ZHAT, targets={2: (phi2, k)}))
        assert cert.member
        for r in range(16):
            assert valp(cert.poly(Fraction(r)) - phi2.value_at(r), 2) >= k


# ---------------------------------------------------------------------------
# the integer build and closeness check against the Fraction references


def _domain(p: int, shape: str, rng: random.Random) -> CompactSet:
    if shape == "zp":
        return zp(p)
    if shape == "balls":
        k = rng.randrange(1, 3)
        centres = rng.sample(range(p ** k), rng.randrange(1, p ** k))
        return CompactSet.from_balls(p, [(c, k) for c in centres])
    elems = {Fraction(rng.randrange(-40, 41), rng.choice([1, 1, 7, 11]))
             for _ in range(rng.randrange(4, 9))}
    return CompactSet.from_finite(p, sorted(elems))


def _exact(o, coeffs) -> RatPoly:
    return partial_sum_by_basis_rational(MahlerSeries(ordering=o, coeffs=tuple(coeffs),
                                                      precision=1))


def _sample_points(dom: CompactSet, rng: random.Random):
    """The points of a finite domain, or a few points of each of its balls."""
    for c, k in dom.parts:
        if dom.size() != INF:
            yield c
        else:
            yield from (c + dom.prime ** k * rng.randrange(-50, 50) for _ in range(4))


@given(st.sampled_from([2, 3, 5]), st.sampled_from(["zp", "balls", "finite"]),
       st.integers(1, 8), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_fold_matches_basis_rational_sum(p, shape, digits, seed):
    # F = p^W S mod p^D coefficient by coefficient, and mod p^(D + W) at the
    # domain points, W = w(top) at the last non-zero c_top
    rng = random.Random(seed)
    dom = _domain(p, shape, rng)
    length = rng.randrange(0, min(12, dom.size()))
    o = p_ordering(dom, length)
    coeffs = [rng.choice([0, rng.randrange(p ** 6)]) for _ in range(rng.randrange(length + 2))]
    w, num = _fold(o, coeffs, digits)
    exact = _exact(o, coeffs)
    if not any(coeffs):
        assert (w, num) == (0, []) and exact == RatPoly.zero()
        return
    top = max(n for n, c in enumerate(coeffs) if c)
    assert w == o.w[top] and len(num) == top + 1
    den = p ** w
    for i, c in enumerate(num):
        e = exact.coeffs[i] if i <= exact.degree() else 0
        assert valp(c - den * e, p) >= digits
    f = RatPoly.make(num)
    for x in _sample_points(dom, rng):
        assert valp(f(Fraction(x)) - den * exact(Fraction(x)), p) >= digits + o.w[top]


@given(st.lists(st.tuples(st.sampled_from([2, 3, 5]),
                          st.sampled_from(["zp", "balls", "finite"])),
                min_size=1, max_size=2, unique_by=lambda t: t[0]),
       st.integers(1, 2), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_build_matches_fraction_sums(shapes, mult, k_max, seed):
    # the folds are congruent to the exact partial sums mod p^k_top, and the
    # CRT answer is unique in [0, prod p^k_top) over any clearing denominator
    rng = random.Random(seed)
    tracked, targets = {}, {}
    for p, shape in shapes:
        dom = tracked[p] = _domain(p, shape, rng)
        m = rng.randrange(0, 3 if p < 5 else 2)
        k = rng.randrange(1, k_max + 1)
        table = {r: rng.randrange(p ** (2 * k)) for r in residues(dom, m)}
        targets[p] = (StepFunction(p, dom, m, table, 2 * k), k)
    r = ApproxRequest(set=AdelicSet(tracked=tracked, default=FULL), targets=targets)
    k_top = max(k for _, k in targets.values())
    try:
        sums = {p: partial_sum_by_basis_rational(expand(phi, min(mult * k, phi.precision)))
                for p, (phi, k) in targets.items()}
    except CertificateFailed:
        with pytest.raises(CertificateFailed):
            _build(r, mult)
        return
    assert _build(r, mult) == crt_combine_by_fractions(
        [(p, k_top, f) for p, f in sorted(sums.items())])


def _candidates(r: ApproxRequest, rng: random.Random):
    """The certified combination, then partial sums that are truncated or
    carry one corrupted coefficient."""
    yield _build(r, 1)
    for p, (phi, k) in r.targets.items():
        series = expand(phi, phi.precision)
        o, coeffs = series.ordering, list(series.coeffs)
        yield _exact(o, coeffs)
        for n in range(1, len(coeffs)):
            yield _exact(o, coeffs[:n])
        for _ in range(3):
            bad = list(coeffs)
            i = rng.randrange(len(bad))
            bad[i] = (bad[i] + p ** rng.randrange(phi.precision)) % p ** phi.precision
            yield _exact(o, bad)
            yield _exact(o, bad[:rng.randrange(1, len(bad) + 1)])


@given(st.lists(st.tuples(st.sampled_from([2, 3, 5]),
                          st.sampled_from(["zp", "balls", "finite"])),
                min_size=1, max_size=2, unique_by=lambda t: t[0]),
       st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_verify_matches_difference_table(shapes, k, seed):
    rng = random.Random(seed)
    tracked, targets = {}, {}
    for p, shape in shapes:
        dom = tracked[p] = _domain(p, shape, rng)
        m = rng.randrange(0, 3 if p < 5 else 2)
        table = {r: rng.randrange(p ** (k + 1)) for r in residues(dom, m)}
        targets[p] = (StepFunction(p, dom, m, table, k + 1), k)
    r = ApproxRequest(set=AdelicSet(tracked=tracked, default=FULL), targets=targets)
    for f in _candidates(r, rng):
        assert _verify(f, r) == verify_by_differences(f, r)


def test_verify_names_the_same_first_miss():
    dom = CompactSet.from_balls(3, [(1, 1), (5, 2)])
    phi = StepFunction(3, dom, 2, {r: r * r % 27 for r in residues(dom, 2)}, 3)
    r = ApproxRequest(set=AdelicSet(tracked={3: dom}, default=FULL), targets={3: (phi, 2)})
    series = expand(phi, 3)
    for n in range(1, series.length()):
        f = _exact(series.ordering, series.coeffs[:n])
        assert _verify(f, r) == verify_by_differences(f, r)
    assert _verify(_exact(series.ordering, series.coeffs[:2]), r).startswith(
        "target at 3 misses ball")
    assert _verify(RatPoly.zero(), r) == verify_by_differences(RatPoly.zero(), r) is not None
