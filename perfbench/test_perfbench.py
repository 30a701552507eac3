"""Tests of the benchmark's own code: corpus determinism and the response checker.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

DIGEST_SCRIPT = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import corpus
h = hashlib.sha256()
for workload in corpus.WORKLOADS:
    for index in range(2):
        h.update(json.dumps(corpus.round_requests(workload, int(sys.argv[2]), index),
                            sort_keys=True).encode())
    h.update(json.dumps(corpus.warmup_requests(workload), sort_keys=True).encode())
print(h.hexdigest())
"""


def corpus_digest(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT, HERE, str(seed)],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    return out.stdout.strip()


def test_same_seed_gives_byte_identical_corpus():
    first = corpus_digest(7, "1")
    assert corpus_digest(7, "2") == first
    assert corpus_digest(8, "1") != first


def brute_force_w(spec: dict, top: int):
    """Greedy p-ordering over the integers 0 .. 16 p^k - 1 of the set.

    Each ball c + p^k Z_p has a p-ordering c, c + p^k, c + 2p^k, ..., so for
    top < 16 these integers hold a p-ordering of the whole union.
    """
    p = spec["p"]
    k = max(k for _, k in spec["balls"])
    pts = [x for x in range(16 * p ** k) if oracle.in_set(spec, x)]
    chosen, w = [pts[0]], [0]
    for _ in range(top):
        best = min((sum(oracle.valp(y - a, p) for a in chosen), y)
                   for y in pts if y not in chosen)
        chosen.append(best[1])
        w.append(best[0])
    return w


@pytest.mark.parametrize("p,balls", [
    (2, [[0, 1], [3, 3]]), (3, [[1, 1], [2, 2]]), (2, [[1, 2], [2, 2], [3, 3]]),
    (5, [[0, 1], [7, 2]]), (3, [[4, 2]]),
])
def test_closed_form_w_matches_greedy_search(p, balls):
    spec = {"p": p, "balls": balls}
    assert oracle.set_w(spec, 12) == brute_force_w(spec, 12)


def test_single_ball_w_is_k_n_plus_legendre():
    for p, k in itertools.product((2, 3, 5), (0, 1, 2)):
        w = oracle.set_w({"p": p, "balls": [[1 % p ** k, k]]}, 20)
        assert w == [k * n + oracle.v_factorial(n, p) for n in range(21)]


def ordering_request(points, w):
    req = {"verb": "ordering", "spec": {"set": {"p": 2, "balls": [[0, 1], [1, 1]]},
                                        "length": 4}}
    return req, json.dumps({"p": 2, "points": points, "w": w, "N": 32})


def test_checker_accepts_a_correct_ordering():
    req, text = ordering_request([0, 1, 2, 3], [0, 0, 1, 1])
    oracle.check_response(req, 0, text)


@pytest.mark.parametrize("points,w", [
    ([0, 1, 2, 3], [0, 0, 1, 2]),        # w not the valuation sums
    ([0, 2, 1, 3], [0, 1, 0, 1]),        # not a p-ordering: w decreases
    ([0, 1, 2, {"num": 1, "den": 2}], [0, 0, 1, -3]),  # point outside Z_2
])
def test_checker_rejects_a_wrong_ordering(points, w):
    req, text = ordering_request(points, w)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_response(req, 0, text)


def test_checker_rejects_a_failed_exit_and_a_wrong_ideal():
    req = {"verb": "charideal", "spec": {"adelic": {"default": "Zp", "tracked": []},
                                         "degree": 4}}
    good = {"degree": 4, "finitely_generated": True, "D": 24, "factored": {"2": 3, "3": 1}}
    oracle.check_response(req, 0, json.dumps(good))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_response(req, 0, json.dumps(dict(good, D=12)))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_response(req, 3, json.dumps(good))


def test_member_oracle_on_zhat():
    binom2 = [Fraction(0), Fraction(-1, 2), Fraction(1, 2)]   # x(x-1)/2
    assert oracle.adelic_member(binom2, {"default": "Zp", "tracked": []})
    assert not oracle.adelic_member([Fraction(0), Fraction(1, 2)], {"default": "Zp",
                                                                    "tracked": []})
    # x/2 is integral on 2Z_2 alone
    assert oracle.adelic_member([Fraction(0), Fraction(1, 2)],
                                {"default": "Zp", "tracked": [{"p": 2, "balls": [[0, 1]]}]})


def test_expand_checker_reproduces_a_known_series():
    # The constant 5 on Z_2 is c_0 = 5; adding c_1 = 1 (f_1 = x) breaks it at x = 2.
    phi = {"p": 2, "m": 1, "N": 4, "table": {"0": 5, "1": 5},
           "domain": {"p": 2, "balls": [[0, 0]]}}
    good = {"p": 2, "N": 4, "certified": True, "certificate_depth": 4,
            "coeffs": [5], "points": [0]}
    req = {"verb": "expand", "spec": phi}
    oracle.check_response(req, 0, json.dumps(good))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_response(req, 0, json.dumps(dict(good, coeffs=[5, 1], points=[0, 1])))
