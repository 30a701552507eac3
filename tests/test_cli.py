"""CLI: verb behavior, determinism, JSON round-trips, exit codes."""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import padelic.ordering
from padelic.cli import _HANDLERS, run
from padelic.sets import MAX_EXPONENT


def run_cli(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_ordering_example(capsys):
    code, out = run_cli(
        ["ordering", "--set", "p=2; balls: 0+p^1, 1+p^1", "--length", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == [0, 1, 2, 3]
    assert obj["w"] == [0, 0, 1, 1]


def test_charideal_example(capsys):
    code, out = run_cli(["charideal", "--adelic", "default=Zp", "--degree", "4"], capsys)
    assert code == 0
    assert json.loads(out)["D"] == 24


def test_charideal_pzp_reports_not_fg(capsys):
    code, out = run_cli(["charideal", "--adelic", "default=pZp", "--degree", "2"], capsys)
    assert code == 0
    assert json.loads(out)["finitely_generated"] is False


def test_member_example(capsys):
    code, out = run_cli(
        ["member", "--poly", "1/2*x^2-1/2*x", "--adelic", "default=Zp"], capsys)
    assert code == 0
    assert json.loads(out)["member"] is True


def test_member_false(capsys):
    code, out = run_cli(
        ["member", "--poly", "1/2*x", "--adelic", "default=Zp"], capsys)
    assert code == 0
    assert json.loads(out)["member"] is False


def test_basis_verb(capsys):
    code, out = run_cli(["basis", "--adelic", "default=Zp", "--degree", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lc_denominators"] == [1, 1, 2, 6]


def test_expand_verb(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "p": 2, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
        "m": 2, "table": {"0": 0, "1": 1, "2": 4, "3": 9}, "N": 5}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["certified"] is True
    assert obj["coeffs"][:3] == [0, 1, 2]


def test_approx_verb(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "set": {"default": "Zp", "tracked": {}},
        "targets": {"2": {"phi": {"p": 2, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
                                  "m": 1, "table": {"0": 0, "1": 1}, "N": 4},
                          "k": 1}}}))
    code, out = run_cli(["approx", "--request", str(req)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["member"] is True


def test_adelic_ordering_verb(capsys):
    code, out = run_cli(
        ["adelic-ordering", "--adelic", "default=Zp", "--length", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["exceptions"][4] == [2, 3]


def test_scale_verb(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(
        {"components": {"2": [[{"num": 1, "den": 2}, 1]], "3": [[0, 1]]}}))
    code, out = run_cli(["scale", "--request", str(req)], capsys)
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_determinism(capsys):
    argv = ["basis", "--adelic", "default=Zp; p=2; balls: 0+p^1", "--degree", "4"]
    _, out1 = run_cli(argv, capsys)
    _, out2 = run_cli(argv, capsys)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["member", "--poly", "x"],  # AttributeError: neither --set nor --adelic
    ["ordering", "--length", "2"],  # AttributeError: no --set
    ["member", "--set", "p=2; finite: 1/0", "--poly", "x"],  # ZeroDivisionError
    ["basis", "--adelic", "default=Zp", "--degree", "-3"],  # exit 0 with no polys
    ["member", "--set", "p=2; balls: 0+p^1"],  # AttributeError: no --poly
    ["expand"],  # TypeError: no --request
    ["approx"],
    ["scale"],
    ["expand", "--request", "no/such/request.json"],  # FileNotFoundError
    # the DSL's numbers are ASCII integers and a/b; int() and Fraction() read more
    ["ordering", "--set", "p=1_1; balls: 0+p^1", "--length", "2"],  # ordered at p = 11
    ["ordering", "--set", "p=\u0663; balls: 0+p^1", "--length", "2"],  # at p = 3
    ["ordering", "--set", "p=2; balls: 1_0+p^5", "--length", "2"],
    ["ordering", "--set", "p=2; balls: 0+p^1_0", "--length", "2"],
    ["ordering", "--set", "p=3; finite: 1_0, 2", "--length", "2"],
    ["ordering", "--set", "p=3; finite: 1e1, 2", "--length", "2"],
    ["ordering", "--set", "p=3; finite: 0.5, 2", "--length", "2"],
    ["ordering", "--set", "p=3; finite: +1, 2", "--length", "2"],
], ids=["member-no-set", "ordering-no-set", "finite-zero-den", "basis-negative-degree",
        "member-no-poly", "expand-no-request", "approx-no-request", "scale-no-request",
        "expand-missing-request-file", "prime-underscore", "prime-arabic-indic-digit",
        "centre-underscore", "radius-underscore", "element-underscore", "element-exponent",
        "element-decimal", "element-plus-sign"])
def test_bad_argument_exit_code(capsys, argv):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["member", "--set", "p=2; balls: 0+p^1", "--poly", "-x"],  # -x read as an option
    ["bogus"],
    [],
    ["ordering", "--set", "p=2; balls: 0+p^1", "--length", "four"],
], ids=["option-like-value", "unknown-verb", "no-verb", "non-integer-length"])
def test_usage_error_prints_json(capsys, argv):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == "UsageError"


def test_help_exits_zero(capsys):
    code, out = run_cli(["--help"], capsys)
    assert code == 0
    assert "usage: padelic" in out


def test_validation_exit_code(capsys):
    code, out = run_cli(["ordering", "--set", "p=2; balls:", "--length", "3"], capsys)
    assert code == 2
    assert "error" in json.loads(out)
    code, _ = run_cli(["charideal", "--degree", "2"], capsys)  # missing --adelic
    assert code == 2


def test_diagnostic_exit_code(tmp_path, capsys):
    # the table carries N = 5 digits, and 6 are asked for
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "p": 2, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
        "m": 2, "table": {"0": 0, "1": 1, "2": 4, "3": 9}, "N": 5}))
    code, out = run_cli(["expand", "--request", str(req), "--precision", "6"], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "PrecisionExhausted"


def test_basis_needs_no_precision(capsys):
    # w_2(36) = 34 is past the default 32 digits; the basis is exact anyway
    from oracles import regular_basis_per_degree
    from padelic.polys import format_poly
    from padelic.sets import parse_adelic
    code, out = run_cli(["basis", "--adelic", "default=Zp", "--degree", "36"], capsys)
    assert code == 0
    expected = regular_basis_per_degree(parse_adelic("default=Zp"), 36, 64).polys
    assert json.loads(out)["polys"] == [format_poly(f) for f in expected]


@pytest.mark.parametrize("verb, option, value", [
    ("basis", "--degree", "257"), ("charideal", "--degree", "100000000"),
    ("ordering", "--length", "258"), ("adelic-ordering", "--length", "100000000"),
])
def test_degree_and_length_are_capped(capsys, verb, option, value):
    # refused before any work: --degree up to x^256, --length up to 257 points
    argv = [verb, option, value, "--set", "p=2; balls: 0+p^0", "--adelic", "default=Zp"]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError",
                               "detail": "--degree is capped at 256, --length at 257"}


_ONE_BALL = {"p": 3, "balls": [{"center": 0, "k": 0}]}
_EXPONENT_CASES = {
    "precision": lambda e: (["adelic-ordering", "--adelic", "default=Zp; p=3; balls: 1+p^1",
                             "--length", "2", "--precision", str(e)], None),
    "radius": lambda e: (["ordering", "--set", f"p=3; balls: 1+p^{e}", "--length", "2"], None),
    "m": lambda e: (["expand"], {"p": 3, "m": e, "N": 2, "set": _ONE_BALL, "table": {"0": 1}}),
    "N": lambda e: (["expand"], {"p": 3, "m": 0, "N": e, "set": _ONE_BALL, "table": {"0": 1}}),
    "scale": lambda e: (["scale"], {"components": {"3": [[1, e]]}}),
}


@pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 10 ** 8], ids=["edge", "1e8"])
@pytest.mark.parametrize("case", sorted(_EXPONENT_CASES))
def test_every_exponent_of_p_is_capped(tmp_path, capsys, case, exponent):
    # refused before p is raised to it: at 10^8 each of these ran past a 5 s timeout
    argv, request_obj = _EXPONENT_CASES[case](exponent)
    if request_obj is not None:
        req = tmp_path / "req.json"
        req.write_text(json.dumps(request_obj))
        argv += ["--request", str(req)]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_pzp_adelic_ordering_rejected(capsys):
    code, out = run_cli(
        ["adelic-ordering", "--adelic", "default=pZp", "--length", "4"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "NoAdelicOrdering"


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["charideal", "--adelic", "default=Zp", "--degree", "3",
                "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["D"] == 6


def test_non_prime_modulus_exit_code(capsys):
    for p in (4, 1, 0):
        code, out = run_cli(
            ["ordering", "--set", f"p={p}; balls: 0+p^1", "--length", "3"], capsys)
        assert code == 2
        assert json.loads(out) == {"error": "ValueError",
                                   "detail": f"modulus {p} is not a prime"}


def test_scale_non_prime_key_exit_code(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"components": {"9": [[2, 1]]}}))
    code, out = run_cli(["scale", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_expand_prime_mismatch_exit_code(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "p": 3, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
        "m": 1, "table": {"0": 0, "1": 1}, "N": 4}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_member_bad_poly_exit_code(capsys):
    for text in ("x^-1+1", "0.5*x", "1e2*x"):
        code, out = run_cli(["member", "--poly", text, "--adelic", "default=Zp"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValueError"


def test_member_refuses_a_power_above_the_cap_at_once(capsys):
    import time
    start = time.perf_counter()
    code, out = run_cli(["member", "--poly", "x^100000000", "--adelic", "default=Zp"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {"error": "ValueError",
                               "detail": "power x^100000000 exceeds the cap x^256"}


BIG_PRIME = 10 ** 42 + 63  # a 43-digit prime: trial division cannot reach it


def test_member_huge_denominator_answers_quickly(capsys):
    import time
    start = time.perf_counter()
    code, out = run_cli(["member", "--poly", f"1/{BIG_PRIME}*x", "--adelic", "default=Zp"],
                        capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["member"] is False


def test_member_pzp_default_refuses_unfactorable_denominator(capsys):
    code, out = run_cli(["member", "--poly", f"1/{BIG_PRIME}*x", "--adelic", "default=pZp"],
                        capsys)
    assert code == 2
    assert json.loads(out)["error"] == "FactorLimitExceeded"


def test_negative_ball_radius_exit_code(capsys):
    code, out = run_cli(["ordering", "--set", "p=2; balls: 0+p^-1", "--length", "3"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_json_set_with_string_prime_exit_code(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "p": 2, "set": {"p": "2", "balls": [{"center": 0, "k": 0}]},
        "m": 1, "table": {"0": 0, "1": 1}, "N": 4}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_json_ball_of_infinite_radius_exit_code(tmp_path, capsys):
    # JSON's Infinity reads as a float radius: the ball is refused, not read as the point 5
    req = tmp_path / "req.json"
    req.write_text('{"p": 2, "set": {"p": 2, "balls": [{"center": 5, "k": Infinity}]}, '
                   '"m": 1, "table": {"1": 1}, "N": 4}')
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"
    assert "needs an integer centre" in json.loads(out)["detail"]


def test_precision_below_one_exit_code(capsys):
    for precision in ("0", "-3"):
        code, out = run_cli(["ordering", "--set", "p=2; balls: 0+p^1", "--length", "3",
                             "--precision", precision], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValueError"


def test_finite_expand_with_deep_step_valuation(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 2, "m": 1, "N": 4, "table": {"0": 1, "1": 3},
                               "set": {"p": 2, "finite": [{"num": a, "den": 1}
                                                          for a in (0, 4096, 1)]}}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == [1, 2, 0] and obj["certified"] is True


def test_large_prime_modulus_is_decided_quickly(capsys):
    import time
    start = time.perf_counter()
    code, out = run_cli(["ordering", "--set",
                         "p=2305843009213693951; finite: 0, 1, 5, 2305843009213693951",
                         "--length", "4"], capsys)
    assert code == 0 and json.loads(out)["w"] == [0, 0, 0, 1]
    code, out = run_cli(["ordering", "--set", f"p={BIG_PRIME}; balls: 0+p^1",
                         "--length", "2"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "3317044064679887385961981" in json.loads(out)["detail"]


def test_finite_set_accepts_plain_integer_elements(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 2, "m": 1, "N": 4, "table": {"0": 1, "1": 3},
                               "set": {"p": 2, "finite": [0, 4096, 1]}}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == [1, 2, 0] and obj["points"] == [0, 1, 4096]


@pytest.mark.parametrize("element", ["4096", True, 2.0, [1, 2], None],
                         ids=["string", "bool", "float", "list", "null"])
def test_finite_set_rejects_other_non_object_elements(tmp_path, capsys, element):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 2, "m": 1, "N": 4, "table": {"0": 1, "1": 3},
                               "set": {"p": 2, "finite": [0, element, 3]}}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def _approx_request() -> dict:
    phi = {"p": 2, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
           "m": 1, "table": {"0": 0, "1": 1}, "N": 4}
    return {"set": {"default": "Zp", "tracked": {}}, "targets": {"2": {"phi": phi, "k": 1}}}


@pytest.mark.parametrize("where, key, value", [
    ("target", "k", 2.5),  # was certified at closeness 2
    ("target", "k", True),  # was accepted as 1
    ("phi", "m", 1.7),  # was expanded at m = 1
    ("phi", "N", 4.0),
    ("phi", "p", "2"),
    ("phi", "table", {"0": 0, "1": 1.0}),
    ("phi", "table", [0, 1]),
    ("targets", "2", [1, 2]),  # was a TypeError traceback
], ids=["k-float", "k-bool", "m-float", "N-float", "p-string", "table-float",
        "table-list", "target-list"])
def test_approx_integer_fields_are_not_truncated(tmp_path, capsys, where, key, value):
    obj = _approx_request()
    target = obj["targets"]["2"]
    {"targets": obj["targets"], "target": target, "phi": target["phi"]}[where][key] = value
    req = tmp_path / "req.json"
    req.write_text(json.dumps(obj))
    code, out = run_cli(["approx", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_approx_request_with_integer_fields_still_runs(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(_approx_request()))
    code, out = run_cli(["approx", "--request", str(req)], capsys)
    assert code == 0 and json.loads(out)["poly"] == "x"


@pytest.mark.parametrize("verb, default", [
    ("approx", ["Zp"]),  # unhashable, so a lookup by name raised TypeError
    ("approx", {"Zp": 1}),
    ("approx", 0),
    ("approx", None),
    ("charideal", "Qp"),
], ids=["json-list", "json-object", "json-int", "json-null", "dsl-Qp"])
def test_unknown_default_family_exit_code(tmp_path, capsys, verb, default):
    if verb == "approx":
        obj = _approx_request()
        obj["set"]["default"] = default
        req = tmp_path / "req.json"
        req.write_text(json.dumps(obj))
        argv = ["approx", "--request", str(req)]
    else:
        argv = ["charideal", "--adelic", f"default={default}", "--degree", "1"]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError",
                               "detail": f"unknown default family {default!r}"}


def test_expand_integer_fields_are_not_truncated(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 2, "set": {"p": 2, "balls": [{"center": 0, "k": 0}]},
                               "m": 2.9, "table": {"0": 0, "1": 1}, "N": 4}))
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError",
                               "detail": "m must be an integer, got 2.9"}


def test_member_denominator_prime_to_p_needs_no_ordering(capsys):
    # 3 and 7 are units in Z_2, so the first answer is known without an
    # ordering; the second needs one, which takes no precision on balls
    argv = ["member", "--set", "p=2; balls: 0+p^1, 3+p^3", "--precision", "3"]
    code, out = run_cli(argv + ["--poly", "1/3*x^12 + 5/7*x"], capsys)
    assert code == 0 and json.loads(out)["member"] is True
    code, out = run_cli(argv + ["--poly", "1/6*x^12 + 5/7*x"], capsys)
    assert code == 0
    argv[-1] = "32"
    assert run_cli(argv + ["--poly", "1/6*x^12 + 5/7*x"], capsys) == (0, out)
    assert json.loads(out)["member"] is False


MERSENNE_61 = 2 ** 61 - 1


@pytest.mark.parametrize("argv, key, expected", [
    (["ordering", "--set", f"p={MERSENNE_61}; balls: 5+p^1", "--length", "3"],
     "points", [5, 5 + MERSENNE_61, 5 + 2 * MERSENNE_61]),
    (["basis", "--adelic", f"default=Zp; p={MERSENNE_61}; balls: 0+p^0", "--degree", "2"],
     "lc_denominators", [1, 1, 2]),
    (["charideal", "--adelic", f"default=Zp; p={MERSENNE_61}; balls: 5+p^1, 6+p^2",
      "--degree", "3"], "factored", {"2": 1, "3": 1, str(MERSENNE_61): 2}),
], ids=["ordering", "basis", "charideal"])
def test_ball_set_with_large_prime_answers_quickly(capsys, argv, key, expected):
    # neither parsing nor ordering may enumerate the p residues of a ball
    import time
    start = time.perf_counter()
    code, out = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)[key] == expected


def test_expand_table_at_large_prime_is_refused_quickly(tmp_path, capsys):
    # the table is counted against the residues of Z_p mod p before any is listed
    import time
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": MERSENNE_61, "m": 1, "N": 4, "table": {"0": 1},
                               "set": {"p": MERSENNE_61, "balls": [{"center": 0, "k": 0}]}}))
    start = time.perf_counter()
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and json.loads(out)["error"] == "ValueError"


def test_certificate_classes_are_capped(tmp_path, capsys):
    # balls of radii 1 and 40 split Z_2 into 2^39 + 1 classes mod 2^40
    import time
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 2, "m": 0, "N": 4, "table": {"0": 1},
                               "set": {"p": 2, "balls": [{"center": 0, "k": 1},
                                                         {"center": 1, "k": 40}]}}))
    start = time.perf_counter()
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("count, expected", [(256, 0), (257, 2)])
def test_ball_count_is_capped(capsys, count, expected):
    # each ball 2^i + 2^(i+2) Z_2 sits one split deeper in the ordering's recursion
    balls = ", ".join(f"{2 ** i}+p^{i + 2}" for i in range(count))
    code, out = run_cli(["ordering", "--set", f"p=2; balls: {balls}", "--length", "21"],
                        capsys)
    assert code == expected
    if expected == 0:
        assert len(json.loads(out)["points"]) == 21
    else:
        assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("count, expected", [(256, 0), (257, 2)])
def test_element_count_is_capped(capsys, monkeypatch, count, expected):
    # in the chain 0, 1, 2, 4, ... each element sits one split deeper in the
    # ordering's recursion; a refused set is refused before it is ordered
    started = []

    def counted(s, steps=padelic.ordering._ordering_steps):
        started.append(s.prime)
        return steps(s)
    monkeypatch.setattr(padelic.ordering, "_ordering_steps", counted)
    elems = ", ".join(["0"] + [str(2 ** i) for i in range(count - 1)])
    code, out = run_cli(["ordering", "--set", f"p=2; finite: {elems}", "--length", "256"],
                        capsys)
    assert code == expected
    if expected == 0:
        assert len(json.loads(out)["points"]) == 256 and started == [2]
    else:
        assert json.loads(out)["error"] == "ValueError" and started == []


_BALLS_SET = {"p": 2, "balls": [{"center": 0, "k": 0}]}


def _z2_table(ten: str) -> dict:
    """An expand request on Z_2 with m = 4 whose table spells the key 10 as ten."""
    table = {str(r): r for r in range(16) if r != 10}
    table[ten] = 10
    return {"p": 2, "set": _BALLS_SET, "m": 4, "table": table, "N": 4}


@pytest.mark.parametrize("verb, request_obj", [
    ("approx", {"set": [], "targets": {}}),  # was an AttributeError traceback
    ("approx", {"set": {"default": "Zp", "tracked": []}, "targets": {}}),  # AttributeError
    ("expand", {"p": 2, "set": 5, "m": 1, "table": {"0": 0, "1": 1}, "N": 4}),  # TypeError
    ("expand", {"p": 2, "set": {"p": 2, "balls": [5]}, "m": 1,
                "table": {"0": 0, "1": 1}, "N": 4}),  # TypeError
    ("expand", {"p": 2, "set": {"p": 2, "balls": 5}, "m": 1,
                "table": {"0": 0, "1": 1}, "N": 4}),  # TypeError
    ("approx", {"set": {"default": "Zp", "tracked": {"2": []}}, "targets": {}}),
    ("approx", []),  # a request that is not an object: TypeError
    ("expand", {"p": 2, "set": _BALLS_SET, "m": 1, "table": {"0": 0, "1": 0},
                "N": -1}),  # TypeError from pow
    ("expand", {"p": 2, "set": _BALLS_SET, "m": 1, "table": {"0": 0, "1": 0},
                "N": 0}),  # a "certified" series of zero digits
    ("expand", {"p": 2, "set": _BALLS_SET, "m": -1, "table": {"0": 0},
                "N": 4}),  # TypeError from pow
    ("approx", {"set": {"default": "Zp"}, "targets": {"2": {"k": 1, "phi": {
        "p": 2, "set": _BALLS_SET, "m": -1, "table": {"0": 0}, "N": 4}}}}),  # TypeError
    # two keys naming one integer: the later one silently replaced the earlier
    ("expand", {"p": 2, "set": _BALLS_SET, "m": 1, "table": {"0": 0, "1": 1, "01": 5},
                "N": 4}),
    ("approx", {"set": {"default": "Zp"}, "targets": {
        "2": {"k": 1, "phi": {"p": 2, "set": _BALLS_SET, "m": 1, "table": {"0": 0, "1": 1},
                              "N": 4}},
        "02": {"k": 1, "phi": {"p": 2, "set": _BALLS_SET, "m": 1, "table": {"0": 1, "1": 0},
                               "N": 4}}}}),
    ("approx", {"set": {"default": "Zp", "tracked": {"2": _BALLS_SET, "002": _BALLS_SET}},
                "targets": {}}),
    # keys are ASCII integers: int() read each of these as 10
    ("expand", _z2_table("1_0")),
    ("expand", _z2_table(" +10 ")),
    ("expand", _z2_table("\u0661\u0660")),
    ("approx", {"set": {"default": "Zp", "tracked": {"+2": _BALLS_SET}}, "targets": {}}),
], ids=["set-list", "tracked-list", "set-int", "ball-int", "balls-int", "tracked-set-list",
        "request-list", "N-negative", "N-zero", "m-negative-expand", "m-negative-approx",
        "table-key-twice", "targets-key-twice", "tracked-key-twice", "table-key-underscore",
        "table-key-spaces-and-sign", "table-key-arabic-indic-digits", "tracked-key-plus-sign"])
def test_request_of_wrong_shape_exit_code(tmp_path, capsys, verb, request_obj):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(request_obj))
    code, out = run_cli([verb, "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_deeply_nested_request_exit_code(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text("[" * 200_000)  # a RecursionError traceback and exit 1 before
    code, out = run_cli(["expand", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("components", [
    {"2": [[1, 1.5]]},  # the radius was truncated to 1
    {"2": [[0.5, 1]]},  # float centre was accepted
    {"2": [["1/2", 1]]},  # string centre was accepted
    {"2": [[{"num": 1.5, "den": 2}, 1]]},  # TypeError traceback
    [["2", [[1, 1]]]],  # AttributeError traceback
    {"2": [[1, 1]], "02": [[0, 1]]},  # the second silently replaced the first
], ids=["radius-float", "centre-float", "centre-string", "centre-num-float",
        "components-list", "components-key-twice"])
def test_scale_refuses_inexact_input(tmp_path, capsys, components):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"components": components}))
    code, out = run_cli(["scale", "--request", str(req)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


# Inputs for the fuzz test below.  Integers stay small: a set whose balls
# differ in radius by r has p^r classes to certify, and every DSL number is
# flanked by non-digit words so that no two numbers run together.
_SMALL = st.integers(-3, 12)
_PRIME = st.one_of(st.sampled_from([2, 3, 5]), _SMALL)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _SMALL, st.floats(-4, 4), st.text(max_size=4)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["p", "k", "m", "N", "0", "1", "2", "x"]), kids, max_size=3),
    max_leaves=8)
_RADIUS = st.one_of(st.integers(0, 3), st.just(-1))
_COUNT = st.sampled_from([1, 2, 3, 4, 5, 6] * 3 + [0, -2, 257, 258, 10 ** 8]).map(str)
_SET_JSON = st.one_of(
    st.fixed_dictionaries({"p": _PRIME, "balls": st.lists(st.fixed_dictionaries(
        {"center": _SMALL, "k": _RADIUS}), max_size=3)}),
    st.fixed_dictionaries({"p": _PRIME, "finite": st.lists(st.one_of(_SMALL, st.fixed_dictionaries(
        {"num": _SMALL, "den": _SMALL})), max_size=4)}),
    _JSON)


@st.composite
def _zp_step_json(draw):
    """A well-formed step function on Z_p, so that requests also reach the work."""
    p, m, n = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)), draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, p ** n - 1), min_size=p ** m, max_size=p ** m))
    return {"p": p, "set": {"p": p, "balls": [{"center": 0, "k": 0}]}, "m": m, "N": n,
            "table": {str(r): v for r, v in enumerate(values)}}


_STEP_JSON = st.one_of(_zp_step_json(), st.fixed_dictionaries({
    "p": _PRIME, "set": _SET_JSON, "m": st.integers(-1, 2), "N": st.integers(-1, 5),
    "table": st.dictionaries(st.integers(0, 8).map(str), st.one_of(_SMALL, _JSON), max_size=4),
}), _JSON)
_TARGET = st.one_of(st.fixed_dictionaries({"phi": _STEP_JSON, "k": st.integers(-1, 4)}), _JSON)
_REQUEST = st.one_of(
    _STEP_JSON,
    st.fixed_dictionaries({
        "set": st.one_of(st.fixed_dictionaries({
            "default": st.sampled_from(["Zp", "pZp", "Q"]),
            "tracked": st.dictionaries(_PRIME.map(str), _SET_JSON, max_size=2)}), _JSON),
        "targets": st.one_of(st.dictionaries(_PRIME.map(str), _TARGET, max_size=2), _JSON)}),
    _zp_step_json().map(lambda phi: {"set": {"default": "Zp", "tracked": {}},
                                     "targets": {str(phi["p"]): {"phi": phi, "k": 1}}}),
    st.fixed_dictionaries({"components": st.one_of(st.dictionaries(
        _PRIME.map(str), st.lists(st.lists(st.one_of(_SMALL, _JSON), max_size=3), max_size=2),
        max_size=2), _JSON)}),
)
_WORD = st.sampled_from(["", " ", "p=", "default=", "Zp", "pZp", "balls:", "finite:",
                         "+p^", ",", ";", "/", "-", "x", "*x^", "+", "^"])
_DSL = st.lists(st.tuples(_WORD, _SMALL.map(str), _WORD).map("".join), max_size=5).map("".join)
_BALL = st.tuples(_SMALL, _RADIUS).map(lambda b: f"{b[0]}+p^{b[1]}")
_SET_DSL = st.one_of(
    st.tuples(_PRIME, st.lists(_BALL, min_size=1, max_size=3)).map(
        lambda t: f"p={t[0]}; balls: " + ", ".join(t[1])),
    st.tuples(_PRIME, st.lists(st.tuples(_SMALL, st.sampled_from([1, 1, 2, 3, 0])),
                               min_size=1, max_size=4)).map(
        lambda t: f"p={t[0]}; finite: " + ", ".join(f"{a}/{b}" for a, b in t[1])),
    _DSL)
_ADELIC_DSL = st.one_of(
    st.tuples(st.sampled_from(["Zp", "Zp", "pZp", "Q"]), st.lists(_SET_DSL, max_size=2)).map(
        lambda t: "; ".join([f"default={t[0]}"] + t[1])),
    _DSL)
_POLY = st.one_of(
    st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8), st.integers(0, 6)),
             min_size=1, max_size=3).map(
        lambda ts: " + ".join(f"{a}/{b}*x^{n}" for a, b, n in ts)),
    _DSL)
_OPTIONS = {"--set": _SET_DSL, "--adelic": _ADELIC_DSL, "--poly": _POLY,
            "--degree": _COUNT, "--length": _COUNT, "--precision": _COUNT,
            "--request": st.just("request.json")}


@given(st.sampled_from(sorted(_HANDLERS)), st.fixed_dictionaries(_OPTIONS),
       st.sets(st.sampled_from(sorted(_OPTIONS)), max_size=4), _REQUEST)
@settings(max_examples=300, deadline=None)
def test_every_verb_answers_in_json(verb, options, dropped, request_obj):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [verb]
        for option, value in options.items():
            if option in dropped:
                continue
            if option == "--request":
                value = str(Path(tmp) / value)
                Path(value).write_text(json.dumps(request_obj))
            argv += [option, value]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 2, 3), argv
    json.loads(out.getvalue())
