"""Golden CLI corpus: exit code and stdout of fixed requests, byte for byte.

Each case runs ``padelic.cli.run`` in-process.  Expected stdout lives in
``tests/golden/<name>.out`` and expected exit codes in
``tests/golden/exit_codes.json``; request files are under
``tests/golden/requests/``.  After an intended output change, rewrite the
expected files with ``PYTHONPATH=src python tests/test_cli_golden.py --write``
and review the diff.  ``--write NAME ...`` writes only the named cases (and
their entries in ``exit_codes.json``), so a new case can be added without
rewriting the expected files of the others.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REQ = str(GOLDEN / "requests")

CASES = {
    "ordering_balls_p2": ["ordering", "--set", "p=2; balls: 0+p^1, 1+p^1", "--length", "4"],
    "ordering_balls_p5": ["ordering", "--set", "p=5; balls: 0+p^1, 3+p^2", "--length", "9"],
    "ordering_finite_p3": ["ordering", "--set", "p=3; finite: 1, 2/5, -4, 7, 10",
                           "--length", "4"],
    "charideal_zp": ["charideal", "--adelic", "default=Zp", "--degree", "6"],
    "charideal_pzp": ["charideal", "--adelic", "default=pZp", "--degree", "2"],
    "charideal_tracked": ["charideal", "--adelic",
                          "default=Zp; p=2; balls: 0+p^1; p=3; finite: 0, 1, 2, 5",
                          "--degree", "3"],
    "basis_zp": ["basis", "--adelic", "default=Zp", "--degree", "5"],
    "basis_tracked_p2": ["basis", "--adelic", "default=Zp; p=2; balls: 0+p^1",
                         "--degree", "5"],
    "basis_tracked_p3_precision": ["basis", "--adelic", "default=Zp; p=3; balls: 1+p^1, 2+p^2",
                                   "--degree", "4", "--precision", "48"],
    "basis_zp_degree20": ["basis", "--adelic", "default=Zp", "--degree", "20"],
    "basis_deep_p2_w27": ["basis", "--adelic", "default=Zp; p=2; balls: 0+p^1, 3+p^3",
                          "--degree", "28"],
    "basis_deep_p2_step_undecided": ["basis", "--adelic", "default=Zp; p=2; balls: 0+p^1, 3+p^3",
                                     "--degree", "12", "--precision", "3"],
    "basis_p3_finite_too_small": ["basis", "--adelic",
                                  "default=Zp; p=2; balls: 0+p^1, 3+p^3; p=3; finite: 0, 1, 2, 5",
                                  "--degree", "24"],
    "basis_first_error_from_p2": ["basis", "--adelic",
                                  "default=Zp; p=2; balls: 0+p^1, 3+p^3; p=3; finite: "
                                  + ", ".join(str(i) for i in range(30)),
                                  "--degree", "30"],
    "basis_finite_rational_p3": ["basis", "--adelic",
                                 "default=Zp; p=3; finite: 0, 1, 2/5, 7, 10, 13, 22",
                                 "--degree", "5"],
    "basis_two_ball_primes": ["basis", "--adelic",
                              "default=Zp; p=2; balls: 1+p^2, 2+p^3; p=5; balls: 0+p^1, 3+p^2",
                              "--degree", "12"],
    "member_binomial": ["member", "--poly", "1/2*x^2-1/2*x", "--adelic", "default=Zp"],
    "member_false": ["member", "--poly", "1/2*x", "--adelic", "default=Zp"],
    "member_local_set": ["member", "--poly", "1/2*x", "--set", "p=2; balls: 0+p^1"],
    "member_local_prime_to_p": ["member", "--poly", "1/3*x^3 + 2/5*x - 7/15",
                                "--set", "p=2; balls: 1+p^1, 2+p^3"],
    "expand_zp2_squares": ["expand", "--request", f"{REQ}/expand_zp2_squares.json"],
    "expand_balls3": ["expand", "--request", f"{REQ}/expand_balls3.json"],
    "expand_finite5": ["expand", "--request", f"{REQ}/expand_finite5.json"],
    "expand_zp3_m3": ["expand", "--request", f"{REQ}/expand_zp3_m3.json"],
    "expand_balls5": ["expand", "--request", f"{REQ}/expand_balls5.json"],
    "expand_zp2_m4": ["expand", "--request", f"{REQ}/expand_zp2_m4.json"],
    "approx_single": ["approx", "--request", f"{REQ}/approx_single.json"],
    "approx_two_primes": ["approx", "--request", f"{REQ}/approx_two_primes.json"],
    "approx_three_primes_balls5": ["approx", "--request",
                                   f"{REQ}/approx_three_primes_balls5.json"],
    "approx_tracked_finite": ["approx", "--request", f"{REQ}/approx_tracked_finite.json"],
    "adelic_ordering_zp": ["adelic-ordering", "--adelic", "default=Zp", "--length", "8"],
    "adelic_ordering_tracked": ["adelic-ordering", "--adelic",
                                "default=Zp; p=2; balls: 1+p^2; p=3; finite: 0, 1, 3, 4, 9",
                                "--length", "5"],
    "adelic_ordering_precision": ["adelic-ordering", "--adelic",
                                  "default=Zp; p=3; finite: 0, 1/2, 10, 28, 5/4",
                                  "--length", "4", "--precision", "2"],
    "scale_mixed": ["scale", "--request", f"{REQ}/scale_mixed.json"],
    "charideal_pzp_tracked_degree0": ["charideal", "--adelic", "default=pZp; p=2; balls: 1+p^1",
                                      "--degree", "0"],
    "basis_pzp_not_fg": ["basis", "--adelic", "default=pZp", "--degree", "2"],
    "adelic_ordering_pzp_length2": ["adelic-ordering", "--adelic", "default=pZp",
                                    "--length", "2"],
    "adelic_ordering_pzp_length1": ["adelic-ordering", "--adelic", "default=pZp; p=3; finite: 0, 1",
                                    "--length", "1"],
    "member_pzp_true": ["member", "--poly", "1/3*x^2+1/2*x", "--adelic", "default=pZp"],
    "member_pzp_false": ["member", "--poly", "1/4*x", "--adelic", "default=pZp; p=3; balls: 0+p^0"],
    "exit2_empty_balls": ["ordering", "--set", "p=2; balls:", "--length", "3"],
    "exit3_close_points": ["ordering", "--set", "p=2; finite: 0, 4096", "--length", "2",
                           "--precision", "4"],
}


def _run(argv):
    from padelic.cli import run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out = _run(CASES[name])
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_step_undecided_case_reports_greedy_w5():
    # the degree-5 leading denominator has the 2-part 2^w(5) of the closed
    # form, and w(5) = 4 must be the greedy search's value at 32 digits
    from padelic.padic import valp
    from padelic.sets import parse_adelic
    from oracles import greedy_ball_ordering
    set_dsl = CASES["basis_deep_p2_step_undecided"][2]
    _, w = greedy_ball_ordering(parse_adelic(set_dsl).tracked[2], 5, 32)
    out = json.loads((GOLDEN / "basis_deep_p2_step_undecided.out").read_text())
    assert valp(out["lc_denominators"][5], 2) == w[5] == 4


def _write(names) -> None:
    """Write the expected files of the named cases, or of every case."""
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"unknown cases: {', '.join(sorted(unknown))}")
    codes = _exit_codes() if names else {}
    for name in sorted(names or CASES):
        codes[name], out = _run(CASES[name])
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write [NAME ...]")
    _write(sys.argv[2:])
