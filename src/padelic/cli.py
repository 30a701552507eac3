"""Batch command-line front end emitting deterministic JSON.

Verbs map one-to-one onto library operations; nothing is randomized and all
numbers are exact, so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Dict, Tuple

from .adelic import adelic_ordering, scale_into_z
from .approx import ApproxRequest, approximate
from .errors import CertificateFailed, NotCertified, PadelicError, PrecisionExhausted
from .globalbasis import char_ideal, global_membership, regular_basis
from .mahler import StepFunction, expand
from .ordering import local_membership, p_ordering
from .padic import DEFAULT_PRECISION
from .polys import MAX_POLY_DEGREE, RatPoly, format_poly, parse_poly
from .sets import (MAX_EXPONENT, AdelicSet, CompactSet, _int_keys, _json_int, _json_list,
                   _json_object, adelic_from_json, adelic_to_json, parse_adelic, parse_set,
                   rational_from_json, set_from_json)

DIAGNOSTIC_ERRORS = (PrecisionExhausted, CertificateFailed, NotCertified)


def _rat_json(x) -> Any:
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return {"num": x.numerator, "den": x.denominator}


def _emit(obj: Dict[str, Any], out_path: str) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _step_fn_from_json(obj: Dict[str, Any]) -> StepFunction:
    obj = _json_object(obj, "step function")
    domain = set_from_json(obj["set"])
    n_prec = _json_int(obj.get("N", DEFAULT_PRECISION), "N")
    table = {k: _json_int(v, f"table value at {k}")
             for k, v in _int_keys(obj["table"], "table").items()}
    return StepFunction(prime=_json_int(obj["p"], "p"), domain=domain,
                        modulus_exp=_json_int(obj["m"], "m"), table=table, precision=n_prec)


def _cmd_ordering(args) -> Dict[str, Any]:
    s = _set_arg(args)
    if args.length < 1:
        raise ValueError("--length counts points and must be >= 1")
    o = p_ordering(s, args.length - 1)
    return {"p": s.prime, "points": [_rat_json(a) for a in o.points], "w": list(o.w),
            "N": DEFAULT_PRECISION if args.precision is None else args.precision}


def _cmd_charideal(args) -> Dict[str, Any]:
    a = _adelic_arg(args)
    ideal = char_ideal(a, args.degree)
    if not ideal.is_fractional():
        return {"degree": args.degree, "finitely_generated": False,
                "witness": ideal.witness}
    return {"degree": args.degree, "finitely_generated": True,
            "D": ideal.denominator(),
            "factored": {str(p): e for p, e in ideal.factored.items()}}


def _cmd_basis(args) -> Dict[str, Any]:
    a = _adelic_arg(args)
    fam = regular_basis(a, args.degree)
    return {"degree": args.degree,
            "polys": [format_poly(f) for f in fam.polys],
            "lc_denominators": [f.lc().denominator for f in fam.polys]}


def _cmd_member(args) -> Dict[str, Any]:
    f = _poly_arg(args)
    if args.adelic is not None:
        member = global_membership(f, parse_adelic(args.adelic))
    else:
        member = local_membership(f, _set_arg(args))
    return {"member": member, "poly": format_poly(f)}


def _cmd_expand(args) -> Dict[str, Any]:
    phi = _step_fn_from_json(_request_arg(args))
    s = expand(phi, args.precision)
    return {"p": phi.prime, "coeffs": list(s.coeffs), "N": s.precision,
            "certified": s.certified, "certificate_depth": s.certificate_depth,
            "points": [_rat_json(a) for a in s.ordering.points[:s.length()]]}


def _cmd_approx(args) -> Dict[str, Any]:
    obj = _request_arg(args)
    a = adelic_from_json(obj["set"])
    targets = {}
    for p, t in _int_keys(obj["targets"], "targets").items():
        t = _json_object(t, f"target at {p}")
        targets[p] = (_step_fn_from_json(t["phi"]), _json_int(t["k"], f"k at {p}"))
    cert = approximate(ApproxRequest(set=a, targets=targets))
    return {"poly": format_poly(cert.poly),
            "certificate": {"closeness": {str(p): k for p, k in cert.closeness.items()},
                            "member": cert.member, "degree": cert.degree,
                            "attempts": cert.attempts}}


def _cmd_adelic_ordering(args) -> Dict[str, Any]:
    a = _adelic_arg(args)
    o = adelic_ordering(a, args.length, args.precision)
    points = [{"default": _rat_json(pt.default),
               "tracked": {str(p): v.residue for p, v in pt.tracked.items()}}
              for pt in o.points]
    return {"points": points,
            "w": {str(p): list(o.local[p].w) for p in sorted(o.local)},
            "exceptions": [list(e) for e in o.exceptions]}


def _cmd_scale(args) -> Dict[str, Any]:
    obj = _request_arg(args)
    components = {p: [_scale_ball(b, p) for b in _json_list(balls, f"component at {p}")]
                  for p, balls in _int_keys(obj["components"], "components").items()}
    d, scaled = scale_into_z(components)
    return {"d": d, "set": adelic_to_json(scaled)}


def _scale_ball(ball: Any, p: int) -> Tuple[Fraction, int]:
    """One [centre, radius] pair of a ``scale`` component."""
    if not (isinstance(ball, list) and len(ball) == 2):
        raise ValueError(f"ball {ball!r} at {p} is not a [centre, radius] pair")
    return rational_from_json(ball[0], f"centre at {p}"), _json_int(ball[1], f"radius at {p}")


def _set_arg(args) -> CompactSet:
    if args.set is None:
        raise ValueError("this verb requires --set")
    return parse_set(args.set)


def _adelic_arg(args) -> AdelicSet:
    if args.adelic is None:
        raise ValueError("this verb requires --adelic")
    return parse_adelic(args.adelic)


def _poly_arg(args) -> RatPoly:
    if args.poly is None:
        raise ValueError("this verb requires --poly")
    return parse_poly(args.poly)


def _request_arg(args) -> Dict[str, Any]:
    if args.request is None:
        raise ValueError("this verb requires --request")
    try:
        with open(args.request) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read request file {args.request!r}: {exc.strerror}") from None
    try:
        return _json_object(json.loads(text), "request")
    except RecursionError:  # the decoder recurses once per nested list or object
        raise ValueError(f"request file {args.request!r} nests too deeply") from None


_HANDLERS = {
    "ordering": _cmd_ordering,
    "charideal": _cmd_charideal,
    "basis": _cmd_basis,
    "member": _cmd_member,
    "expand": _cmd_expand,
    "approx": _cmd_approx,
    "adelic-ordering": _cmd_adelic_ordering,
    "scale": _cmd_scale,
}


class UsageError(Exception):
    """An argv the parser refuses: unknown verb or option, or a bad option value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padelic",
        description="exact arithmetic for integer-valued polynomials on p-adic sets")
    parser.add_argument("verb", choices=sorted(_HANDLERS))
    parser.add_argument("--set", help="single-prime set DSL, e.g. 'p=2; balls: 0+p^1'")
    parser.add_argument("--adelic", help="adelic set DSL, e.g. 'default=Zp; p=2; balls: 0+p^1'")
    parser.add_argument("--degree", type=int, default=0)
    parser.add_argument("--length", type=int, default=0)
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--poly", help="polynomial, e.g. '1/2*x^2-1/2*x'")
    parser.add_argument("--request", help="path to a JSON request file")
    parser.add_argument("--out", help="write JSON here instead of stdout")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        _emit({"error": "UsageError", "detail": str(exc)}, None)
        return 2
    except SystemExit as exc:  # --help
        return 2 if exc.code else 0
    try:
        if args.precision is not None and not 1 <= args.precision <= MAX_EXPONENT:
            raise ValueError(f"--precision counts p-adic digits, 1 to {MAX_EXPONENT}")
        if args.degree > MAX_POLY_DEGREE or args.length > MAX_POLY_DEGREE + 1:
            raise ValueError(
                f"--degree is capped at {MAX_POLY_DEGREE}, --length at {MAX_POLY_DEGREE + 1}")
        result = _HANDLERS[args.verb](args)
    except DIAGNOSTIC_ERRORS as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, args.out)
        return 3
    except (ValueError, KeyError, PadelicError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, args.out)
        return 2
    _emit(result, args.out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
