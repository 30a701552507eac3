"""Independent exact arithmetic for checking padelic responses.

Nothing here imports padelic: every property is recomputed from the request
with integers and ``fractions.Fraction``.  The checks are properties any
correct implementation satisfies (membership, valuation sums, closed-form
valuation sequences, residue tables), not byte-identical output, so a change
of tie-break in the program does not count as a failure.

Set specs are the corpus's own plain form:
``{"p": 2, "balls": [[c, k], ...]}`` or ``{"p": 3, "finite": ["a/b", ...]}``,
and adelic specs are ``{"default": "Zp", "tracked": [set_spec, ...]}``.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence


class CheckFailed(Exception):
    """A response violates a property the request implies."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# valuations, residues, primes


def valp(x, p: int) -> Optional[int]:
    """p-adic valuation of a rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def v_factorial(n: int, p: int) -> int:
    out, q = 0, p
    while q <= n:
        out += n // q
        q *= p
    return out


def residue(x, mod: int) -> int:
    """Residue of a p-integral rational modulo mod (a power of p)."""
    x = Fraction(x)
    if mod == 1:
        return 0
    return x.numerator * pow(x.denominator, -1, mod) % mod


def small_primes(n: int) -> List[int]:
    return [q for q in range(2, n + 1) if all(q % d for d in range(2, int(q ** 0.5) + 1))]


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def strip_primes(n: int, primes) -> int:
    for q in primes:
        while n % q == 0:
            n //= q
    return n


def rat(obj) -> Fraction:
    """Decode the CLI's exact-rational JSON: an int or {"num", "den"}."""
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    expect(isinstance(obj, int) and not isinstance(obj, bool), f"not a rational: {obj!r}")
    return Fraction(obj)


# ---------------------------------------------------------------------------
# compact sets


def in_set(spec: dict, x) -> bool:
    p, x = spec["p"], Fraction(x)
    if "finite" in spec:
        return x in {Fraction(e) for e in spec["finite"]}
    if x.denominator % p == 0:
        return False
    return any(k == 0 or residue(x, p ** k) == c % p ** k for c, k in spec["balls"])


def residue_points(spec: dict, depth: int) -> List[Fraction]:
    """One domain element in each residue class mod p^depth that meets the set."""
    p = spec["p"]
    if "finite" in spec:
        pts = [Fraction(e) for e in spec["finite"]]
    else:
        pts = []
        for c, k in spec["balls"]:
            if k >= depth:
                pts.append(Fraction(c))
            else:
                pts.extend(Fraction(c + p ** k * t) for t in range(p ** (depth - k)))
    seen, out = set(), []
    for x in pts:
        r = residue(x, p ** depth)
        if r not in seen:
            seen.add(r)
            out.append(x)
    return out


def _ball_union_w(balls: Sequence, p: int, top: int) -> List[int]:
    """w(0..top) of a ball union, by Bhargava's recursion.

    A set inside one class a + pZ_p is a + pE' with w(n) = n + w_E'(n); a set
    meeting several classes has the sorted merge of its parts' sequences.
    """
    if any(k == 0 for _, k in balls):
        return [v_factorial(n, p) for n in range(top + 1)]
    parts: Dict[int, list] = {}
    for c, k in balls:
        r = c % p
        parts.setdefault(r, []).append(((c - r) // p, k - 1))
    merged: List[int] = []
    for sub in parts.values():
        merged.extend(n + v for n, v in enumerate(_ball_union_w(sub, p, top)))
    merged.sort()
    return merged[:top + 1]


def _finite_w(elems: Sequence[Fraction], p: int, top: int) -> List[int]:
    """w(0..top) of a finite set by the greedy minimisation (w is ordering-invariant)."""
    expect(top < len(elems), "ordering longer than the finite set")
    remaining = list(elems)
    chosen = [remaining.pop(0)]
    w = [0]
    for _ in range(top):
        vals = [sum(valp(y - a, p) for a in chosen) for y in remaining]
        best = min(vals)
        chosen.append(remaining.pop(vals.index(best)))
        w.append(best)
    return w


def set_w(spec: dict, top: int) -> List[int]:
    """The p-sequence w(0..top) of a compact set."""
    p = spec["p"]
    if "finite" in spec:
        return _finite_w(sorted({Fraction(e) for e in spec["finite"]}), p, top)
    return _ball_union_w([(c % p ** k, k) for c, k in spec["balls"]], p, top)


def adelic_w(adelic: dict, p: int, n: int) -> int:
    for comp in adelic["tracked"]:
        if comp["p"] == p:
            return set_w(comp, n)[n]
    return v_factorial(n, p)


def char_denominator(adelic: dict, n: int) -> Dict[int, int]:
    """Factored D for degree n of an adelic set with default Z_p."""
    primes = set(small_primes(n)) | {c["p"] for c in adelic["tracked"]}
    out = {}
    for p in sorted(primes):
        w = adelic_w(adelic, p, n)
        if w:
            out[p] = w
    return out


def prod_powers(factored: Dict[int, int]) -> int:
    d = 1
    for p, e in factored.items():
        d *= p ** e
    return d


def valuation_sums(points: Sequence[Fraction], p: int) -> List[int]:
    """sum_{k<n} v_p(a_n - a_k) for every n; fails on repeated points."""
    out = []
    for n, a in enumerate(points):
        total = 0
        for b in points[:n]:
            v = valp(a - b, p)
            expect(v is not None, f"point {a} repeated")
            total += v
        out.append(total)
    return out


def check_ordering_points(spec: dict, points: List[Fraction], w: List[int]) -> None:
    """Points lie in the set, w matches the points, and w is the set's invariant."""
    p = spec["p"]
    for a in points:
        expect(in_set(spec, a), f"point {a} outside the set")
    expect(valuation_sums(points, p) == list(w), "w differs from the valuation sums")
    expect(all(a <= b for a, b in zip(w, w[1:])), "w decreases")
    expect(list(w) == set_w(spec, len(w) - 1), "w differs from the set's p-sequence")


# ---------------------------------------------------------------------------
# polynomials (the CLI's "a/b*x^n + ..." text form)


def parse_poly(text: str) -> List[Fraction]:
    """Coefficients, lowest degree first, of a polynomial in the CLI's text form."""
    coeffs: Dict[int, Fraction] = {}
    body = text.replace(" ", "")
    terms, start = [], 0
    for i, ch in enumerate(body):
        if ch in "+-" and i > start and body[i - 1] not in "*/^":
            terms.append(body[start:i])
            start = i
    terms.append(body[start:])
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        coeff, power = Fraction(1), 0
        for factor in term.split("*"):
            if factor == "x":
                power += 1
            elif factor.startswith("x^"):
                power += int(factor[2:])
            else:
                coeff *= Fraction(factor)
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
    top = max(coeffs)
    out = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_text(coeffs: Sequence[Fraction]) -> str:
    """Render coefficients (lowest first) as terms the CLI's parser accepts."""
    terms = [f"{'-' if c < 0 else '+'}{abs(c)}*x^{n}" for n, c in enumerate(coeffs) if c]
    text = "".join(reversed(terms)) or "0"
    return text[1:] if text.startswith("+") else text


def poly_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integral_at_untracked(coeffs: Sequence[Fraction], exempt) -> bool:
    """f(0..deg) are q-integral at every prime q outside `exempt`.

    For Z_q this is the binomial-basis criterion; it needs no factoring:
    with F = L*f integral, f(j) is q-integral for all q not in `exempt`
    exactly when F(j) is divisible by L stripped of the exempt primes.
    """
    if not coeffs:
        return True
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    mod = strip_primes(lcm, exempt)
    if mod == 1:
        return True
    ints = [int(c * lcm) % mod for c in coeffs]
    for j in range(len(coeffs)):
        acc = 0
        for c in reversed(ints):
            acc = (acc * j + c) % mod
        if acc:
            return False
    return True


def integral_on_set(coeffs: Sequence[Fraction], spec: dict) -> bool:
    """f maps the compact set into Z_p (per-ball binomial criterion)."""
    p = spec["p"]
    if "finite" in spec:
        vals = (valp(poly_eval(coeffs, Fraction(e)), p) for e in spec["finite"])
        return all(v is None or v >= 0 for v in vals)
    deg = max(len(coeffs) - 1, 0)
    for c, k in spec["balls"]:
        for t in range(deg + 1):
            v = valp(poly_eval(coeffs, c + p ** k * t), p)
            if v is not None and v < 0:
                return False
    return True


def adelic_member(coeffs: Sequence[Fraction], adelic: dict) -> bool:
    """f is integer-valued on an adelic set with default Z_p."""
    tracked = [c["p"] for c in adelic["tracked"]]
    return (integral_at_untracked(coeffs, tracked)
            and all(integral_on_set(coeffs, comp) for comp in adelic["tracked"]))


# ---------------------------------------------------------------------------
# series in an ordering basis


class OrderingBasis:
    """f_n(x) = prod_{k<n} (x - a_k)/(a_n - a_k) modulo p^N, from the points.

    Each product is kept as (valuation, unit mod p^N), so no big rationals
    are formed; integer points (every ball-set ordering) stay in int arithmetic.
    """

    def __init__(self, points: Sequence[Fraction], p: int, prec: int):
        self.integral = all(a.denominator == 1 for a in points)
        self.points = [int(a) for a in points] if self.integral else list(points)
        self.p, self.mod = p, p ** prec
        self.den = []
        for n, a in enumerate(self.points):
            v, unit = 0, 1
            for b in self.points[:n]:
                dv, du = self._split(a - b)
                v, unit = v + dv, unit * du % self.mod
            self.den.append((v, pow(unit, -1, self.mod)))

    def _split(self, d):
        """(v_p(d), unit part of d mod p^N) for a non-zero difference."""
        expect(d != 0, "repeated ordering point")
        p, v = self.p, 0
        if isinstance(d, int):
            while d % p == 0:
                d //= p
                v += 1
            return v, d % self.mod
        v = valp(d, p)
        return v, residue(d / Fraction(p) ** v, self.mod)

    def series(self, coeffs: Sequence[int], x) -> int:
        """sum c_n f_n(x) modulo p^N; fails if some f_n(x) is not p-integral."""
        if self.integral and x.denominator == 1:
            x = int(x)
        p, mod = self.p, self.mod
        total, v, unit = 0, 0, 1
        for n, c in enumerate(coeffs):
            if n:
                d = x - self.points[n - 1]
                if d == 0:
                    break  # f_n vanishes at a_{n-1} for every later n
                dv, du = self._split(d)
                v, unit = v + dv, unit * du % mod
            dv, dinv = self.den[n]
            expect(v >= dv, f"basis polynomial {n} not integral at {x}")
            total += c * pow(p, v - dv, mod) * unit * dinv
        return total % mod


def step_value(phi: dict, x: Fraction) -> int:
    return phi["table"][str(residue(x, phi["p"] ** phi["m"]))]


# ---------------------------------------------------------------------------
# response checks, one per verb


def _check_ordering(spec: dict, out: dict) -> None:
    s = spec["set"]
    expect(out["p"] == s["p"], "wrong prime")
    points = [rat(a) for a in out["points"]]
    expect(len(points) == spec["length"] == len(out["w"]), "wrong ordering length")
    check_ordering_points(s, points, out["w"])


def _check_charideal(spec: dict, out: dict) -> None:
    factored = char_denominator(spec["adelic"], spec["degree"])
    expect(out["finitely_generated"] is True, "ideal reported not finitely generated")
    expect(out["D"] == prod_powers(factored), f"D {out['D']} != {prod_powers(factored)}")
    expect(out["factored"] == {str(p): e for p, e in factored.items()}, "wrong factorisation")


def _check_basis(spec: dict, out: dict) -> None:
    degree = spec["degree"]
    expect(len(out["polys"]) == len(out["lc_denominators"]) == degree + 1, "wrong count")
    for n, (text, lc_den) in enumerate(zip(out["polys"], out["lc_denominators"])):
        d = prod_powers(char_denominator(spec["adelic"], n))
        expect(lc_den == d, f"degree {n}: lc denominator {lc_den} != D = {d}")
        coeffs = parse_poly(text)
        expect(len(coeffs) == n + 1 and abs(coeffs[-1]) == Fraction(1, d),
               f"degree {n}: leading term is not +-1/D")


def _check_member(spec: dict, out: dict) -> None:
    coeffs = [Fraction(c) for c in spec["coeffs"]]
    expect(parse_poly(out["poly"]) == coeffs, "echoed polynomial differs")
    if "adelic" in spec:
        expected = adelic_member(coeffs, spec["adelic"])
    else:
        expected = integral_on_set(coeffs, spec["set"])
    expect(out["member"] is expected, f"member should be {expected}")


def _check_expand(spec: dict, out: dict) -> None:
    p, m, n_prec, domain = spec["p"], spec["m"], spec["N"], spec["domain"]
    expect(out["certified"] is True and out["p"] == p and out["N"] == n_prec,
           "series not certified at the requested precision")
    points = [rat(a) for a in out["points"]]
    expect(len(points) == len(out["coeffs"]), "points and coefficients differ in number")
    for a in points:
        expect(in_set(domain, a), f"point {a} outside the domain")
    basis = OrderingBasis(points, p, n_prec)
    mod = p ** n_prec
    for x in residue_points(domain, m + 1):
        expect(basis.series(out["coeffs"], x) == step_value(spec, x) % mod,
               f"series misses the table at {x}")


def _check_approx(spec: dict, out: dict) -> None:
    coeffs = parse_poly(out["poly"])
    for p, target in spec["targets"].items():
        phi, k, p = target["phi"], target["k"], int(p)
        for x in residue_points(phi["domain"], phi["m"] + 1):
            v = valp(poly_eval(coeffs, x) - step_value(phi, x), p)
            expect(v is None or v >= k, f"not within {p}^-{k} at {x}")
    exempt = [c["p"] for c in spec["adelic"]["tracked"]]
    expect(integral_at_untracked(coeffs, exempt), "not integral at 0..deg")
    expect(out["certificate"]["member"] is True, "certificate denies membership")


def _check_adelic_ordering(spec: dict, out: dict) -> None:
    adelic, length = spec["adelic"], spec["length"]
    expect(len(out["points"]) == length, "wrong ordering length")
    expect([rat(pt["default"]) for pt in out["points"]] == list(range(length)),
           "untracked components are not 0, 1, 2, ...")
    for comp in adelic["tracked"]:
        p = comp["p"]
        points = [Fraction(pt["tracked"][str(p)]) for pt in out["points"]]
        check_ordering_points(comp, points, out["w"][str(p)])
    tracked = {c["p"] for c in adelic["tracked"]}
    for n, exc in enumerate(out["exceptions"]):
        want = {q for q in small_primes(n) if q not in tracked}
        want |= {p for p in tracked if out["w"][str(p)][n] > 0}
        expect(exc == sorted(want), f"exception primes at {n}")


def _ball_residues(balls, p: int, depth: int) -> set:
    return {residue(x, p ** depth)
            for x in residue_points({"p": p, "balls": balls}, depth)}


def _check_scale(spec: dict, out: dict) -> None:
    exps, d = {}, 1
    for p, balls in spec["components"].items():
        p = int(p)
        exps[p] = max(0, -min(min(valp(c, p), k) for c, k in balls))
        d *= p ** exps[p]
    expect(out["d"] == d, f"d {out['d']} != {d}")
    tracked = out["set"]["tracked"]
    expect(sorted(tracked) == sorted(spec["components"]), "wrong tracked primes")
    for p, balls in spec["components"].items():
        p = int(p)
        want = [(residue(Fraction(c) * d, p ** (k + exps[p])), k + exps[p]) for c, k in balls]
        got = [(b["center"], b["k"]) for b in tracked[str(p)]["balls"]]
        depth = max(k for _, k in want + got)
        expect(_ball_residues(got, p, depth) == _ball_residues(want, p, depth),
               f"scaled component at {p} differs")


CHECKS = {"ordering": _check_ordering, "charideal": _check_charideal,
          "basis": _check_basis, "member": _check_member, "expand": _check_expand,
          "approx": _check_approx, "adelic-ordering": _check_adelic_ordering,
          "scale": _check_scale}


def check_response(request: dict, code: int, text: str) -> None:
    """Raise CheckFailed unless the CLI answered the request correctly."""
    expect(code == 0, f"exit code {code}: {text.strip()[:200]}")
    try:
        out = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    try:
        CHECKS[request["verb"]](request["spec"], out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"malformed response: {type(exc).__name__}: {exc}") from None
