"""Series expansion of locally constant functions in p-ordering bases.

Coefficients follow the recursion c_n = phi(a_n) - sum_{k<n} c_k f_k(a_n),
computed modulo p^N throughout.

Both results of the paper are certified by one exact pointwise argument,
``_first_miss``.  Let f = F/D with F an integer polynomial of degree <= top
and D > 0, let M = k + v_p(D), and let d = max(m, deepest ball radius), so
phi is constant on every class c + p^d Z_p of a ball domain.  The check asks
that F(c + p^d t) = D phi(c) mod p^M, that is f(c + p^d t) = phi(c) mod p^k,
for t = 0..min(top, J) in every class, where J = ceil(M/d) - 1 (J = top when
d = 0).  Write F(c + p^d t) - D phi(c) = sum_j g_j t^j.  Each g_j is an
integer combination of the coefficients of F times p^(d j), so modulo p^M
it is a polynomial G(t) of degree <= min(top, J).  G maps Z_p into Z_p and
its Mahler (binomial-basis) coefficients are the forward differences at
t = 0 of its values at t = 0..min(top, J): the map from values to
differences is an integer lower-triangular matrix with ones on the diagonal,
hence unimodular.  So those values all vanish modulo p^M exactly when every
Mahler coefficient does, and then G vanishes modulo p^M on all of Z_p: f is
within p^-k of phi on the whole ball, which certifies agreement at every
residue of the domain at any depth.  A class that fails, fails at one of
these points, so the first miss is the same as with t = 0..top.  A domain's
points are checked one by one; d and the classes come from its balls.  The
certificate of a truncated series S = sum_{n<=top} c_n f_n (``_certify``) is
this check with k = N and f = S; ``approx`` checks its combined polynomial
against each target with that target's k and the polynomial's own
denominator.

``_fold`` writes a truncated series S = sum_{n<=top} c_n f_n, c_top != 0, as
one integer polynomial F over p^W, W = w(top), and returns (W, F).  With the
exact integer points L a_j of the ordering (L = 1 unless a point has a
denominator; see ``ordering``), g_k(y) = prod_{j<k}(y - L a_j) and u_k the
unit part of g_k(L a_k), inverted modulo p^digits,

    F(x) = sum_k c_k u_k^-1 p^(W - w(k)) g_k(L x)  mod p^(digits + W).

Term k of F - p^W S is a multiple of p^digits p^(W - w(k)) g_k(L x) in
Z_(p)[x], so F = p^W S mod p^digits coefficient by coefficient, and
F(x) = p^W S(x) mod p^(digits + W) at every domain point x, where p^w(k)
divides g_k(L x).  ``_certify`` checks F / p^W with digits = k = N by the
second; ``approx`` reads only the first, with digits >= k + W.

The integer points, the powers p^w(k) and the u_k^-1 belong to the series'
``POrdering``, which builds them on first use and keeps them.  ``expand``
orders its domain once and pulls further steps from the same ordering as
the series grows; ``evaluate`` and ``expand_in_basis`` read the tables the
expansion already built.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import CertificateFailed, NotCertified, PrecisionExhausted
from .ordering import POrdering, p_ordering
from .padic import INF, PAdicInt, Rat, residue, valp
from .polys import horner_mod
from .sets import MAX_CLASSES, MAX_EXPONENT, CompactSet, count_residues, residues


@dataclass(frozen=True)
class StepFunction:
    """Locally constant function: residues mod p^modulus_exp -> values mod p^precision."""

    prime: int
    domain: CompactSet
    modulus_exp: int
    table: Dict[int, int]
    precision: int

    def __post_init__(self):
        if self.prime != self.domain.prime:
            raise ValueError(f"{self.prime}-adic function on a {self.domain.prime}-adic domain")
        if self.precision < 1:
            raise ValueError("precision counts p-adic digits and must be >= 1")
        if self.modulus_exp < 0:
            raise ValueError("m is the exponent of the table's modulus p^m and must be >= 0")
        if max(self.modulus_exp, self.precision) > MAX_EXPONENT:
            raise ValueError(f"m and N are capped at {MAX_EXPONENT}")
        # count before enumerating: a large p has too many residues to list
        if (len(self.table) != count_residues(self.domain, self.modulus_exp)
                or set(self.table) != residues(self.domain, self.modulus_exp)):
            raise ValueError("table keys must be exactly the domain residues")
        depth = max(self.modulus_exp, self.domain.max_ball_exponent())
        if count_residues(self.domain, depth) > MAX_CLASSES:
            raise ValueError(f"the certificate would visit more than {MAX_CLASSES} classes "
                             f"mod {self.prime}^{depth}")
        mod = self.prime ** self.precision
        if any(not 0 <= v < mod for v in self.table.values()):
            raise ValueError("table values must be canonical residues")

    def value_at(self, x: Rat) -> int:
        return self.table[residue(x, self.prime ** self.modulus_exp)]


@dataclass(frozen=True)
class MahlerSeries:
    """Truncated expansion sum c_n f_n over an ordering basis, mod p^precision."""

    ordering: POrdering
    coeffs: Tuple[int, ...]
    precision: int
    certificate_depth: Optional[int] = None  # depth the certificate covers; None if uncertified

    @property
    def certified(self) -> bool:
        return self.certificate_depth is not None

    def length(self) -> int:
        return len(self.coeffs)


def _default_length_cap(phi: StepFunction) -> int:
    p, m = phi.prime, phi.modulus_exp
    n = phi.precision
    return 2 * (n * p ** max(m - 1, 0) * (p - 1) + p ** m) + 16


def expand(phi: StepFunction, n_prec: int = None) -> MahlerSeries:
    """Certified expansion of a step function in the ordering basis of its domain.

    Expansion continues until p^modulus_exp consecutive coefficients vanish
    mod p^N and the exact pointwise certificate passes; CertificateFailed is
    raised if the length cap is hit first.
    """
    if n_prec is None:
        n_prec = phi.precision
    if phi.precision < n_prec:
        raise PrecisionExhausted(
            f"function values carry {phi.precision} digits, {n_prec} requested")
    p = phi.prime
    size = phi.domain.size()
    cap = _default_length_cap(phi) if size == INF else size - 1
    run_target = max(1, p ** phi.modulus_exp)
    # the domain is ordered once, with no precision, and each coefficient
    # pulls one more step of the same ordering
    o = p_ordering(phi.domain, 0)
    coeffs: List[int] = []
    small = p ** n_prec
    run = 0
    n = 0
    while n <= cap:
        a_n = o.extend(n).points[n]
        fvals = o.basis_values(a_n, n, n_prec)
        c = phi.value_at(a_n) - sum(ck * fk for ck, fk in zip(coeffs, fvals))
        c %= small
        coeffs.append(c)
        run = run + 1 if c == 0 else 0
        done_finite = n == size - 1  # a finite domain is fully ordered
        if done_finite or (run >= run_target and run % run_target == 0):
            series = MahlerSeries(ordering=o, coeffs=tuple(coeffs), precision=n_prec)
            if _certify(series, phi):
                return replace(series, certificate_depth=n_prec + (o.w[n] if n else 0))
            if done_finite:
                raise CertificateFailed(
                    "finite-domain expansion does not reproduce the table")
        n += 1
    raise CertificateFailed(f"no certificate after {cap + 1} coefficients")


def _certify(s: MahlerSeries, phi: StepFunction) -> bool:
    """Exact check that the partial sum matches phi to p^-N everywhere: the
    fold F / p^W of the module docstring through the test points of
    ``_first_miss``, one Horner pass modulo p^(N + W) each."""
    w, num = _fold(s.ordering, s.coeffs, s.precision)
    return _first_miss(num, s.ordering.prime ** w, phi, s.precision) is None


def _fold(o: POrdering, coeffs: Sequence[int], digits: int) -> Tuple[int, List[int]]:
    """(W, F) of the module docstring: F's coefficients lowest degree first,
    folded up to the last non-zero coefficient c_top, over p^W, W = w(top);
    (0, []) when every c_n is 0."""
    top = max((n for n, c in enumerate(coeffs) if c), default=-1)
    if top < 0:
        return 0, []
    res, pw, uinv = o.basis_tables(top, digits)
    p_w = pw[top]
    mod = p_w * o.prime ** digits
    # H = e_0 + (y - L a_0)(e_1 + (y - L a_1)(e_2 + ...)) with e_k = c_k u_k^-1 p^(W - w_k),
    # multiplied out from the inside into coefficients h, lowest degree first
    h: List[int] = []
    for k in range(top, -1, -1):
        a = res[k]
        h = [0] + h  # h <- h * (y - a) + e_k
        for i in range(len(h) - 1):
            h[i] = (h[i] - a * h[i + 1]) % mod
        h[0] = (h[0] + coeffs[k] * uinv[k] * (p_w // pw[k])) % mod
    if o.scale != 1:  # F(x) = H(L x)
        h = [c * pow(o.scale, i, mod) % mod for i, c in enumerate(h)]
    return o.w[top], h


def _first_miss(num: Sequence[int], den: int, phi: StepFunction, k: int) -> Optional[str]:
    """Where num/den first leaves phi + p^k Z_p on phi's domain, or None.

    num holds integer coefficients, lowest degree first, and den > 0.  The
    test points are those of the module docstring: the points of the domain
    first, then t = 0..min(deg, J) at every class c + p^d t of its balls,
    visited in ``residues`` order.
    """
    p = phi.prime
    digits = k + valp(den, p)
    mod = p ** digits
    num = [c % mod for c in num]
    balls = CompactSet(p, tuple(b for b in phi.domain.parts if b[1] != INF))
    for x, _ in phi.domain.parts[len(balls.parts):]:  # the points come last
        if (horner_mod(num, residue(x, mod), mod) - den * phi.value_at(x)) % mod:
            return f"element {x}"
    depth = max(phi.modulus_exp, balls.max_ball_exponent())
    step = p ** depth
    points = max(len(num), 1)
    if depth:
        points = min(points, -(-digits // depth))  # t = 0..J, J = ceil(digits/d) - 1
    for c in residues(balls, depth):
        target = den * phi.value_at(c)
        if any((horner_mod(num, (c + step * t) % mod, mod) - target) % mod
               for t in range(points)):
            return f"ball {c} + {p}^{depth} Z_{p}"
    return None


def evaluate(s: MahlerSeries, x: Union[PAdicInt, Rat]) -> PAdicInt:
    """Partial-sum value at a domain point, with honestly propagated precision."""
    p = s.ordering.prime
    out_prec = s.precision
    if isinstance(x, PAdicInt):
        w_top = s.ordering.w[s.length() - 1] if s.length() > 1 else 0
        out_prec = min(out_prec, x.precision - w_top)
        if out_prec < 1:
            raise PrecisionExhausted("argument has too few digits for this series")
        x = x.residue
    fvals = s.ordering.basis_values(x, s.length() - 1, s.precision)
    total = sum(ck * fk for ck, fk in zip(s.coeffs, fvals)) % p ** out_prec
    return PAdicInt(p, total, out_prec)


def sup_norm_data(s: MahlerSeries, phi: StepFunction):
    """(inf_n v_p(c_n), inf_y v_p(phi(y))) with the c_n and the values of phi
    both read modulo p^N, N the series' precision; an infimum over residues
    that are all 0 is INF.

    The two infima must agree; a mismatch raises CertificateFailed rather
    than being returned silently.
    """
    if not s.certified:
        raise NotCertified("sup-norm data requires a certified series")
    p = s.ordering.prime
    small = p ** s.precision
    coeff_inf = min((valp(c, p) for c in s.coeffs if c), default=INF)
    value_inf = min((valp(v % small, p) for v in phi.table.values() if v % small), default=INF)
    if coeff_inf != value_inf:
        raise CertificateFailed(
            f"sup-norm identity violated: coefficients {coeff_inf}, values {value_inf}")
    return coeff_inf, value_inf


# ---------------------------------------------------------------------------
# general-basis expansion


def expand_in_basis(phi: StepFunction, basis, n_prec: int = None) -> List[int]:
    """Coefficients of phi against an arbitrary regular basis of the local ring.

    The ordering-basis expansion is computed first and then converted through
    the (unit-diagonal) triangular change of basis; the recursion only applies
    to ordering bases.
    """
    s = expand(phi, n_prec)
    o = s.ordering
    p, small = o.prime, o.prime ** s.precision
    top = s.length() - 1
    if len(basis) < s.length():
        raise ValueError(f"need {s.length()} basis polynomials, got {len(basis)}")
    # t[n][k]: basis[n] = sum_k t[n][k] f_k, solved at the ordering points
    t: List[List[int]] = []
    for n in range(top + 1):
        row = []
        for j in range(n + 1):
            r = residue(basis[n](Fraction(o.points[j])), small)
            fv = o.basis_values(o.points[j], j, s.precision)
            r = (r - sum(row[k] * fv[k] for k in range(j))) % small
            row.append(r)
        t.append(row)
    out = [0] * (top + 1)
    for k in range(top, -1, -1):
        acc = (s.coeffs[k] - sum(out[n] * t[n][k] for n in range(k + 1, top + 1))) % small
        diag = t[k][k]
        if diag % p == 0:
            raise ValueError("basis is not regular for this set (non-unit diagonal)")
        out[k] = acc * pow(diag, -1, small) % small
    return out
