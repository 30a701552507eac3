"""p-orderings, their valuation sequences, and the two local bases.

A p-ordering of a compact set E starts at a_0 and takes for a_n a point y of E
that minimizes v_p(prod_{k<n} (y - a_k)); that minimum is w(n).  Among the
minimizers the least is taken: the least non-negative integer for a union of
balls, the least rational for a finite set.  No precision is involved, so the
ordering depends on the set alone.

Every set is ordered by Bhargava's recursion (Bhargava, J. reine angew. Math.
490 (1997); Johnson, J. Algebraic Combin. 30 (2009)), which holds for any
compact subset of Z_p.  E = Z_p has a_n = n and w(n) = v_p(n!), and a single
point x is the one step (x, 0).  If E lies in one class r mod p, then
E = r + pE', a_n = r + p a'_n and w(n) = n + w_E'(n).  Otherwise a point's
step valuation counts only the previous points of its own class, so the
orderings of the parts of E in the classes mod p are merged, taking the
least (w, point) each time.

A set enters the recursion as its parts (centre, radius), where a point is a
ball of radius INF, after every centre is multiplied by the lcm L of the
centres' denominators.  L is positive and prime to p, so it keeps every
valuation of a difference and the order of the points, and the recursion
runs on the exact integers L a_n.  A ball union has L = 1.

The ordering is a stream of steps (a_n, w(n)), and step n never depends on
how many steps follow, so every prefix of an ordering is itself the ordering
of that length.  ``POrdering`` is that stream, pulled only as far as a caller
asks: it also keeps the running product g_n = prod_{k<n} (x - a_k) behind the
lifts, modulo a power of p that grows with w(n), and the powers p^w(k) and
unit inverses behind the basis values, so each set is ordered once however
many degrees or evaluations follow.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import merge
from itertools import count, islice
from math import lcm
from typing import Iterator, List, Sequence, Tuple, Union

from .errors import LengthExceedsSet
from .padic import INF, Rat, residue, valp
from .polys import RatPoly, horner_mod
from .sets import CompactSet
from .utils import v_of_factorial

Point = Union[int, Fraction]
Step = Tuple[int, int]  # (L a_n, w(n))


class POrdering:
    """The p-ordering a_0, a_1, ... of a compact set, pulled as far as asked.

    ``points`` and ``w`` hold the steps pulled so far; ``extend(n)`` pulls
    the stream on to a_n, and an earlier prefix never changes.  The same
    object serves every consumer: ``lift(n)`` reads the running product
    g_n = prod_{k<n} (x - a_k) modulo p^W, and ``basis_values`` the tables
    of ``basis_tables``, which are built only when first asked for.
    ``numerators`` holds the exact integers L a_n, with ``scale`` = L the
    lcm of the set's centre denominators (1 for a ball union).
    """

    def __init__(self, s: CompactSet):
        self.prime, self.set = s.prime, s
        self.points: Tuple[Point, ...] = ()
        self.numerators: Tuple[int, ...] = ()
        self.w: Tuple[int, ...] = ()
        self.scale, self._steps = _ordering_steps(s)
        self._g = [1]  # g_k modulo p^W, k = len(self._g) - 1
        self._lift_prec = self._table_prec = 0  # the W of g and the N of the tables
        self._pw: List[int] = []
        self._uinv: List[int] = []

    def length(self) -> int:
        return len(self.points) - 1

    def extend(self, length: int) -> "POrdering":
        """Pull steps until a_length is known; a finite set raises
        LengthExceedsSet when it has too few elements."""
        if length > self.length():
            if length >= self.set.size():
                raise LengthExceedsSet(
                    f"ordering of length {length} from a set of {self.set.size()} elements")
            nums, w = zip(*islice(self._steps, length - self.length()))
            self.numerators += nums
            self.points += nums if self.scale == 1 else tuple(
                Fraction(a, self.scale) for a in nums)
            self.w += w
        return self

    def lift(self, n: int) -> List[int]:
        """The integer numerators of ``rational_lift`` at degree n, lowest
        degree first, over p^w(n); pulls the ordering as far as n.

        g_n is kept modulo p^W; when w(n) passes W, W becomes max(w(n), 2W).
        """
        wn = self.extend(n).w[n]
        if wn > self._lift_prec:  # w(n) past W: multiply out afresh modulo more
            self._g, self._lift_prec = [1], max(wn, 2 * self._lift_prec)
        elif len(self._g) > n + 1:
            self._g = [1]  # a lower degree than the last: multiply out afresh
        mod = self.prime ** self._lift_prec
        for a in self.points[len(self._g) - 1:n]:
            self._g = _times_linear(self._g, residue(a, mod), mod)
        mod = self.prime ** wn
        return [c % mod for c in self._g[:-1]] + [1]  # g is monic, and so is the lift

    def basis_tables(self, n: int, digits: int) -> Tuple[Sequence[int], List[int], List[int]]:
        """The integer points L a_0..L a_n, and p^w(k) and u_k^-1 modulo p^N
        for k <= n, N = digits.

        u_k is the unit part of prod_{j<k} (L a_k - L a_j), read from that
        product modulo p^(N + w(k)); the points are exact, so this holds
        however large w(k) is.  A point x of the set enters the tables as
        L x.  The tables grow with the ordering and are rebuilt only for an N
        above every N asked for before.
        """
        self.extend(n)
        if digits > self._table_prec:
            self._table_prec, self._pw, self._uinv = digits, [], []
        p, small = self.prime, self.prime ** self._table_prec
        res = self.numerators
        for k in range(len(self._uinv), n + 1):
            pw = p ** self.w[k]
            mod = pw * small
            g = 1
            for b in res[:k]:
                g = g * ((res[k] - b) % mod) % mod
            self._pw.append(pw)
            self._uinv.append(pow(g // pw, -1, small))
        return res, self._pw, self._uinv

    def basis_values(self, x: Rat, n: int, digits: int) -> List[int]:
        """[f_k(x) mod p^N for k = 0..n] at a domain point x, N = digits.

        g_k(x) is divisible by p^w(k) there, so f_k(x) is
        prod_{j<k} (L x - L a_j) mod p^(N + w(k)), divided by p^w(k), times
        u_k^-1.
        """
        res, pw, uinv = self.basis_tables(n, digits)
        small = self.prime ** digits
        top = pw[n] * small
        x = residue(self.scale * x, top)
        out = [1]
        prefix = 1
        for k in range(1, n + 1):
            prefix = prefix * ((x - res[k - 1]) % top) % top
            out.append(prefix % (pw[k] * small) // pw[k] * uinv[k] % small)
        return out


def p_ordering(s: CompactSet, length: int) -> POrdering:
    """The p-ordering of s pulled to a_length; LengthExceedsSet past a finite set."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return POrdering(s).extend(length)


def _ordering_steps(s: CompactSet) -> Tuple[int, Iterator[Step]]:
    """(L, the steps (L a_n, w(n)) of s, n = 0, 1, ...); a finite set's run out.

    The centres are scaled by the lcm L of their denominators, which is 1
    for a ball union; L is a unit, so L(c + p^k Z_p) = Lc + p^k Z_p.
    """
    scale = lcm(*[c.denominator for c, _ in s.parts])
    return scale, _p_ordering_balls(
        s.prime, [(c.numerator * (scale // c.denominator), k) for c, k in s.parts])


def _p_ordering_balls(p: int, balls: Sequence[Tuple[int, int]]) -> Iterator[Step]:
    """The steps of the union E of the balls c + p^k Z_p, by Bhargava's recursion.

    A ball of radius k = INF is the point c, and one point alone is the one
    step (c, 0).  While every ball lies in one class r mod p, E = r + pE' is
    peeled into an offset, a scale p^j and the depth j, so
    w(n) = j n + w_inner(n).  The inner set is then Z_p (a ball of radius 0)
    or meets several classes mod p.  Its
    parts in the classes are sub-unions of it with fewer balls, so the
    recursion nests only at splits and never deeper than the number of balls.
    Each part's stream increases in (w, point): a point that tied at w with a
    smaller one would have been taken first.  So heapq.merge on (w, point)
    takes the least head each time.
    """
    if len(balls) == 1 and balls[0][1] == INF:
        yield balls[0][0], 0
        return
    offset, scale, depth = 0, 1, 0
    classes = {c % p for c, _ in balls}
    while len(classes) == 1 and all(k for _, k in balls):
        r = classes.pop()
        balls = [((c - r) // p, k - 1) for c, k in balls]
        offset, scale, depth = offset + scale * r, scale * p, depth + 1
        classes = {c % p for c, _ in balls}
    if all(k for _, k in balls):
        parts = [_p_ordering_balls(p, [b for b in balls if b[0] % p == r]) for r in classes]
        inner = merge(*parts, key=lambda step: (step[1], step[0]))
    else:  # the inner set is Z_p
        inner = ((n, v_of_factorial(n, p)) for n in count())
    for n, (a, v) in enumerate(inner):
        yield offset + scale * a, depth * n + v


def product_poly(o: POrdering, n: int) -> RatPoly:
    """The monic polynomial g_n = prod_{k<n} (x - a_k)."""
    g = RatPoly.constant(1)
    for a in o.points[:n]:
        g = g * RatPoly.make([-a, 1])
    return g


def basis_rational(o: POrdering, n: int) -> RatPoly:
    """f_n = prod_{k<n} (x - a_k)/(a_n - a_k) with exact rational coefficients."""
    if n > o.length():
        raise ValueError(f"degree {n} exceeds ordering length {o.length()}")
    den = Fraction(1)
    for a in o.points[:n]:
        den *= o.points[n] - a
    return product_poly(o, n).scale(1 / den)


def rational_lift(o: POrdering, n: int) -> RatPoly:
    """Monic integer lift h_n of g_n modulo p^w(n), divided by p^w(n).

    h_n has canonical coefficients in [0, p^w(n)) below the leading term; the
    returned rational polynomial maps the whole set into Z_p.
    """
    if n > o.length():
        raise ValueError(f"degree {n} exceeds ordering length {o.length()}")
    h = o.lift(n)
    return RatPoly.over(o.prime ** o.w[n], h)


def _times_linear(g: List[int], a: int, mod: int) -> List[int]:
    """(x - a) * g modulo mod; coefficients lowest degree first."""
    out = [-a * g[0] % mod]
    out.extend((c - a * d) % mod for c, d in zip(g, g[1:]))
    out.append(g[-1])
    return out


def local_membership(f: RatPoly, s: CompactSet) -> bool:
    """Whether f maps the set into Z_p, via values at p-ordering points.

    f of degree d maps the set into Z_p exactly when f(a_0), ..., f(a_d) lie
    in Z_p, at the points of its p-ordering (every element of a set with at
    most d + 1 elements).  With f = F/D, F integral, f(a) lies in Z_p
    exactly when F(a) = 0 mod p^v_p(D), so the values are tested on integer
    residues.  When p does not divide D, f maps all of Z_p into Z_p and no
    ordering is built.  No precision is involved.
    """
    p = s.prime
    den, num = f.integer_form()
    v = valp(den, p)
    if v == 0:
        return True
    d = f.degree()
    if d >= s.size():
        pts: List[Point] = [x for x, _ in s.parts]
    else:
        pts = list(p_ordering(s, d).points)
    mod = p ** v
    num = [c % mod for c in num]
    return all(horner_mod(num, residue(a, mod), mod) == 0 for a in pts)
