"""Adelic orderings, and the scaling of a set into the integral adeles.

An adelic ordering is a p-ordering in every component.  Tracked components
keep the exact points of their own ``POrdering``; every untracked component
is the diagonal sequence 0, 1, 2, ..., so no point is stored for it.  Its
step valuations and exception primes are those of the set's default
(``AdelicSet.untracked_w``, ``untracked_primes``), so only the finitely many
primes where a step product fails to be a unit are ever materialized.
Membership in Int_Q(E, Z-hat) is the value criterion of ``global_membership``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import NoAdelicOrdering
from .ordering import POrdering, p_ordering
from .padic import Rat, residue, valp
from .sets import FULL, MAX_EXPONENT, AdelicSet, CompactSet
from .utils import is_prime


@dataclass(frozen=True)
class AdelicOrdering:
    """Sequence of adelic points that is a p-ordering in every component."""

    local: Dict[int, POrdering]
    exceptions: Tuple[Tuple[int, ...], ...]  # per index: primes with positive step valuation


def adelic_ordering(a: AdelicSet, length: int) -> AdelicOrdering:
    """Adelic ordering with `length` points (indices 0..length-1).

    Tracked components are the exact per-prime p-orderings; the point at
    index n of every untracked component is n.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    top = length - 1
    untracked = a.untracked_primes(top)
    if untracked is None:
        raise NoAdelicOrdering(
            "pZ_p default gives step valuation >= 1 at every untracked prime")
    local = {p: p_ordering(comp, top) for p, comp in a.tracked.items()}
    exceptions = []
    for n in range(length):
        exc = {p for p in untracked if p <= n}
        exc.update(p for p in local if local[p].w[n] > 0)
        exceptions.append(tuple(sorted(exc)))
    return AdelicOrdering(local=local, exceptions=tuple(exceptions))


def scale_into_z(components: Dict[int, Sequence[Tuple[Rat, int]]]
                 ) -> Tuple[int, AdelicSet]:
    """Minimal d with d*E inside the integral adeles, plus the scaled set.

    Input components are ball unions in Q_p, given as (center, radius
    exponent) with rational centers of possibly negative valuation.
    """
    for p in components:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not a prime")
    exps = {}
    for p, balls in components.items():
        if not balls:
            raise ValueError(f"empty component at {p}")
        low = min(min(valp(Fraction(c), p), k) if Fraction(c) != 0 else k
                  for c, k in balls)
        exps[p] = max(0, -low)
        if exps[p] + max(max(k for _, k in balls), 0) > MAX_EXPONENT:
            raise ValueError(f"exponents of {p} after scaling pass the cap {MAX_EXPONENT}")
    d = 1
    for p, e in sorted(exps.items()):
        d *= p ** e
    tracked = {}
    for p, balls in components.items():
        scaled = []
        for c, k in balls:
            k2 = k + exps[p]
            scaled.append((residue(Fraction(c) * d, p ** k2), k2))
        tracked[p] = CompactSet.from_balls(p, scaled)
    return d, AdelicSet(tracked=tracked, default=FULL)

