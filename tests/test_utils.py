"""Integer helpers: the primality test against a sieve and trial division."""
from __future__ import annotations

import pytest

from padelic.utils import MILLER_RABIN_BOUND, is_prime

from oracles import sieve_primes_below, trial_division_is_prime


def test_is_prime_matches_trial_division_below_a_million():
    # the sieve finds the same primes as trial division, in a fraction of the time
    assert [n for n in range(10 ** 6) if is_prime(n)] == sieve_primes_below(10 ** 6)


def test_is_prime_on_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n) and not trial_division_is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(1099511627689)


def test_is_prime_refuses_beyond_the_bound():
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        is_prime(10 ** 42 + 63)
    assert not is_prime(10 ** 42 + 64)  # a factor up to 41 still decides it
