"""Small integer helpers shared across modules."""
from __future__ import annotations

from typing import List


def primes_up_to(n: int) -> List[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def v_of_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    out, q = 0, p
    while q <= n:
        out += n // q
        q *= p
    return out


def strip_primes(n: int, primes) -> int:
    """n with every factor of the given primes divided out."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


#: Miller-Rabin with the prime bases up to 41 is exact below this bound
#: (Sorenson and Webster, Math. Comp. 86 (2017)).
MILLER_RABIN_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises ValueError for n >= MILLER_RABIN_BOUND without a factor up to 41,
    where these bases no longer decide primality.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality of {n} is not decided at or above {MILLER_RABIN_BOUND}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
