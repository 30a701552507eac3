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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
