"""Small-number primality and prime-power utilities.

Slim NoC parameters ``q`` are tiny prime powers (q <= 37 in the paper's
analyses), so straightforward trial division is both adequate and the most
readable choice for single numbers.  Enumerating every prime power up to a
bound (Table 2 scans to N = 1300) uses a sieve instead.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Return True when ``n`` is a prime number."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    divisor = 3
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 2
    return True


def factor_prime_power(n: int) -> tuple[int, int]:
    """Decompose ``n`` as ``p ** m`` with ``p`` prime.

    Raises:
        ValueError: when ``n`` is not a prime power.
    """
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        if n % p != 0:
            continue
        m = 0
        remaining = n
        while remaining % p == 0:
            remaining //= p
            m += 1
        if remaining != 1:
            raise ValueError(f"{n} is not a prime power")
        return p, m
    raise ValueError(f"{n} is not a prime power")


def is_prime_power(n: int) -> bool:
    """Return True when ``n`` is ``p ** m`` for a prime ``p`` and ``m >= 1``."""
    try:
        factor_prime_power(n)
    except ValueError:
        return False
    return True


def prime_powers_up_to(limit: int) -> list[int]:
    """All prime powers ``<= limit`` in increasing order (excluding 1).

    A sieve of Eratosthenes finds the primes; each prime then flags its
    own powers, so no number is factored.
    """
    if limit < 2:
        return []
    prime = bytearray([1]) * (limit + 1)
    power = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if not prime[p]:
            continue
        prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        q = p
        while q <= limit:
            power[q] = 1
            q *= p
    return [n for n, flagged in enumerate(power) if flagged]
