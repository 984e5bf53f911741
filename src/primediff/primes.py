"""Primality queries, prime pair decompositions, and prime progressions.

A single module-level sieve backs all queries and grows on demand, so callers
never size it up front.
"""

from __future__ import annotations

import threading
from itertools import compress
from math import isqrt


def _sieve_flags(limit: int) -> bytearray:
    """Byte flags for 0..limit, flag[k] == 1 iff k is prime."""
    flags = bytearray(limit + 1)
    if limit >= 2:
        flags[2:] = b"\x01" * (limit - 1)
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
    return flags


_lock = threading.Lock()
_flags = _sieve_flags(1 << 10)


def _ensure(limit: int) -> None:
    """Grow the shared sieve to cover `limit`; doubling keeps it amortized."""
    global _flags
    if limit < len(_flags):
        return
    with _lock:
        if limit < len(_flags):
            return
        _flags = _sieve_flags(max(limit, 2 * (len(_flags) - 1)))


def is_prime(k: int) -> bool:
    """Primality against the shared sieve, growing it as needed."""
    if k < 2:
        return False
    _ensure(k)
    return bool(_flags[k])


def prime_flags(limit: int) -> bytearray:
    """Primality bitmap valid for indices 0..limit (treat as read-only).

    The buffer is replaced, never mutated, when the sieve grows, so a
    reference obtained here stays internally consistent.
    """
    _ensure(limit)
    return _flags


def prime_pair_decompositions(n: int) -> list[tuple[int, int]]:
    """All (p, q) with p < q, both prime, p + q = n, ascending in p.

    Equal parts are excluded: n = 2p contributes nothing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _ensure(n)
    flags = _flags
    return [
        (p, n - p)
        for p in range(2, (n - 1) // 2 + 1)
        if flags[p] and flags[n - p]
    ]


def prime_arithmetic_progression(
    k: int, search_limit: int, *, least_end_sum: bool = False
) -> tuple[int, ...] | None:
    """Smallest k-term progression of primes with positive common difference.

    "Smallest" means lexicographically by (first term, difference); with
    `least_end_sum`, it means the least sum of the first and last terms, ties
    going to the lexicographically smaller.  Both the first term and the
    difference are capped by `search_limit`; term values may reach
    first + (k-1)*difference, and the sieve grows to cover them.  Returns None
    when the search box is exhausted (limits 0 and 1 give an empty box); a
    negative limit is a ValueError.

    Wheel: the difference d steps by W, the product of the primes below k,
    and by W*k when k is prime and the first term a is above k.  Every
    prime l < k divides d whatever a: were a = l, term l would be a larger
    multiple of l; were a < l for the least l that does not divide d, the
    one multiple of l among the terms would be l itself, so
    l >= a + d >= 2 + (product of the primes below l) > l; were a > l, that
    multiple would exceed l.  A prime k with a > k divides d for the last
    reason.  So once W passes the limit the box is empty, and the sieve is
    not grown for it.

    Only prime first terms are visited, and each difference is probed with
    one strided slice of the sieve holding its k - 1 later terms.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if search_limit < 0:
        raise ValueError(f"search limit must be nonnegative, got {search_limit}")
    if search_limit < 2:
        return None
    if k == 1:
        return (2,)
    wheel = 1
    for p in range(2, k):
        if is_prime(p):
            wheel *= p
            if wheel > search_limit:
                return None
    _ensure(search_limit * k)
    flags = _flags
    past_k = wheel * k if flags[k] else wheel
    best = None
    for first in compress(range(search_limit + 1), flags[: search_limit + 1]):
        # Once one is found, only differences that give a smaller end sum.
        top = search_limit if best is None else min(search_limit, (best[0] + best[-1] - 2 * first - 1) // (k - 1))
        if top < 1:
            break
        step = past_k if first > k else wheel
        for d in range(step, top + 1, step):
            # The sieve covers limit * k >= first + (k - 1) * d, so the slice
            # holds all k - 1 later terms and never runs off its end.
            if 0 not in flags[first + d : first + k * d : d]:
                best = tuple(range(first, first + k * d, d))
                if not least_end_sum:
                    return best
                break
    return best
