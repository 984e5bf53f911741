"""Primality queries, prime pair decompositions, and prime progressions.

A single module-level sieve backs all queries and grows on demand, so callers
never size it up front.
"""

from __future__ import annotations

import threading
from math import isqrt


# Flags of 0..29 for the residues prime to 2, 3 and 5.
_WHEEL30 = bytes(1 if i % 2 and i % 3 and i % 5 else 0 for i in range(30))


def _sieve_flags(limit: int) -> bytearray:
    """Byte flags for 0..limit, flag[k] == 1 iff k is prime.

    Starts from the period-30 pattern of the residues prime to 2, 3 and 5,
    so only the odd multiples of primes from 7 on are struck.
    """
    flags = bytearray(_WHEEL30) * (limit // 30 + 1)
    del flags[limit + 1 :]
    flags[1:6] = b"\x00\x01\x01\x00\x01"[: len(flags) - 1]
    for p in range(7, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes((limit - p * p) // (2 * p) + 1)
    return flags


_BLOCK = 1 << 10  # first terms tested together per difference

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
    not grown for it.  The first reason also rules out every first term
    a < k: term a of a, a + d, ... is a(1 + d).  So first terms run from k.

    Blocks: first terms are taken _BLOCK at a time, in ascending order; a
    prime k is a first-term block of its own, stepping by W.  For each
    difference d of a block, in ascending order, the k sieve windows
    flags[lo + j*d : hi + j*d] are read as integers and ANDed; byte i of the
    result is set iff lo + i starts a progression of k primes with
    difference d, so its lowest set byte is the block's least such first
    term.  Lexicographically, later differences of the block look only below
    the least first term found, and the first block with a hit ends the
    search.  For the least end sum, each window is cut to the first terms a
    with 2a + (k-1)d at most the best sum so far (a tie keeps the smaller
    first term), and the search ends at the first block whose least first
    term cannot beat the best sum with the block's least difference.
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
    end = search_limit + 1
    k_prime = flags[k]
    blocks = [(k, k + 1, wheel)] if k_prime and k < end else []
    past_k = wheel * k if k_prime else wheel
    blocks += ((lo, min(lo + _BLOCK, end), past_k) for lo in range(k + k_prime, end, _BLOCK))
    best = None  # (first + last, first, difference)
    for lo, top, step in blocks:
        if best is not None and 2 * lo + (k - 1) * step >= best[0]:
            break
        hi = top
        for d in range(step, end, step):
            if best is not None and least_end_sum:
                hi = min(top, (best[0] - (k - 1) * d) // 2 + 1)
            if hi <= lo:
                break
            # The sieve covers limit * k >= first + (k - 1) * d, so no
            # window runs off its end.
            hits = -1
            for j in range(0, k * d, d):
                hits &= int.from_bytes(flags[lo + j : hi + j], "little")
                if not hits:
                    break
            if hits:
                first = lo + ((hits & -hits).bit_length() >> 3)
                key = (2 * first + (k - 1) * d, first, d)
                if not least_end_sum:
                    best, hi = key, first
                elif best is None or key < best:
                    best = key
        if best is not None and not least_end_sum:
            break
    if best is None:
        return None
    _, first, d = best
    return tuple(range(first, first + k * d, d))
