"""Independent output checker for the benchmark.

Shares no code with `primediff.graphs`: it has its own sieve and works on
plain integer sequences, so a bug in the library's verifiers cannot hide a bad
witness from the benchmark.  Every check returns None when the output is
correct, or a short reason string when it is not.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import isqrt
from operator import sub


class Sieve:
    """Byte flags for 0..limit: flags[k] == 1 iff k is prime."""

    def __init__(self, limit: int):
        flags = bytearray(limit + 1)
        if limit >= 2:
            flags[2:] = b"\x01" * (limit - 1)
            for p in range(2, isqrt(limit) + 1):
                if flags[p]:
                    flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.flags = flags

    def primes(self, hi: int) -> list[int]:
        """Primes up to hi."""
        return list(compress(range(hi + 1), self.flags[: hi + 1]))


def _cover(seq, lo: int, hi: int) -> str | None:
    n = hi - lo + 1
    if len(seq) != n or len(set(seq)) != n or min(seq) != lo or max(seq) != hi:
        return "not a permutation of the interval"
    return None


def _steps(sieve: Sieve, seq, closed: bool, allowed=None) -> str | None:
    """Every consecutive difference (and the wrap-around one, if closed) is
    prime, and in `allowed` if given.  Checks each distinct difference once."""
    steps = set(map(sub, seq[1:], seq))
    if closed:
        steps.add(seq[0] - seq[-1])
    diffs = set(map(abs, steps))
    flags = sieve.flags
    if max(diffs) >= len(flags) or not all(flags[d] for d in diffs):
        return "non-prime difference"
    if allowed is not None and not diffs <= set(allowed):
        return "difference outside the allowed set"
    return None


def path(sieve: Sieve, seq, lo: int, hi: int, endpoints=None) -> str | None:
    """Hamilton path of [lo, hi], optionally between the given endpoints."""
    why = _cover(seq, lo, hi) or _steps(sieve, seq, closed=False)
    if why is None and endpoints is not None and (seq[0], seq[-1]) != tuple(endpoints):
        why = "wrong endpoints"
    return why


def cycle(sieve: Sieve, seq, lo: int, hi: int, required_edge=None, allowed=None) -> str | None:
    """Hamilton cycle of [lo, hi], optionally through an edge and with only
    the allowed differences."""
    why = _cover(seq, lo, hi)
    if why is None and len(seq) < 3:
        why = "cycle shorter than 3"
    why = why or _steps(sieve, seq, closed=True, allowed=allowed)
    if why is None and required_edge is not None:
        u, v = required_edge
        i = seq.index(u)
        if v not in (seq[i - 1], seq[(i + 1) % len(seq)]):
            why = "missing required edge"
    return why


def two_factor(sieve: Sieve, cycles, lo: int, hi: int, lengths) -> str | None:
    """Disjoint prime-difference cycles covering [lo, hi] with the given
    length multiset."""
    if Counter(map(len, cycles)) != Counter(lengths):
        return "wrong length multiset"
    if any(len(c) < 3 for c in cycles):
        return "cycle shorter than 3"
    why = _cover([v for c in cycles for v in c], lo, hi)
    for c in cycles:
        why = why or _steps(sieve, c, closed=True)
    return why


def family(sieve: Sieve, cycles, lo: int, hi: int, allowed=None) -> str | None:
    """Pairwise edge-disjoint Hamilton cycles of [lo, hi].

    Two cycles can share the edge {u, v} only if both step by |u - v|, so
    edges are marked by lower end in one bytearray per difference.
    `allowed`, if given, holds one allowed-difference set per cycle.
    """
    used: dict[int, bytearray] = {}
    for k, seq in enumerate(cycles):
        why = cycle(sieve, seq, lo, hi, allowed=None if allowed is None else allowed[k])
        if why:
            return f"cycle {k}: {why}"
        for u, v in zip(seq, [*seq[1:], seq[0]]):
            d, low = (v - u, u) if v > u else (u - v, v)
            marks = used.get(d)
            if marks is None:
                marks = used[d] = bytearray(hi + 1)
            if marks[low]:
                return "shared edge"
            marks[low] = 1
    return None
