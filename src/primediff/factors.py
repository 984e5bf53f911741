"""2-factor realization: partition [1, n] into cycles of prescribed lengths.

Any multiset of parts >= 3 summing to n >= 7 is realizable (orders 5 and 6
only admit the single full cycle).  The realization peels pieces off the low
end of the interval.  A remainder that `_BLOCKS` holds is placed whole; any
other sheds one piece by a fixed rule: 3s in fours or threes when nothing
else is left, a 3 paired with a 4 or with the smallest long part, a pair of
4s, a 4 with the smallest long part, or a long part alone as a Hamilton
cycle.  The pairings come from `_BLOCKS` when it holds them, else from a
generic formula, and no step strands a remainder with no block of its own.
Every piece is written once at its offset k: a stored vertex v becomes k + v,
and a long cycle's path is appended by `paths._ham_fill` at the same offset.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import Infeasible
from .graphs import Interval, TwoFactorWitness, certify
from .paths import _ham_fill

# ---------------------------------------------------------------------------
# Hand-built blocks.  _BLOCKS[lengths] lists cycles of those lengths covering
# [1, sum(lengths)] exactly; keys are sorted length multisets.

_BLOCKS: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {
    # The terminal remainders of the peel: mixes of 3s and 4s, runs of 3s.
    (4, 4): ((1, 3, 8, 6), (2, 5, 7, 4)),
    (4, 4, 4): ((1, 3, 10, 8), (2, 5, 12, 7), (9, 11, 6, 4)),
    (3, 4): ((1, 3, 6), (2, 5, 7, 4)),
    (3, 4, 4): ((1, 3, 8), (4, 6, 9, 11), (2, 5, 10, 7)),
    (3, 3, 4): ((1, 3, 8), (4, 6, 9), (2, 5, 10, 7)),
    (3, 3, 3, 4): ((1, 3, 8), (2, 7, 9), (5, 10, 12), (4, 6, 13, 11)),
    (3, 3, 3): ((1, 3, 8), (2, 5, 7), (4, 6, 9)),
    (3, 3, 3, 3): ((1, 3, 8), (2, 7, 9), (4, 6, 11), (5, 10, 12)),
    (3, 3, 3, 3, 3): ((1, 3, 6), (2, 4, 15), (5, 7, 10), (8, 11, 13), (9, 12, 14)),
    # A 3 or a 4 with a long part too short for the generic formulas below.
    (3, 5): ((2, 5, 7), (1, 3, 8, 6, 4)),
    (3, 6): ((1, 3, 8), (2, 5, 7, 9, 6, 4)),
    (3, 7): ((1, 3, 8), (2, 5, 10, 7, 9, 6, 4)),
    (3, 8): ((1, 3, 8), (2, 5, 10, 7, 9, 11, 6, 4)),
    (3, 3, 5): ((1, 3, 8), (5, 10, 7), (2, 9, 11, 6, 4)),
    (4, 5): ((1, 3, 8, 6), (2, 5, 7, 9, 4)),
    (4, 6): ((1, 3, 8, 6), (2, 5, 10, 7, 9, 4)),
    (4, 7): ((1, 3, 8, 6), (2, 5, 10, 7, 9, 11, 4)),
    (4, 8): ((1, 3, 8, 6), (2, 5, 10, 7, 12, 9, 11, 4)),
}
_KEY_PARTS = max(map(len, _BLOCKS))  # remainders with more parts skip the lookup,
_KEY_PART = max(map(max, _BLOCKS))  # and so do those with a longer part


# A long part beside a few short cycles.  _LONG[short] = (cycles, head, j, d,
# m): the short cycles of lengths `short`, then a long cycle of length big
# made of the head and the Hamilton path of [j+1, j+big-d] from j+1 to j+m,
# together covering [1, sum(short) + big].
_LONG: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, int, int]] = {
    # big >= 9.  Triangle {1, 3, 6}; the long cycle runs 5, 2, 4, the 7 -> 8
    # path of [7, 3 + big], and back to 5 (differences 3, 2, 3 and 3).
    (3,): (((1, 3, 6),), (5, 2, 4), 6, 3, 2),
    (4,): (((2, 5, 7, 4),), (6, 1, 3), 7, 3, 2),  # big >= 9
    (3, 3): (((1, 3, 6), (2, 4, 7)), (5,), 7, 1, 3),  # big >= 6
    # A long part alone: a 1 -> 4 path closed by the difference 3.
    (): ((), (), 0, 0, 4),
}


def _block(out: list[tuple[int, ...]], key: tuple[int, ...], k: int) -> int | None:
    """Append _BLOCKS[key] on [k+1, k+sum(key)] to out and return k + sum(key);
    None, with nothing appended, if it has no row."""
    block = _BLOCKS.get(key)
    if block:
        out += [tuple([k + v for v in c]) for c in block]
        return k + sum(key)


def _long(out: list[tuple[int, ...]], short: tuple[int, ...], big: int, k: int) -> int:
    """Append the `_LONG[short]` piece with long part big on [k+1, k+size] to
    out and return k + size, where size = sum(short) + big."""
    cycles, head, j, d, m = _LONG[short]
    out += [tuple([k + v for v in c]) for c in cycles]
    cycle = [k + v for v in head]
    _ham_fill(cycle, big - d, 1, m, k + j, 1)
    out.append(tuple(cycle))
    return k + sum(short) + big


# ---------------------------------------------------------------------------


def enumerate_specs(n: int) -> Iterator[tuple[int, ...]]:
    """All multisets of parts >= 3 summing to n, ascending within each.

    Ordered by part count, then lexicographically.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def ascending(total: int, k: int, low: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            if total >= low:
                yield (total,)
            return
        for first in range(low, total // k + 1):
            for rest in ascending(total - first, k - 1, first):
                yield (first, *rest)

    for k in range(1, n // 3 + 1):
        yield from ascending(n, k, 3)


def _validate_spec(n: int, lengths: Iterable[int]) -> tuple[int, ...]:
    parts = tuple(sorted(lengths))
    if not parts:
        raise Infeasible("empty length multiset", n=n)
    if any(p < 3 for p in parts):
        raise Infeasible(f"cycle lengths must be at least 3, got {min(parts)}", n=n, lengths=parts)
    if sum(parts) != n:
        raise Infeasible(f"lengths sum to {sum(parts)}, need {n}", n=n, lengths=parts)
    return parts


def _realize(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles covering [1, sum(parts)] with the sorted lengths `parts`."""
    threes = parts.count(3)
    fours = parts.count(4)
    big = list(reversed(parts[threes + fours :]))  # long parts, smallest last

    cycles: list[tuple[int, ...]] = []
    k = 0  # vertices placed so far: the next piece starts at k + 1
    while threes or fours or big:
        if threes + fours + len(big) <= _KEY_PARTS and (not big or big[0] <= _KEY_PART):
            if _block(cycles, (3,) * threes + (4,) * fours + tuple(reversed(big)), k):
                break
        if threes and fours:
            k = _block(cycles, (3, 4), k)
            threes -= 1
            fours -= 1
        elif threes and not big:
            take = 4 if threes % 3 else 3
            k = _block(cycles, (3,) * take, k)
            threes -= take
        # Two or three 3s beside one long part end here: pairing a 3 with
        # the long part would strand the others.
        elif threes == 2 and len(big) == 1:
            k = _long(cycles, (3, 3), big.pop(), k)
            threes = 0
        elif threes == 3 and len(big) == 1:
            k = _block(cycles, (3, 3, 3), k)
            threes = 0
        elif threes:
            x = big.pop()
            k = _block(cycles, (3, x), k) or _long(cycles, (3,), x, k)
            threes -= 1
        elif fours >= 2:
            k = _block(cycles, (4, 4), k)
            fours -= 2
        elif fours:
            # A lone 4 has a long part for company: a sum of 4 is no order.
            x = big.pop()
            k = _block(cycles, (4, x), k) or _long(cycles, (4,), x, k)
            fours = 0
        else:
            # Each long part spans its own subinterval.
            k = _long(cycles, (), big.pop(), k)
    return cycles


def two_factor(n: int, lengths: Iterable[int]) -> TwoFactorWitness:
    """Partition [1, n] into prime-difference cycles of the given lengths.

    Realizable for every valid multiset once n >= 7; orders 5 and 6 admit
    only the single Hamilton cycle, and below 5 nothing at all.
    """
    parts = _validate_spec(n, lengths)
    if n < 5:
        raise Infeasible(f"no 2-factor at order {n}", n=n)
    if n <= 6 and len(parts) > 1:
        raise Infeasible(
            f"order {n} admits only the single full cycle", n=n, lengths=parts
        )
    return certify(TwoFactorWitness(Interval(1, n), tuple(_realize(parts))), expected_lengths=parts)
