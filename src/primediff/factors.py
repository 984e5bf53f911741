"""2-factor realization: partition [1, n] into cycles of prescribed lengths.

Any multiset of parts >= 3 summing to n >= 7 is realizable (orders 5 and 6
only admit the single full cycle).  The realization peels pieces off the low
end of the interval.  A remainder that `_BLOCKS` holds is placed whole; any
other sheds one piece by a fixed rule: 3s in fours or threes when nothing
else is left, a 3 paired with a 4 or with the smallest long part, a pair of
4s, a 4 with the smallest long part, or a long part alone as a Hamilton
cycle.  The pairings come from `_BLOCKS` when it holds them, else from a
generic formula, and no step strands a remainder with no block of its own.
Each piece is built in place at its offset k, as `_path_1m(n, m, k)` is;
only the `_BLOCKS` rows, stored on [1, size], are shifted as they are read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import Infeasible
from .graphs import Interval, TwoFactorWitness, certify
from .paths import _path_1m
from .transforms import shift_seq

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
_KEY_PARTS = max(map(len, _BLOCKS))  # longer remainders skip the lookup


def _block(key: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...] | None:
    """_BLOCKS[key] shifted onto [k+1, k+sum(key)], or None if it has no row."""
    block = _BLOCKS.get(key)
    return block and tuple(shift_seq(c, k) for c in block)


def _c3_with(big: int, k: int) -> tuple[tuple[int, ...], ...]:
    """{3, big} on [k+1, k+3+big], big >= 9."""
    # Triangle on {1, 3, 6}; the long cycle threads the rest via a 7 -> 8
    # Hamilton path of [7, 3 + big] closed through 5 and wrapped back to 2
    # and 4 (differences 2, 3, and 8 - 5 = 3).
    return ((k + 1, k + 3, k + 6), (k + 5, k + 2, k + 4) + _path_1m(big - 3, 2, k + 6))


def _c4_with(big: int, k: int) -> tuple[tuple[int, ...], ...]:
    """{4, big} on [k+1, k+4+big], big >= 9."""
    return ((k + 2, k + 5, k + 7, k + 4), (k + 6, k + 1, k + 3) + _path_1m(big - 3, 2, k + 7))


def _two_c3_with(big: int, k: int) -> tuple[tuple[int, ...], ...]:
    """{3, 3, big} on [k+1, k+6+big], big >= 6."""
    return ((k + 1, k + 3, k + 6), (k + 2, k + 4, k + 7), (k + 5,) + _path_1m(big - 1, 3, k + 7))


# ---------------------------------------------------------------------------


def enumerate_specs(n: int, max_parts: int | None = None) -> Iterator[tuple[int, ...]]:
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

    top = n // 3
    if max_parts is not None:
        top = min(top, max_parts)
    for k in range(1, top + 1):
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

    def place(block: tuple[tuple[int, ...], ...]) -> None:
        nonlocal k
        cycles.extend(block)
        k += sum(map(len, block))

    while threes or fours or big:
        if threes + fours + len(big) <= _KEY_PARTS:
            block = _block((3,) * threes + (4,) * fours + tuple(reversed(big)), k)
            if block:
                place(block)
                break
        if threes and fours:
            place(_block((3, 4), k))
            threes -= 1
            fours -= 1
        elif threes and not big:
            take = 4 if threes % 3 else 3
            place(_block((3,) * take, k))
            threes -= take
        # Two or three 3s beside one long part end here: pairing a 3 with
        # the long part would strand the others.
        elif threes == 2 and len(big) == 1:
            place(_two_c3_with(big.pop(), k))
            threes = 0
        elif threes == 3 and len(big) == 1:
            place(_block((3, 3, 3), k))
            threes = 0
        elif threes:
            x = big.pop()
            place(_block((3, x), k) or _c3_with(x, k))
            threes -= 1
        elif fours >= 2:
            place(_block((4, 4), k))
            fours -= 2
        elif fours:
            # A lone 4 has a long part for company: a sum of 4 is no order.
            x = big.pop()
            place(_block((4, x), k) or _c4_with(x, k))
            fours = 0
        else:
            # Each long part spans its own subinterval, a 1 -> 4 Hamilton
            # path closed by the difference 3.
            place((_path_1m(big.pop(), 4, k),))
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
