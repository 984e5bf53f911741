"""2-factor realization: partition [1, n] into cycles of prescribed lengths.

Any multiset of parts >= 3 summing to n >= 7 is realizable (orders 5 and 6
only admit the single full cycle).  The realization peels fixed blocks off
the low end of the interval: small combinations come from hand tables, a
single long part comes from a Hamilton cycle, and mixed multisets reduce by
one tabulated prefix block per step, ordered so that no step strands a
remainder with no block of its own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from .errors import Infeasible
from .graphs import Interval, TwoFactorWitness, certify
from .paths import _path_1m
from .transforms import shift_seq

# ---------------------------------------------------------------------------
# Fixed blocks on [1, size].  Each entry lists cycles covering the interval
# exactly.  Names give the length multiset.

_TWO_C4 = ((1, 3, 8, 6), (2, 5, 7, 4))
_THREE_C4 = ((1, 3, 10, 8), (2, 5, 12, 7), (9, 11, 6, 4))
_C3_C4 = ((1, 3, 6), (2, 5, 7, 4))
_C3_2C4 = ((1, 3, 8), (4, 6, 9, 11), (2, 5, 10, 7))
_TWO_C3_C4 = ((1, 3, 8), (4, 6, 9), (2, 5, 10, 7))
_TWO_C3_C5 = ((1, 3, 8), (5, 10, 7), (2, 9, 11, 6, 4))
_THREE_C3 = ((1, 3, 8), (2, 5, 7), (4, 6, 9))
_FOUR_C3 = ((1, 3, 8), (2, 7, 9), (4, 6, 11), (5, 10, 12))
_THREE_C3_C4 = ((1, 3, 8), (2, 7, 9), (5, 10, 12), (4, 6, 13, 11))
_FIVE_C3 = ((1, 3, 6), (2, 4, 15), (5, 7, 10), (8, 11, 13), (9, 12, 14))

_C3_WITH: dict[int, tuple[tuple[int, ...], ...]] = {
    4: _C3_C4,
    5: ((2, 5, 7), (1, 3, 8, 6, 4)),
    6: ((1, 3, 8), (2, 5, 7, 9, 6, 4)),
    7: ((1, 3, 8), (2, 5, 10, 7, 9, 6, 4)),
    8: ((1, 3, 8), (2, 5, 10, 7, 9, 11, 6, 4)),
}

_C4_WITH: dict[int, tuple[tuple[int, ...], ...]] = {
    5: ((1, 3, 8, 6), (2, 5, 7, 9, 4)),
    6: ((1, 3, 8, 6), (2, 5, 10, 7, 9, 4)),
    7: ((1, 3, 8, 6), (2, 5, 10, 7, 9, 11, 4)),
    8: ((1, 3, 8, 6), (2, 5, 10, 7, 12, 9, 11, 4)),
}


def _c3_with(big: int) -> tuple[tuple[int, ...], ...]:
    """{3, big} on [1, 3 + big]."""
    if big in _C3_WITH:
        return _C3_WITH[big]
    # big >= 9: triangle on {1, 3, 6}, the long cycle threads the rest via a
    # 7 -> 8 Hamilton path of [7, 3 + big] closed through 5 and wrapped back
    # to 2 and 4 (differences 2, 3, and 8 - 5 = 3).
    return ((1, 3, 6), (5, 2, 4) + _path_1m(big - 3, 2, 6))


def _c4_with(big: int) -> tuple[tuple[int, ...], ...]:
    """{4, big} on [1, 4 + big]."""
    if big in _C4_WITH:
        return _C4_WITH[big]
    return ((2, 5, 7, 4), (6, 1, 3) + _path_1m(big - 3, 2, 7))


def _two_c3_with(big: int) -> tuple[tuple[int, ...], ...]:
    """{3, 3, big} on [1, 6 + big]."""
    if big == 5:
        return _TWO_C3_C5
    return ((1, 3, 6), (2, 4, 7), (5,) + _path_1m(big - 1, 3, 7))


def _schedule_threes(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All parts equal to 3: a list of fixed blocks whose 3-counts sum to m."""
    blocks: list[tuple[tuple[int, ...], ...]] = []
    if m == 5:
        return [_FIVE_C3]
    if m % 3 == 1:
        blocks.append(_FOUR_C3)
        m -= 4
    elif m % 3 == 2:
        # m >= 8 here (m == 5 handled above, m == 2 is infeasible).
        blocks.append(_FOUR_C3)
        blocks.append(_FOUR_C3)
        m -= 8
    blocks.extend(_THREE_C3 for _ in range(m // 3))
    return blocks


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


def _realize(n: int, parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    counts = Counter(parts)
    threes = counts.pop(3, 0)
    fours = counts.pop(4, 0)
    big = sorted(counts.elements())

    cycles: list[tuple[int, ...]] = []
    lo = 1

    def place(*blocks: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Shift blocks built on [1, size] up to start at lo, in turn;
        returns every cycle placed so far."""
        nonlocal lo
        for block in blocks:
            shift = lo - 1
            for cyc in block:
                cycles.append(shift_seq(cyc, shift))
                lo += len(cyc)
        return cycles

    # Peel one 3 at a time, paired with a 4 while any is left, else with the
    # smallest long part, until a terminal block covers all that remains; no
    # peel strands one or two 3s without a non-3 part to pair with.
    while threes:
        nonthree = fours + len(big)
        if threes == 1 and fours == 2 and not big:
            return place(_C3_2C4)
        if threes == 2 and fours == 1 and not big:
            return place(_TWO_C3_C4)
        if threes == 2 and fours == 0 and len(big) == 1:
            return place(_two_c3_with(big[0]))
        if nonthree == 0:
            return place(*_schedule_threes(threes))
        if threes == 3 and nonthree == 1:
            if fours:
                return place(_THREE_C3_C4)
            return place(_THREE_C3, (_path_1m(big[0], 4),))
        if fours:
            place(_c3_with(4))
            fours -= 1
        else:
            place(_c3_with(big.pop(0)))
        threes -= 1

    while fours or big:
        if fours == 0:
            # Long parts only (all >= 5): each spans its own subinterval,
            # a 1 -> 4 Hamilton path closed by the difference 3.
            place((_path_1m(big.pop(0), 4),))
        elif fours == 3 and not big:
            place(_THREE_C4)
            fours = 0
        elif fours >= 2:
            place(_TWO_C4)
            fours -= 2
        else:
            # Exactly one 4: pair it with a long part (one exists, since a
            # lone {4} never reaches here: sum >= 7 forces company).
            place(_c4_with(big.pop(0)))
            fours = 0
    return cycles


def two_factor(n: int, lengths: Iterable[int]) -> TwoFactorWitness:
    """Partition [1, n] into prime-difference cycles of the given lengths.

    Realizable for every valid multiset once n >= 7; orders 5 and 6 admit
    only the single Hamilton cycle, and below 5 nothing at all.
    """
    parts = _validate_spec(n, lengths)
    if n < 5:
        raise Infeasible(f"no 2-factor at order {n}", n=n)
    if len(parts) == 1:
        cycles = [_path_1m(n, 4)]  # a 1 -> 4 path closes with difference 3
    elif n <= 6:
        raise Infeasible(
            f"order {n} admits only the single full cycle", n=n, lengths=parts
        )
    else:
        cycles = _realize(n, parts)
    return certify(TwoFactorWitness(Interval(1, n), tuple(cycles)), expected_lengths=parts)
