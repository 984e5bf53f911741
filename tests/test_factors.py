"""Cycle-cover realization: spec enumeration, totality, oracle agreement."""

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primediff.errors import Infeasible
from primediff.factors import _BLOCKS, enumerate_specs, two_factor
from primediff.graphs import verify_two_factor
from primediff.oracle import brute_two_factor_exists
from primediff.paths import path_1_to_m
from primediff.primes import prime_flags
from primediff.transforms import shift


def test_enumerate_specs_goldens():
    assert list(enumerate_specs(6)) == [(6,), (3, 3)]
    assert list(enumerate_specs(7)) == [(7,), (3, 4)]
    assert list(enumerate_specs(9)) == [(9,), (3, 6), (4, 5), (3, 3, 3)]
    assert list(enumerate_specs(3)) == [(3,)]
    assert list(enumerate_specs(2)) == []
    assert [s for s in enumerate_specs(12) if len(s) <= 2] == [
        (12,),
        (3, 9),
        (4, 8),
        (5, 7),
        (6, 6),
    ]


def test_enumerate_specs_properties():
    for n in range(3, 40):
        specs = list(enumerate_specs(n))
        assert len(set(specs)) == len(specs)
        for s in specs:
            assert sum(s) == n
            assert all(p >= 3 for p in s)
            assert tuple(sorted(s)) == s
        # part-count-major ordering
        counts = [len(s) for s in specs]
        assert counts == sorted(counts)


def test_golden_realizations():
    assert two_factor(7, (3, 4)).cycles == ((1, 3, 6), (2, 5, 7, 4))
    assert two_factor(11, (3, 4, 4)).cycles == ((1, 3, 8), (4, 6, 9, 11), (2, 5, 10, 7))


def test_invalid_specs():
    with pytest.raises(Infeasible):
        two_factor(10, (3, 4))  # wrong sum
    with pytest.raises(Infeasible):
        two_factor(10, (2, 8))  # part below 3
    with pytest.raises(Infeasible):
        two_factor(10, ())
    with pytest.raises(Infeasible):
        two_factor(4, (4,))


def test_small_orders_admit_only_the_full_cycle():
    assert verify_two_factor(two_factor(5, (5,)), expected_lengths=(5,))
    assert verify_two_factor(two_factor(6, (6,)), expected_lengths=(6,))
    with pytest.raises(Infeasible):
        two_factor(6, (3, 3))
    assert not brute_two_factor_exists(6, (3, 3))


@pytest.mark.parametrize("n", range(7, 41))
def test_totality_sweep(n):
    for spec in enumerate_specs(n):
        w = two_factor(n, spec)
        assert w.lengths == tuple(sorted(spec))
        assert verify_two_factor(w, expected_lengths=spec)


@pytest.mark.parametrize("n", range(7, 15))
def test_constructor_agrees_with_oracle(n):
    for spec in enumerate_specs(n):
        assert brute_two_factor_exists(n, spec), (n, spec)
        two_factor(n, spec)  # self-verifying


def test_lengths_given_in_any_order():
    w = two_factor(12, (5, 3, 4))
    assert w.lengths == (3, 4, 5)


@given(st.integers(min_value=7, max_value=90), st.data())
def test_random_spec_property(n, data):
    # Drawn part by part: each part either ends the spec or leaves at least
    # 3 for the rest, so every spec of n can be drawn in any part order.
    parts = []
    rest = n
    while rest:
        last = st.just(rest)
        part = data.draw(last if rest < 6 else st.integers(3, rest - 3) | last)
        parts.append(part)
        rest -= part
    spec = tuple(sorted(parts))
    w = two_factor(n, spec)
    assert verify_two_factor(w, expected_lengths=spec)
    assert w.interval.order == n


def test_realize_is_linear_in_the_part_count():
    # Each long part costs O(1) to peel besides its own cycle, so 4x the
    # parts takes about 4x the time; a peel that is O(k) per part makes the
    # ratio approach 16.  CPU time of the process, best of 4 interleaved
    # pairs, so that a busy host slows both sizes alike and barely at all.
    def cpu(k):
        t0 = time.process_time()
        two_factor(5 * k, (5,) * k)
        return time.process_time() - t0

    small, large = zip(*((cpu(25_000), cpu(100_000)) for _ in range(4)))
    ratio = min(large) / min(small)
    assert ratio < 6, f"time ratio {ratio:.1f} for 4x the parts"


def test_realize_builds_each_piece_in_place():
    # A spec shaped like perfbench witness-large's: many 3s and 4s, then long
    # parts.  Each vertex int is made once, at its offset, so the peak stays
    # near the result's size; a piece built on [1, size] and then shifted
    # into place would hold each long cycle twice (about 1.8x the result).
    n = 2 * 10**5
    spec = (3,) * 303 + (4,) * 300 + (n // 16, n // 8)
    spec += (n - sum(spec),)
    prime_flags(n)
    tracemalloc.start()
    try:
        w = two_factor(n, spec)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.interval.order == n
    assert peak < 1.4 * size, f"peak {peak} bytes for a {size}-byte result"


def _path(n, m, k=0):
    """The path of [k+1, k+n] from k+1 to k+m."""
    return shift(path_1_to_m(n, m), k).sequence


def _concatenated_pieces(short, x, k):
    """The cycles of a long part x beside the short cycles `short` at offset
    k, as head + path tuples: the formulas the table rows must reproduce."""
    if short == (3,):
        return ((k + 1, k + 3, k + 6), (k + 5, k + 2, k + 4) + _path(x - 3, 2, k + 6))
    if short == (4,):
        return ((k + 2, k + 5, k + 7, k + 4), (k + 6, k + 1, k + 3) + _path(x - 3, 2, k + 7))
    if short == (3, 3):
        return ((k + 1, k + 3, k + 6), (k + 2, k + 4, k + 7), (k + 5,) + _path(x - 1, 3, k + 7))
    return (_path(x, 4, k),)


# For each piece: a prefix spec that is placed first, its cycles, and the
# least x for which the piece follows it.
_PIECE_PREFIXES = {
    (3,): ((3, 4), _BLOCKS[3, 4], 9),
    (4,): ((4, 4), _BLOCKS[4, 4], 9),
    (3, 3): ((3, 4), _BLOCKS[3, 4], 6),
    (): ((5,), (_path(5, 4),), 5),
}


@pytest.mark.parametrize("short", list(_PIECE_PREFIXES), ids=str)
def test_long_part_pieces_match_the_concatenated_formulas(short):
    # The specs (3, x), (4, x), (3, 3, x) and (x,) for every valid x up to
    # 300 (a stored block where one exists), and each piece again at the
    # offset k of a prefix placed before it.
    for x in range(3, 301):
        spec = tuple(sorted(short + (x,)))
        n = sum(spec)
        if n < 5 or (n <= 6 and len(spec) > 1):
            continue
        expected = _BLOCKS.get(spec) or _concatenated_pieces(short, x, 0)
        assert two_factor(n, spec).cycles == expected, spec
    prefix, prefix_cycles, low = _PIECE_PREFIXES[short]
    k = sum(prefix)
    for x in range(low, 301):
        spec = tuple(sorted(prefix + short + (x,)))
        expected = prefix_cycles + _concatenated_pieces(short, x, k)
        assert two_factor(sum(spec), spec).cycles == expected, spec


_LARGE_MIXED_SPECS = [
    (3, 3, 3, 4, 4, 5, 7, 11, 360),
    (3,) * 7 + (4,) * 5 + (50, 929),
    (3,) * 10 + (4,) * 3 + (6, 8, 9, 10, 1925),
    (3,) * 300 + (97,),
    (4,) * 248 + (5, 9),
    (3, 3, 500),
    (3, 4, 4, 777),
    (3, 3, 3, 1000),
    (3, 3, 4, 17, 400),
]


def _realization_lines():
    for n in range(7, 45):
        for spec in enumerate_specs(n):
            yield f"{n} {spec}: {two_factor(n, spec).cycles}"
    for spec in _LARGE_MIXED_SPECS:
        n = sum(spec)
        yield f"{n} {spec}: {two_factor(n, spec).cycles}"


def test_realizations_are_pinned():
    # Every 2-factor at orders 7-44 (22k specs) and a few large mixed specs:
    # the block schedule may be restructured, its cycles must not change.
    digest = hashlib.sha256("\n".join(_realization_lines()).encode()).hexdigest()
    assert digest == "4d8be02f62845c6146b7290299e51d8b3c9637b7d183650d3071096ea96f1e3f"
