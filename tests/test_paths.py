"""Hamilton path constructors against stored rows, the oracle, and sweeps."""

import gc
import hashlib
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primediff.errors import Infeasible, NonEdge
from primediff.graphs import Interval, PathWitness, verify_cycle, verify_path
from primediff.oracle import brute_infeasible_pairs
from primediff.primes import prime_flags
from primediff.transforms import complement, reverse, shift
from primediff.paths import (
    EXCEPTION_PAIRS,
    ROWS,
    _ham_fill,
    _ham_seq,
    base_path_1_to_m,
    hamilton_cycle,
    hamilton_cycle_through_edge,
    hamilton_path,
    infeasible_pairs,
    path_1_to_m,
)
from test_acceptance import DERIVED_SMALL_ORDER_ROWS


def test_all_stored_rows_are_valid_paths():
    # exact endpoints and orientation: every row runs from a to b
    for (n, a, b), seq in ROWS.items():
        w = PathWitness(Interval(1, n), seq)
        assert verify_path(w, (a, b)), (n, a, b)


def test_derived_small_order_rows_reproduced():
    # rows no longer stored come out of the constructor exactly, in the
    # orientation asked for; their data lives with acceptance criterion 3
    for (n, (a, b)), seq in DERIVED_SMALL_ORDER_ROWS.items():
        assert {seq[0], seq[-1]} == {a, b}, (n, a, b)
        assert hamilton_path(n, seq[0], seq[-1]).sequence == seq, (n, a, b)
        assert hamilton_path(n, seq[-1], seq[0]).sequence == seq[::-1], (n, a, b)


def _error(build, *args) -> str:
    with pytest.raises((ValueError, Infeasible)) as e:
        build(*args)
    return f"{type(e.value).__name__}: {e.value}"


def test_base_range_validation():
    for m in (1, 7):
        assert _error(base_path_1_to_m, 12, m) == f"ValueError: base construction covers m in [2, 6], got {m}"
    for n in (3, 4):
        assert _error(base_path_1_to_m, n, 2) == f"ValueError: no base path for (n={n}, m=2)"
    assert _error(base_path_1_to_m, 5, 2) == "ValueError: no base path for (n=5, m=2)"
    assert base_path_1_to_m(12, 2).endpoints == (1, 2)


def test_path_1_to_m_small_order_feasibility():
    assert path_1_to_m(5, 3).sequence == (1, 4, 2, 5, 3)
    assert path_1_to_m(5, 4).sequence == (1, 3, 5, 2, 4)
    for m in (2, 5):
        assert _error(path_1_to_m, 5, m) == f"Infeasible: no Hamilton path from 1 to {m} at order 5"
    for n in (3, 4, 5, 9):
        for m in (0, 1, n + 1):
            assert _error(path_1_to_m, n, m) == f"ValueError: need 2 <= m <= n, got m={m}, n={n}"
    for n in (3, 4):
        for m in range(2, n + 1):
            assert _error(path_1_to_m, n, m) == f"ValueError: order {n} below the supported range"


@pytest.mark.parametrize("n", range(6, 90))
def test_path_1_to_m_sweep(n):
    for m in range(2, n + 1):
        w = path_1_to_m(n, m)
        assert verify_path(w, (1, m))


def test_exception_sets_match_oracle():
    for n in (5, 6, 7, 8):
        assert infeasible_pairs(n) == EXCEPTION_PAIRS[n]
        assert infeasible_pairs(n) == frozenset(brute_infeasible_pairs(n))
    for n in (9, 10, 11, 12):
        assert infeasible_pairs(n) == frozenset()
        assert brute_infeasible_pairs(n) == set()


def test_infeasible_pairs_read_the_table(monkeypatch):
    def no_building(*args):
        raise AssertionError("infeasible_pairs built a path")

    monkeypatch.setattr("primediff.paths._ham_seq", no_building)
    for n in (*range(5, 13), 10**6):
        assert infeasible_pairs(n) == EXCEPTION_PAIRS.get(n, frozenset())


@pytest.mark.parametrize("n", range(9, 36))
def test_all_pairs_feasible_from_order_nine(n):
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            w = hamilton_path(n, a, b)
            assert verify_path(w, (a, b))


def test_feasible_small_order_pairs():
    for n in (5, 6, 7, 8):
        bad = EXCEPTION_PAIRS[n]
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                if (a, b) in bad:
                    with pytest.raises(Infeasible):
                        hamilton_path(n, a, b)
                else:
                    assert verify_path(hamilton_path(n, a, b), (a, b))


def test_endpoint_order_is_respected():
    w = hamilton_path(11, 8, 3)
    assert w.endpoints == (8, 3)
    assert hamilton_path(11, 3, 8).sequence == w.sequence[::-1]


def test_argument_validation():
    with pytest.raises(ValueError):
        hamilton_path(4, 1, 2)
    with pytest.raises(ValueError):
        hamilton_path(9, 0, 5)
    with pytest.raises(ValueError):
        hamilton_path(9, 5, 10)
    with pytest.raises(ValueError):
        hamilton_path(9, 5, 5)
    with pytest.raises(ValueError):
        infeasible_pairs(4)


@given(st.integers(min_value=9, max_value=150), st.data())
def test_random_pair_property(n, data):
    a = data.draw(st.integers(min_value=1, max_value=n))
    b = data.draw(st.integers(min_value=1, max_value=n).filter(lambda x: x != a))
    w = hamilton_path(n, a, b)
    assert verify_path(w, (a, b))


def test_hamilton_cycle():
    for n in range(5, 40):
        assert verify_cycle(hamilton_cycle(n))
    for n in (1, 2, 3, 4):
        with pytest.raises(Infeasible):
            hamilton_cycle(n)
    with pytest.raises(ValueError):
        hamilton_cycle(0)


def test_cycle_through_edge():
    w = hamilton_cycle_through_edge(9, (2, 9))
    assert verify_cycle(w, required_edge=(2, 9))
    # order of the edge's ends does not matter
    assert verify_cycle(hamilton_cycle_through_edge(9, (9, 2)), required_edge=(2, 9))
    with pytest.raises(NonEdge):
        hamilton_cycle_through_edge(9, (1, 5))
    with pytest.raises(ValueError):
        hamilton_cycle_through_edge(9, (1, 10))
    with pytest.raises(ValueError):
        hamilton_cycle_through_edge(4, (1, 3))


@given(st.integers(min_value=5, max_value=60), st.data())
def test_cycle_through_every_edge_property(n, data):
    a = data.draw(st.integers(min_value=1, max_value=n - 1))
    choices = [b for b in range(1, n + 1) if b != a and abs(b - a) in (2, 3, 5, 7, 11, 13)]
    b = data.draw(st.sampled_from(choices))
    w = hamilton_cycle_through_edge(n, (a, b))
    assert verify_cycle(w, required_edge=(a, b))


# Endpoint pairs at n = 100 003 that reach every branch of _ham_seq: a = 1,
# the mirror, a >= 6 with b = a + 1 and otherwise, the split at vertex 6, and
# each fixed-prefix pair 2 <= a < b <= 6.
LARGE_N = 100_003
LARGE_PAIRS = (
    [(1, b) for b in (2, 3, 4, 5, 6, 7, 8, 11, 12, 50_000, 99_998, LARGE_N)]
    + [(a, b) for a in range(2, 6) for b in range(a + 1, 7)]
    + [(2, 7), (3, 99_999), (4, 8), (5, 60_000)]
    + [(6, 7), (6, 8), (500, 501), (50_000, 70_001), (7, 40_000)]
    + [(99_990, LARGE_N), (99_000, 99_001), (LARGE_N - 1, LARGE_N), (3, LARGE_N)]
    + [(LARGE_N, 1), (40_000, 7)]  # a > b: the reversed orientation
)


def _outcome(build) -> bytes:
    try:
        return array("q", build()).tobytes()
    except (Infeasible, ValueError) as e:
        return f"{type(e).__name__}: {e} {getattr(e, 'detail', None)}".encode()


def _construction_outcomes():
    for n in range(5, 121):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                yield b"ham %d %d %d" % (n, a, b), _outcome(lambda: _ham_seq(n, a, b))
        for m in range(2, n + 1):
            yield b"1m %d %d" % (n, m), _outcome(lambda: path_1_to_m(n, m).sequence)
        for m in range(2, 7):
            yield b"base %d %d" % (n, m), _outcome(lambda: base_path_1_to_m(n, m).sequence)
    for n in range(1, 121):
        yield b"cycle %d" % n, _outcome(lambda: hamilton_cycle(n).sequence)
    for a, b in LARGE_PAIRS:
        yield b"large %d %d" % (a, b), _outcome(lambda: hamilton_path(LARGE_N, a, b).sequence)


def test_constructions_are_pinned():
    # Every _ham_seq pair, every path_1_to_m and base path, and every
    # Hamilton cycle at orders 5-120 (Infeasible and ValueError messages
    # included), plus paths at n = 100 003 through each _ham_seq branch:
    # the builders may change, their sequences may not.
    h = hashlib.sha256()
    for key, outcome in _construction_outcomes():
        h.update(b"%s: %d %s\n" % (key, len(outcome), outcome))
    assert h.hexdigest() == "85b8ed568b4f1fca3bdbd1e5f9f54ff0d3cdb738b4168e76958b583d3250a8e7"


def test_construction_keeps_nothing_between_calls():
    # A construction's memory is freed with its result: no memo grows with
    # the number of calls made in a process.
    n, a, b = 200_000, 17, 150_001
    prime_flags(n)  # the shared sieve may grow; that is not the constructor's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = hamilton_path(n, a, b)
        digest = hashlib.sha256(array("q", w.sequence)).hexdigest()
        del w
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
    again = hamilton_path(n, a, b)
    assert hashlib.sha256(array("q", again.sequence)).hexdigest() == digest


@pytest.mark.parametrize("n", range(5, 61))
def test_mirror_and_offset_are_affine(n):
    # A pair past the mirror line is the mirrored, reversed path of its image,
    # and a path built at offset k is the path from 1 shifted by k.
    for a in range(1, n):
        for b in range(max(a + 1, n + 2 - a), n + 1):
            if (a, b) in EXCEPTION_PAIRS.get(n, ()):
                continue
            image = PathWitness(Interval(1, n), _ham_seq(n, n + 1 - b, n + 1 - a))
            assert _ham_seq(n, a, b) == reverse(complement(image)).sequence, (a, b)
    for m in range(2, n + 1):
        if n == 5 and m not in (3, 4):
            continue
        w = path_1_to_m(n, m)
        for k in (1, 7, 10**6):
            out = []
            _ham_fill(out, n, 1, m, k, 1)
            assert tuple(out) == shift(w, k).sequence, (m, k)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: hamilton_path(n, n - 1_000, n - 10),
        lambda n: hamilton_path(n, n - 10, n - 1_000),
        lambda n: hamilton_cycle_through_edge(n, (n // 2, n // 2 + 7)),
    ],
    ids=["mirrored", "mirrored-reversed", "cycle-through-edge"],
)
def test_construction_peak_memory(build):
    # Each vertex is written once: a tuple of n ints (36 bytes a vertex) plus
    # the list it is built in and the certificate, not a second mirrored copy.
    n = 10**5
    prime_flags(n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = build(n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(w.sequence) == n
    assert peak <= 64 * n, peak / n
