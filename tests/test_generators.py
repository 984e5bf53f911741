"""Difference-restricted cycles, two-prime cycles, edge-disjoint families."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primediff.errors import Infeasible, NotFound
from primediff.generators import (
    cycle_diff23,
    cycle_two_primes,
    edge_disjoint_cycles,
    n_for_t_disjoint,
    path_diff23,
    two_prime_cycles,
)
from primediff.graphs import (
    Interval,
    PathWitness,
    canonical_cycle,
    verify_cycle,
    verify_edge_disjoint,
    verify_path,
)
from primediff.oracle import brute_diff_restricted_cycle
from primediff.primes import prime_flags, prime_pair_decompositions
from primediff.transforms import complement


def test_path_diff23_goldens():
    assert path_diff23(8).sequence == (8, 6, 3, 1, 4, 2, 5, 7)
    assert path_diff23(9).sequence == (9, 7, 5, 2, 4, 1, 3, 6, 8)
    with pytest.raises(ValueError):
        path_diff23(5)


@given(st.integers(min_value=6, max_value=400))
def test_path_diff23_property(n):
    w = path_diff23(n)
    assert verify_path(w, (n, n - 1))
    assert all(abs(x - y) in (2, 3) for x, y in zip(w.sequence, w.sequence[1:]))


def test_cycle_diff23_existence_boundary():
    assert cycle_diff23(5).sequence == (1, 4, 2, 5, 3)
    for n in (6, 7, 8, 9):
        with pytest.raises(Infeasible):
            cycle_diff23(n)
    with pytest.raises(ValueError):
        cycle_diff23(2)
    assert cycle_diff23(10).sequence == (6, 3, 1, 4, 2, 5, 8, 10, 7, 9)


def test_cycle_diff23_matches_oracle_on_small_orders():
    for n in range(4, 16):
        brute = brute_diff_restricted_cycle(n, {2, 3})
        if n == 5 or n >= 10:
            assert brute is not None
            assert verify_cycle(cycle_diff23(n), allowed_diffs={2, 3})
        else:
            assert brute is None


@given(st.integers(min_value=10, max_value=600))
def test_cycle_diff23_property(n):
    assert verify_cycle(cycle_diff23(n), allowed_diffs={2, 3})


def _concatenated_diff23(n):
    """The {2, 3} path of [1, n] as ramp + elbow + ramp tuples."""
    if n % 2 == 0:
        return tuple(range(n, 5, -2)) + (3, 1, 4, 2) + tuple(range(5, n, 2))
    return tuple(range(n, 4, -2)) + (2, 4, 1, 3) + tuple(range(6, n, 2))


def test_diff23_builders_match_the_concatenated_formulas():
    # The path, and the cycle glued from the path on [1, h + 1] and the
    # complement of the path on [h, n] without its two ends.
    for n in [*range(6, 601), 10**5, 10**5 + 1]:
        assert path_diff23(n).sequence == _concatenated_diff23(n), n
    assert cycle_diff23(5).sequence == (1, 4, 2, 5, 3)
    for n in [*range(10, 601), 10**5, 10**5 + 1]:
        h = n // 2
        right = complement(PathWitness(Interval(1, n), _concatenated_diff23(n - h + 1))).sequence
        assert cycle_diff23(n).sequence == _concatenated_diff23(h + 1) + right[1:-1], n


def test_two_prime_golden():
    w = cycle_two_primes(9, (2, 7))
    assert w.sequence == (1, 3, 5, 7, 9, 2, 4, 6, 8)
    assert w.sequence == canonical_cycle(w.sequence)


def test_two_prime_validation():
    with pytest.raises(ValueError):
        cycle_two_primes(10, (5, 5))  # equal parts
    with pytest.raises(ValueError):
        cycle_two_primes(10, (3, 5))  # wrong sum
    with pytest.raises(ValueError):
        cycle_two_primes(10, (1, 9))  # not primes


@given(st.integers(min_value=5, max_value=400))
def test_two_prime_property(n):
    for p, q in prime_pair_decompositions(n):
        w = cycle_two_primes(n, (p, q))
        assert verify_cycle(w, allowed_diffs={p, q})


def test_disjoint_family_reference_sizes():
    f20 = edge_disjoint_cycles(20)
    f30 = edge_disjoint_cycles(30)
    assert len(f20) >= 2
    assert len(f30) >= 4
    assert verify_edge_disjoint(f20.cycles)
    assert verify_edge_disjoint(f30.cycles)


def test_disjoint_family_fallback():
    # 6 = 3 + 3 only, which is excluded; a single generic cycle remains
    fam = edge_disjoint_cycles(6)
    assert len(fam) == 1
    assert fam.sources == ("fallback",)
    with pytest.raises(ValueError):
        edge_disjoint_cycles(4)


def test_disjoint_family_sources_label_cycles():
    fam = edge_disjoint_cycles(20)
    assert len(fam.sources) == len(fam.cycles)
    assert any(s.startswith("pair:") for s in fam.sources)


@given(st.integers(min_value=5, max_value=200))
def test_disjoint_family_property(n):
    fam = edge_disjoint_cycles(n)
    assert len(fam) >= 1
    assert verify_edge_disjoint(fam.cycles)
    for c in fam.cycles:
        assert verify_cycle(c)


def test_disjoint_family_members_share_vertex_ints():
    # Every two-prime member is a tuple of slots into one list of the n
    # vertex ints, so the family holds about 9 bytes per held vertex here,
    # not a slot plus an int object of its own (38 bytes when each member
    # built its own ints).
    prime_flags(4000)
    tracemalloc.start()
    try:
        fam = edge_disjoint_cycles(4000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    vertices = sum(len(c.sequence) for c in fam.cycles)
    assert len(fam) == 66
    assert held < 12 * vertices, f"{held / vertices:.1f} bytes per held vertex"
    _, f5 = n_for_t_disjoint(5)
    first, second = (sorted(c.sequence, key=int) for c in f5.cycles[:2])
    assert all(a is b for a, b in zip(first, second))


def test_all_pairs_two_prime_cycles_share_vertex_ints():
    # The CLI's `two-prime n` list: one cycle per prime pair, each certified
    # against its own pair, all read from one list of the n vertex ints.
    prime_flags(4000)
    tracemalloc.start()
    try:
        fam = two_prime_cycles(4000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    vertices = sum(len(c.sequence) for c in fam.cycles)
    assert held < 12 * vertices, f"{held / vertices:.1f} bytes per held vertex"
    assert fam.sources == ()
    pairs = prime_pair_decompositions(4000)
    assert [c.sequence for c in fam.cycles] == [cycle_two_primes(4000, pq).sequence for pq in pairs]


def test_n_for_t_disjoint_goldens():
    n1, f1 = n_for_t_disjoint(1)
    assert (n1, len(f1)) == (5, 1)
    n2, f2 = n_for_t_disjoint(2)
    assert (n2, len(f2)) == (28, 2)
    n3, f3 = n_for_t_disjoint(3)
    assert (n3, len(f3)) == (164, 3)
    assert verify_edge_disjoint(f3.cycles)
    # The least end sum, not the lexicographically first progression (n = 48,544).
    n4, f4 = n_for_t_disjoint(4)
    assert (n4, f4.sources) == (1868, ("pair:199,1669", "pair:409,1459", "pair:619,1249", "pair:829,1039"))
    n5, f5 = n_for_t_disjoint(5)
    assert (n5, len(f5)) == (2288, 5)


def test_n_for_t_disjoint_failure_modes():
    with pytest.raises(NotFound, match="^no 6-term prime progression with first term and difference at most 20$"):
        n_for_t_disjoint(3, search_limit=20)
    with pytest.raises(ValueError):
        n_for_t_disjoint(0)
