"""The verification kernel's memory, and edge keys only where differences meet.

A witness on n vertices is checked with one byte per vertex (the vertex mark)
plus one int per distinct difference.  Cycles share an edge only if they
share its difference, so edge-disjointness keys only the edges whose
difference two cycles use; a family with pairwise disjoint differences is
accepted with no edge keys at all, whatever its sources say.
"""

import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primediff import graphs
from primediff.generators import cycle_diff23, cycle_two_primes, edge_disjoint_cycles, path_diff23
from primediff.graphs import (
    NOT_PERMUTATION,
    CycleWitness,
    DisjointFamily,
    Interval,
    TwoFactorWitness,
    verify,
    verify_cycle,
    verify_edge_disjoint,
    verify_path,
    verify_two_factor,
)
from primediff.paths import hamilton_cycle
from primediff.primes import prime_flags, prime_pair_decompositions

N = 10**6
BUDGET = 4 << 20  # bytes; the vertex mark alone is about 1 MB at N


def _peak(call):
    """The verdict of call() and the peak bytes it allocated while running."""
    tracemalloc.start()
    try:
        verdict = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return verdict, peak


@pytest.fixture(scope="module")
def big():
    """Witnesses on [1, N], built before any measurement, with the sieve warm."""
    prime_flags(N)
    cyc = cycle_diff23(N)
    # A 2-factor of ten-vertex {2, 3} cycles and larger ones, each shifted into place.
    sizes = [10] * 10_000 + [100_000] * 9
    cycles, start = [], 0
    for m in sizes:
        cycles.append(tuple(v + start for v in cycle_diff23(m).sequence))
        start += m
    return {
        "path": path_diff23(N),
        "cycle": cyc,
        "two_factor": TwoFactorWitness(Interval(1, N), tuple(cycles)),
        "family": edge_disjoint_cycles(10_000),
    }


@pytest.mark.parametrize(
    "name, check",
    [
        ("path", lambda w: verify_path(w["path"], (N, N - 1))),
        ("cycle required edge", lambda w: verify_cycle(w["cycle"], required_edge=w["cycle"].sequence[N // 2 : N // 2 + 2])),
        ("cycle diff23", lambda w: verify_cycle(w["cycle"], allowed_diffs={2, 3})),
        ("two-factor", lambda w: verify_two_factor(w["two_factor"])),
        ("family", lambda w: verify(w["family"])),
        ("edge-disjoint", lambda w: verify_edge_disjoint(w["family"].cycles)),
    ],
)
def test_verifier_peak_memory(big, name, check):
    verdict, peak = _peak(lambda: check(big))
    assert verdict.ok
    assert peak < BUDGET, f"{name}: {peak} bytes"


def test_family_walks_each_member_once(big, monkeypatch):
    # The member checks find each member's differences; the disjointness
    # count reuses them instead of walking the steps a second time.
    calls = []

    def counted(seq, closed):
        calls.append(len(seq))
        return steps(seq, closed)

    steps = graphs._steps
    monkeypatch.setattr(graphs, "_steps", counted)
    fam = big["family"]
    assert verify(fam)
    assert len(calls) == len(fam.cycles) == 128


def test_shared_edge_owner_is_read_from_the_key_map(big, monkeypatch):
    # The last member again: the report walks the edges of the failing
    # member only, and reads the owner of the shared edge from the keys.
    calls = []

    def counted(seq):
        calls.append(len(seq))
        return edges(seq)

    edges = graphs.cycle_edges
    monkeypatch.setattr(graphs, "cycle_edges", counted)
    fam = big["family"]
    v = verify(DisjointFamily(fam.interval, fam.cycles + fam.cycles[-1:], fam.sources + fam.sources[-1:]))
    assert (v.ok, v.reason, v.detail) == (False, graphs.SHARED_EDGE, {"edge": (3406, 3408), "cycles": (127, 128)})
    assert calls == [10_000]


@st.composite
def covers_cases(draw):
    """(seqs, lo, hi): int lists drawn from [lo - 2n, hi + 2n], n = hi - lo + 1,
    or near misses, a permutation of [lo, hi] cut into members (some empty)
    with a few entries replaced."""
    lo = draw(st.integers(1, 30))
    n = draw(st.integers(1, 12))
    hi = lo + n - 1
    value = st.integers(lo - 2 * n, hi + 2 * n)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(value, max_size=n + 2), max_size=4)), lo, hi
    flat = draw(st.permutations(range(lo, hi + 1)))
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=2)):
        flat[i] = v
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return [flat[i:j] for i, j in zip([0, *cuts], [*cuts, n])], lo, hi


@settings(max_examples=300, deadline=None)
@given(covers_cases())
def test_covers_agrees_with_sorting(case):
    seqs, lo, hi = case
    assert graphs._covers(seqs, lo, hi) == (all(seqs) and sorted(chain(*seqs)) == list(range(lo, hi + 1)))


def test_covers_sees_a_vertex_below_the_interval():
    # 0 - 1 indexes the last byte, which 3 would mark: only the sum tells.
    assert not graphs._covers(((1, 2, 0),), 1, 3)
    assert verify_path(graphs.PathWitness(Interval(1, 3), (1, 2, 0))).reason == NOT_PERMUTATION


# Families on [1, n] drawn from true members with true or false sources.
LABELS = ["diff23", "fallback", "pair:3", "pair:x,y", "pair:2,3", "pair:5,7", "pair:11,13", "pair:3,5"]


def _members(n):
    """(cycle, its own source) for every difference-class member at order n,
    and members that leave every class or are not Hamilton cycles of [1, n]."""
    own = [(cycle_two_primes(n, pq), "pair:%d,%d" % pq) for pq in prime_pair_decompositions(n)]
    own.append((cycle_diff23(n), "diff23"))
    generic = hamilton_cycle(n)
    seq = generic.sequence
    stray = [
        (generic, "fallback"),
        (CycleWitness(generic.interval, seq[1:2] + seq[:1] + seq[2:]), "pair:2,3"),
        (cycle_diff23(n - 1), "diff23"),
    ]
    return own, stray


@st.composite
def families(draw):
    # Mostly even orders, where several pairs and the {2, 3} cycle can coexist.
    n = 2 * draw(st.integers(min_value=6, max_value=40)) + draw(st.sampled_from([0, 0, 0, 1]))
    own, stray = _members(n)
    members = [own[i] for i in draw(st.lists(st.integers(0, len(own) - 1), max_size=6, unique=True))]
    # Now and then a repeated member, which shares every edge, or a stray one.
    for extra in (st.sampled_from(own), st.sampled_from(stray)):
        if draw(st.integers(0, 3)) == 0:
            members.insert(draw(st.integers(0, len(members))), draw(extra))
    sources = [draw(st.sampled_from(LABELS)) if draw(st.integers(0, 7)) == 0 else src for _, src in members]
    extra = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    sources = sources[: len(sources) + extra] if extra < 0 else sources + ["diff23"] * extra
    return DisjointFamily(Interval(1, n), tuple(c for c, _ in members), tuple(sources))


def _all_edge_keys(cycles):
    """The reference edge-disjointness check: every edge of every cycle a key."""
    seqs = [c.sequence for c in cycles if c.sequence]
    if len(seqs) < 2:
        return graphs.OK
    w = max(map(max, seqs)) - min(map(min, seqs)) + 1
    seen = set()
    for idx, c in enumerate(cycles):
        seq = c.sequence
        keys = {u * w + v if u <= v else v * w + u for u, v in zip(seq, seq[1:] + seq[:1])}
        if seen.isdisjoint(keys):
            seen |= keys
            continue
        for e in graphs.cycle_edges(seq):
            edge = tuple(sorted(e))
            if edge[0] * w + edge[-1] in seen:
                owner = next(j for j in range(idx) if e in graphs.cycle_edges(cycles[j].sequence))
                return graphs.Verdict(False, graphs.SHARED_EDGE, {"edge": edge, "cycles": (owner, idx)})
    return graphs.OK


def _reference_verdict(fam):
    """The family check with every edge keyed: members, then the full key set."""
    for idx, c in enumerate(fam.cycles):
        v = verify_cycle(c) if c.interval == fam.interval else graphs.Verdict(False, NOT_PERMUTATION)
        if not v:
            return False, v.reason, {"cycle": idx, **(v.detail or {})}
    v = _all_edge_keys(fam.cycles)
    return v.ok, v.reason, v.detail


@settings(max_examples=300, deadline=None)
@given(families())
def test_shared_difference_keys_agree_with_all_edge_keys(fam):
    v = verify(fam)
    assert (v.ok, v.reason, v.detail) == _reference_verdict(fam)
    # Plain lists too, members that are not Hamilton cycles included.
    if all(c.interval == fam.interval for c in fam.cycles):
        plain, ref = verify_edge_disjoint(fam.cycles), _all_edge_keys(fam.cycles)
        assert (plain.ok, plain.reason, plain.detail) == (ref.ok, ref.reason, ref.detail)
