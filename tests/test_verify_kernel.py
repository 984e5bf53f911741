"""The verification kernel's memory, and family certificates by difference class.

A witness on n vertices is checked with one byte per vertex (the vertex mark)
plus one int per distinct difference; a family whose sources name pairwise
disjoint difference classes is certified without a set of its edges.
"""

import tracemalloc
from unittest import mock

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
    ],
)
def test_verifier_peak_memory(big, name, check):
    verdict, peak = _peak(lambda: check(big))
    assert verdict.ok
    assert peak < BUDGET, f"{name}: {peak} bytes"


def test_family_certificate_skips_the_edge_keys(big):
    fam = big["family"]
    with mock.patch.object(graphs, "verify_edge_disjoint", wraps=verify_edge_disjoint) as keys:
        assert verify(fam)
    assert keys.call_count == 0
    assert len(fam) == 128 and "diff23" in fam.sources


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


def _class(source):
    if source == "diff23":
        return {2, 3}
    parts = source[5:].split(",") if source.startswith("pair:") else []
    return {int(p) for p in parts} if len(parts) == 2 and all(p.isdigit() for p in parts) else None


def _key_set_verdict(fam):
    """The family check without certificates: members, then every edge as a key."""
    for idx, c in enumerate(fam.cycles):
        v = verify_cycle(c) if c.interval == fam.interval else graphs.Verdict(False, NOT_PERMUTATION)
        if not v:
            return (False, v.reason, {"cycle": idx, **(v.detail or {})}), False
    v = verify_edge_disjoint(fam.cycles)
    return (v.ok, v.reason, v.detail), True


@settings(max_examples=300, deadline=None)
@given(families())
def test_class_certificate_agrees_with_edge_keys(fam):
    expected, members_ok = _key_set_verdict(fam)
    classes = [_class(s) for s in fam.sources]
    certified = (
        members_ok
        and len(classes) == len(fam.cycles)
        and None not in classes
        and sum(map(len, classes)) == len(set().union(*classes))
        and all(verify_cycle(c, allowed_diffs=k) for c, k in zip(fam.cycles, classes))
    )
    with mock.patch.object(graphs, "verify_edge_disjoint", wraps=verify_edge_disjoint) as keys:
        v = verify(fam)
    assert (v.ok, v.reason, v.detail) == expected
    # The edge keys are consulted exactly when every member is a Hamilton
    # cycle and the certificate does not apply.
    assert keys.call_count == (members_ok and not certified)
