"""Acceptance gate: nine criteria, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest -v` shows one PASSED/FAILED row per criterion.
"""

import random
import time

from primediff.factors import enumerate_specs, two_factor
from primediff.generators import (
    cycle_diff23,
    cycle_two_primes,
    edge_disjoint_cycles,
    n_for_t_disjoint,
    path_diff23,
)
from primediff.graphs import (
    Interval,
    PathWitness,
    canonical_cycle,
    verify_cycle,
    verify_edge_disjoint,
    verify_path,
    verify_two_factor,
)
from primediff.oracle import (
    brute_diff_restricted_cycle,
    brute_hamilton_path,
    brute_infeasible_pairs,
    brute_two_factor_exists,
)
from primediff.paths import (
    ROWS,
    hamilton_cycle_through_edge,
    hamilton_path,
    infeasible_pairs,
)
from primediff.primes import is_prime, prime_pair_decompositions
from primediff.transforms import complement, reverse, shift

# Small-order rows the constructor now derives (by the mirror step or from
# vertex 1) instead of storing; copied verbatim from the former table, in
# their tabulated orientation.
DERIVED_SMALL_ORDER_ROWS = {
    (5, (1, 3)): (1, 4, 2, 5, 3),
    (5, (3, 5)): (5, 2, 4, 1, 3),
    (5, (1, 4)): (1, 3, 5, 2, 4),
    (5, (2, 5)): (5, 3, 1, 4, 2),
    (6, (3, 5)): (5, 2, 4, 1, 6, 3),
    (7, (5, 6)): (6, 3, 1, 4, 7, 2, 5),
    (7, (4, 6)): (6, 1, 3, 5, 2, 7, 4),
    (7, (3, 6)): (6, 1, 4, 2, 7, 5, 3),
    (8, (6, 7)): (7, 4, 2, 5, 8, 3, 1, 6),
    (8, (5, 7)): (7, 2, 4, 6, 1, 3, 8, 5),
    (8, (4, 7)): (7, 2, 5, 3, 8, 1, 6, 4),
    (8, (3, 7)): (7, 5, 2, 4, 6, 8, 1, 3),
    (8, (5, 6)): (6, 3, 8, 1, 4, 7, 2, 5),
    (8, (4, 6)): (6, 8, 1, 3, 5, 7, 2, 4),
}

EXPECTED_EXCEPTIONS = {
    5: {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)},
    6: {(2, 3), (3, 4), (4, 5)},
    7: {(3, 4), (4, 5)},
    8: {(4, 5)},
}


def _report(num: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num}: {status} - {detail}{tail}", flush=True)


def test_criterion_1_exception_sets():
    t0 = time.perf_counter()
    mismatches = []
    for n, expected in EXPECTED_EXCEPTIONS.items():
        cons = set(infeasible_pairs(n))
        brute = brute_infeasible_pairs(n)
        if not (cons == expected == brute):
            mismatches.append((n, sorted(cons), sorted(brute)))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    _report(1, ok, f"orders 5-8 constructor == stored == brute, {len(mismatches)} mismatches", elapsed)
    assert not mismatches, mismatches
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"


def test_criterion_2_universal_path_feasibility():
    t0 = time.perf_counter()
    failures = 0
    pairs = 0
    for n in range(9, 121):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                pairs += 1
                w = hamilton_path(n, a, b)
                if not verify_path(w, (a, b)):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(2, ok, f"{pairs} endpoint pairs over orders 9-120, {failures} failures", elapsed)
    assert failures == 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, bound is 60s"


def test_criterion_2_oracle_finds_no_infeasible_pair():
    # The same claim as criterion 2, checked by exhaustive search instead of
    # by construction: from order 9 on, every endpoint pair has a path.
    t0 = time.perf_counter()
    found = {n: sorted(brute_infeasible_pairs(n, max_order=60)) for n in range(9, 61)}
    bad = {n: pairs for n, pairs in found.items() if pairs}
    elapsed = time.perf_counter() - t0
    _report(2, not bad, f"oracle: no infeasible pair at orders 9-60, {len(bad)} orders with one", elapsed)
    assert not bad, bad
    assert elapsed < 3.0, f"took {elapsed:.2f}s, bound is 3s"


def test_criterion_2_oracle_agrees_past_the_default_cap():
    # Orders 23-30, above the oracle's default cap: on every pair a < b, the
    # constructor and the exhaustive search both give a path.
    t0 = time.perf_counter()
    disagreements = []
    pairs = 0
    for n in range(23, 31):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                pairs += 1
                w = brute_hamilton_path(Interval(1, n), (a, b), max_order=30)
                if not (w is not None and verify_path(w, (a, b)) and verify_path(hamilton_path(n, a, b), (a, b))):
                    disagreements.append((n, a, b))
    elapsed = time.perf_counter() - t0
    _report(2, not disagreements, f"oracle agrees with the constructor on {pairs} pairs at orders 23-30, "
            f"{len(disagreements)} disagreements", elapsed)
    assert not disagreements, disagreements
    assert elapsed < 3.0, f"took {elapsed:.2f}s, bound is 3s"


def test_criterion_3_golden_rows():
    bad = []
    for (n, a, b), seq in ROWS.items():
        # every stored row runs from a to b exactly
        if not verify_path(PathWitness(Interval(1, n), seq), (a, b)):
            bad.append((n, a, b))
    for (n, (a, b)), seq in DERIVED_SMALL_ORDER_ROWS.items():
        # derived rows must come out of the constructor exactly, up to orientation
        if hamilton_path(n, seq[0], seq[-1]).sequence != seq:
            bad.append((n, a, b))
    # spot equality on stored rows surfaced through the public constructor
    exact = (
        hamilton_path(9, 4, 5).sequence == (4, 1, 3, 8, 6, 9, 7, 2, 5)
        and hamilton_path(10, 1, 5).sequence == (1, 4, 2, 9, 6, 3, 8, 10, 7, 5)
        and hamilton_path(8, 1, 8).sequence == (1, 3, 5, 7, 2, 4, 6, 8)
        and hamilton_path(7, 2, 3).sequence == (2, 5, 7, 4, 1, 6, 3)
    )
    ok = not bad and exact
    _report(3, ok, f"{len(ROWS)} stored rows verify; {len(DERIVED_SMALL_ORDER_ROWS)} derived rows and spot rows match exactly")
    assert not bad, bad
    assert exact


def test_criterion_4_cycle_through_every_edge():
    t0 = time.perf_counter()
    failures = 0
    edges = 0
    for n in range(5, 61):
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                if not is_prime(b - a):
                    continue
                edges += 1
                w = hamilton_cycle_through_edge(n, (a, b))
                if not verify_cycle(w, required_edge=(a, b)):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(4, ok, f"{edges} edges over orders 5-60, {failures} failures", elapsed)
    assert failures == 0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, bound is 30s"


def test_criterion_5_two_factor_totality():
    t0 = time.perf_counter()
    failures = 0
    specs = 0
    for n in range(7, 61):
        for spec in enumerate_specs(n):
            specs += 1
            w = two_factor(n, spec)
            if not verify_two_factor(w, expected_lengths=spec):
                failures += 1
    oracle_disagreements = 0
    for n in range(7, 23):
        for spec in enumerate_specs(n):
            constructible = True  # two_factor above already succeeded for n >= 7
            if brute_two_factor_exists(n, spec) != constructible:
                oracle_disagreements += 1
    six_two_triangles = brute_two_factor_exists(6, (3, 3))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and oracle_disagreements == 0 and not six_two_triangles and elapsed < 120.0
    _report(
        5,
        ok,
        f"{specs} specs over orders 7-60, {failures} failures; "
        f"oracle agrees on orders 7-22 ({oracle_disagreements} disagreements); "
        f"order 6 as two triangles: {six_two_triangles}",
        elapsed,
    )
    assert failures == 0
    assert oracle_disagreements == 0
    assert not six_two_triangles
    assert elapsed < 120.0, f"took {elapsed:.2f}s, bound is 120s"


def test_criterion_6_diff23_cycles():
    t0 = time.perf_counter()
    failures = sum(
        1
        for n in range(10, 1001)
        if not verify_cycle(cycle_diff23(n), allowed_diffs={2, 3})
    )
    nonexistence_ok = all(
        brute_diff_restricted_cycle(n, {2, 3}) is None for n in (4, 6, 7, 8, 9)
    )
    existence_ok = brute_diff_restricted_cycle(5, {2, 3}) is not None
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and nonexistence_ok and existence_ok and elapsed < 10.0
    _report(
        6,
        ok,
        f"orders 10-1000, {failures} failures; brute gap at 4,6-9 confirmed: "
        f"{nonexistence_ok}; order 5 exists: {existence_ok}",
        elapsed,
    )
    assert failures == 0
    assert nonexistence_ok and existence_ok
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"


def test_criterion_7_two_prime_cycles():
    t0 = time.perf_counter()
    failures = 0
    count = 0
    for n in range(4, 301):
        for p, q in prime_pair_decompositions(n):
            count += 1
            w = cycle_two_primes(n, (p, q))
            if not verify_cycle(w, allowed_diffs={p, q}):
                failures += 1
    golden = cycle_two_primes(9, (2, 7)).sequence
    canonical_ok = golden == canonical_cycle(golden) == (1, 3, 5, 7, 9, 2, 4, 6, 8)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and canonical_ok and elapsed < 10.0
    _report(
        7,
        ok,
        f"{count} decompositions up to order 300, {failures} failures; "
        f"order-9 canonical row matches: {canonical_ok}",
        elapsed,
    )
    assert failures == 0
    assert canonical_ok
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"


def test_criterion_8_edge_disjoint_families():
    t0 = time.perf_counter()
    f20 = edge_disjoint_cycles(20)
    f30 = edge_disjoint_cycles(30)
    sizes_ok = len(f20) >= 2 and len(f30) >= 4
    disjoint_ok = bool(verify_edge_disjoint(f20.cycles)) and bool(
        verify_edge_disjoint(f30.cycles)
    )
    n3, fam3 = n_for_t_disjoint(3, search_limit=10_000)
    three_ok = len(fam3) == 3 and bool(verify_edge_disjoint(fam3.cycles))
    elapsed = time.perf_counter() - t0
    ok = sizes_ok and disjoint_ok and three_ok and elapsed < 30.0
    _report(
        8,
        ok,
        f"sizes {len(f20)} (order 20) and {len(f30)} (order 30); "
        f"3 disjoint cycles at order {n3}",
        elapsed,
    )
    assert sizes_ok
    assert disjoint_ok
    assert three_ok
    assert elapsed < 30.0, f"took {elapsed:.2f}s, bound is 30s"


def test_criterion_9_transform_algebra():
    rng = random.Random(20260816)
    failures = 0
    for _ in range(1000):
        n = rng.randint(9, 60)
        if rng.random() < 0.5:
            a = rng.randint(1, n)
            b = rng.choice([v for v in range(1, n + 1) if v != a])
            w = hamilton_path(n, a, b)
            check = verify_path
        else:
            kind = rng.random()
            if kind < 0.4:
                w = cycle_diff23(n) if (n == 5 or n >= 10) else path_diff23(n)
                check = verify_cycle if (n == 5 or n >= 10) else verify_path
            else:
                w = hamilton_cycle_through_edge(n, (1, 3))
                check = verify_cycle
        k = rng.randint(0, 25)
        w = shift(w, k)
        ok = (
            check(complement(w))
            and check(reverse(w))
            and check(shift(w, 5))
            and complement(complement(w)) == w
            and reverse(reverse(w)) == w
            and shift(shift(w, k + 1), -(k + 1)) == w
        )
        if not ok:
            failures += 1
    _report(9, failures == 0, f"1000 randomized witnesses, {failures} failures")
    assert failures == 0
