"""Brute-force searches: ground truth values, determinism, caps."""

import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from primediff import oracle
from primediff.errors import OrderCapExceeded
from primediff.factors import enumerate_specs
from primediff.graphs import Interval, verify_cycle, verify_path
from primediff.oracle import (
    DEFAULT_MAX_ORDER,
    ENV_MAX_ORDER,
    brute_diff_restricted_cycle,
    brute_hamilton_path,
    brute_infeasible_pairs,
    brute_two_factor_exists,
)
from primediff.primes import prime_flags

I9 = Interval(1, 9)


def test_path_found_and_verified():
    w = brute_hamilton_path(I9, (4, 5))
    assert w is not None
    assert verify_path(w, (4, 5))
    assert w.sequence[0] == 4 and w.sequence[-1] == 5


def test_path_nonexistent():
    assert brute_hamilton_path(Interval(1, 5), (1, 2)) is None
    assert brute_hamilton_path(Interval(1, 8), (4, 5)) is None


def test_path_deterministic_and_prefer():
    w1 = brute_hamilton_path(I9, (1, 9))
    w2 = brute_hamilton_path(I9, (1, 9))
    assert w1 == w2
    wmin = brute_hamilton_path(I9, (1, 9), prefer="min")
    wmax = brute_hamilton_path(I9, (1, 9), prefer="max")
    assert verify_path(wmin, (1, 9)) and verify_path(wmax, (1, 9))
    assert wmin.sequence[1] < wmax.sequence[1]
    with pytest.raises(ValueError):
        brute_hamilton_path(I9, (1, 9), prefer="first")


def test_path_endpoint_validation():
    with pytest.raises(ValueError):
        brute_hamilton_path(I9, (0, 5))
    with pytest.raises(ValueError):
        brute_hamilton_path(I9, (3, 3))


def test_shifted_interval():
    w = brute_hamilton_path(Interval(4, 12), (4, 12))
    assert w is not None and verify_path(w, (4, 12))


def test_infeasible_pairs_small_orders():
    assert brute_infeasible_pairs(5) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    assert brute_infeasible_pairs(6) == {(2, 3), (3, 4), (4, 5)}
    assert brute_infeasible_pairs(7) == {(3, 4), (4, 5)}
    assert brute_infeasible_pairs(8) == {(4, 5)}
    assert brute_infeasible_pairs(9) == set()


def test_order_cap():
    with pytest.raises(OrderCapExceeded) as exc:
        brute_hamilton_path(Interval(1, DEFAULT_MAX_ORDER + 1), (1, 2))
    assert exc.value.order == DEFAULT_MAX_ORDER + 1
    assert exc.value.cap == DEFAULT_MAX_ORDER
    # explicit argument overrides the default in both directions
    with pytest.raises(OrderCapExceeded):
        brute_infeasible_pairs(9, max_order=8)
    assert brute_infeasible_pairs(9, max_order=9) == set()


def test_env_cap(monkeypatch):
    monkeypatch.setenv(ENV_MAX_ORDER, "6")
    with pytest.raises(OrderCapExceeded):
        brute_infeasible_pairs(7)
    assert brute_infeasible_pairs(6) == {(2, 3), (3, 4), (4, 5)}
    monkeypatch.setenv(ENV_MAX_ORDER, "23")
    assert brute_hamilton_path(Interval(1, 23), (1, 23)) is not None


def test_env_cap_must_be_an_integer(monkeypatch):
    # A bad value is named, not reported as int()'s own message.
    monkeypatch.setenv(ENV_MAX_ORDER, "abc")
    with pytest.raises(ValueError) as exc:
        brute_hamilton_path(I9, (1, 2))
    assert str(exc.value) == "ORACLE_MAX_ORDER must be an integer, got 'abc'"
    assert brute_hamilton_path(I9, (1, 2), max_order=9) is not None


def test_infeasible_pairs_negative_order():
    with pytest.raises(ValueError, match="-5"):
        brute_infeasible_pairs(-5)
    assert [sorted(brute_infeasible_pairs(n)) for n in range(5)] == [
        [],
        [],
        [(1, 2)],
        [(1, 2), (1, 3), (2, 3)],
        [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)],
    ]


def test_two_factor_exists():
    assert not brute_two_factor_exists(6, (3, 3))
    assert brute_two_factor_exists(7, (3, 4))
    assert brute_two_factor_exists(9, (3, 3, 3))
    assert brute_two_factor_exists(12, (3, 4, 5))
    assert brute_two_factor_exists(5, (5,))
    with pytest.raises(ValueError):
        brute_two_factor_exists(7, (3, 3))
    with pytest.raises(ValueError):
        brute_two_factor_exists(7, (2, 5))
    with pytest.raises(OrderCapExceeded):
        brute_two_factor_exists(40, (20, 20))
    # one default cap for every search
    assert brute_two_factor_exists(22, (3, 3, 3, 13))
    with pytest.raises(OrderCapExceeded) as exc:
        brute_two_factor_exists(23, (3, 20))
    assert (exc.value.order, exc.value.cap) == (23, 22)


def test_two_factor_search_is_not_bounded_by_the_recursion_limit():
    # 300 triangles: a recursion of four calls per triangle, 1,200 deep,
    # passes Python's default limit of 1,000; the explicit stack does not
    # nest Python calls at all.
    assert brute_two_factor_exists(900, (3,) * 300, max_order=900)


def _prime_permutation_cycle_types(n):
    """Sorted cycle lengths of every permutation of [1, n] that moves each
    vertex by a prime and has no cycle shorter than 3 (n <= 9)."""
    primes = {2, 3, 5, 7}
    image = {}
    types = set()

    def assign(v):
        if v > n:
            lengths, seen = [], set()
            for s in range(1, n + 1):
                u, length = s, 0
                while u not in seen:
                    seen.add(u)
                    u, length = image[u], length + 1
                if length:
                    lengths.append(length)
            if min(lengths) >= 3:
                types.add(tuple(sorted(lengths)))
            return
        for t in range(1, n + 1):
            if abs(t - v) in primes and t not in image.values():
                image[v] = t
                assign(v + 1)
                del image[v]

    assign(1)
    return types


@pytest.mark.parametrize("n", range(1, 10))
def test_two_factor_exists_matches_prime_permutations(n):
    # Independent of the search: a 2-factor is a permutation whose cycles
    # step by primes and have at least 3 vertices.  This reaches the search's
    # negative answers (3,), (4,) and (3, 3) at orders 3, 4 and 6.
    found = {s for s in enumerate_specs(n) if brute_two_factor_exists(n, s)}
    assert found == _prime_permutation_cycle_types(n)


def test_diff_restricted_cycle():
    w = brute_diff_restricted_cycle(5, {2, 3})
    assert w is not None
    assert verify_cycle(w, allowed_diffs={2, 3})
    for n in (4, 6, 7, 8, 9):
        assert brute_diff_restricted_cycle(n, {2, 3}) is None
    w10 = brute_diff_restricted_cycle(10, {2, 3})
    assert w10 is not None and verify_cycle(w10, allowed_diffs={2, 3})
    # restriction is an intersection with primality: 4 never qualifies
    assert brute_diff_restricted_cycle(8, {4}) is None
    assert brute_diff_restricted_cycle(2, {2, 3}) is None


def test_restricted_cycle_is_bounded_under_the_cap():
    # An exhaustive search with no Hamilton cycle to find: with odd
    # differences only, at odd order, the parity cut answers at once, where
    # the path search alone would take seconds to rule out every state.
    t0 = time.perf_counter()
    assert brute_diff_restricted_cycle(21, {3, 5, 7, 11, 13}) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"


def test_restricted_cycle_odd_differences_need_even_order():
    # Every odd step changes parity, so a cycle alternates parities and has
    # even length: no Hamilton cycle of odd order uses odd primes alone.
    # The parity cut rules these out without the path search.
    t0 = time.perf_counter()
    for n in range(7, 22, 2):
        for allowed in ({3}, {3, 5}, {5, 7, 11}, {3, 5, 7, 11, 13}, {3, 5, 7, 11, 13, 17, 19}):
            assert brute_diff_restricted_cycle(n, allowed) is None, (n, allowed)
    assert brute_diff_restricted_cycle(20, {3, 5, 7, 11, 13}) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"took {elapsed:.2f}s, bound is 3s"


def test_restricted_cycle_past_the_cap_in_bounded_memory():
    # Order 30 in a child process limited to 256 MiB of address space.  The
    # subset DP's reach sets, about m * 2^(m-1) / 4 bytes (4 GB here), raised
    # MemoryError; the path search holds only the states that failed.
    resource = pytest.importorskip("resource")
    limit = 256 << 20
    src = str(Path(oracle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "from primediff.graphs import verify_cycle\n"
        "from primediff.oracle import brute_diff_restricted_cycle\n"
        "w = brute_diff_restricted_cycle(30, {3, 5, 7, 11, 13}, max_order=40)\n"
        "assert w is not None and verify_cycle(w, allowed_diffs={3, 5, 7, 11, 13})\n"
        "print(*w.sequence)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(map(int, proc.stdout.split())) == list(range(1, 31))


def test_two_differences_give_a_cycle_only_with_2_or_3():
    # A Hamilton cycle of [1, n] whose differences are two primes p < q with
    # p + q != n exists only when 2 or 3 is one of them; so one difference
    # class per cycle cannot carry a family much past n / ln^2 n cycles.
    cases = 0
    for n in range(7, 21):
        flags = prime_flags(n)
        ps = [p for p in range(2, n) if flags[p]]
        for p, q in itertools.combinations(ps, 2):
            if p + q == n:
                continue
            cases += 1
            w = brute_diff_restricted_cycle(n, {p, q})
            if w is not None:
                assert {p, q} & {2, 3}, (n, p, q, w.sequence)
                assert verify_cycle(w, allowed_diffs={p, q})
    assert cases == 162


def test_path_search_peak_memory():
    # The depth-first search holds its path, its stack and the states that
    # failed: a few KiB at order 20.
    iv = Interval(1, 20)
    prime_flags(iv.order)
    tracemalloc.start()
    try:
        w = brute_hamilton_path(iv, (10, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and verify_path(w, (10, 17))
    assert peak < 4 << 20, f"{peak} bytes"


def test_order_22_path_search_peak_memory():
    # A few KiB at order 22 as well: the search's memory follows the failed
    # states it meets, not the 2^(m-2) masks a subset DP would hold.
    iv = Interval(1, 22)
    prime_flags(iv.order)
    tracemalloc.start()
    try:
        w = brute_hamilton_path(iv, (3, 19))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and verify_path(w, (3, 19))
    assert peak < 8 << 20, f"{peak} bytes"


def test_order_30_path_search_peak_memory():
    # Past the default cap, where subset-DP reach sets would take about
    # m * 2^(m-2) / 4 bytes (2 GB), the failed states stay in tens of KiB.
    iv = Interval(1, 30)
    prime_flags(iv.order)
    tracemalloc.start()
    try:
        w = brute_hamilton_path(iv, (1, 2), max_order=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and verify_path(w, (1, 2))
    assert peak < 1 << 20, f"{peak} bytes"


# The Held-Karp subset DP (Held & Karp, J. SIAM 10, 1962) that the oracle
# once used to decide restricted cycles, kept here unchanged as an
# independent reference for the path search.


def _masks_without(b: int, m: int) -> int:
    """Bitset over all 2^m masks: bit `mask` is set iff bit b is not in mask.

    Built from a repeated byte pattern; big-int arithmetic over 2^m bits
    would cost as much as the search itself.  For m < 3 the pattern also sets
    bits past 2^m, which no reach set ever holds.
    """
    if b < 3:
        unit = (b"\x55", b"\x33", b"\x0f")[b]
    else:
        half = 1 << (b - 3)
        unit = b"\xff" * half + b"\x00" * half
    nbytes = max(1, (1 << m) >> 3)
    return int.from_bytes(unit * (nbytes // len(unit)), "little")


def _reach_sets(adj: list[list[int]]) -> list[int]:
    """S[v] is a 2^(m-1)-bit int over m - 1 mask bits, m = len(adj), one for
    each index v > 0 (bit v - 1): bit `mask` is set iff some path v -> 0
    covers exactly 0 and the vertices whose bits are in mask.

    Anchored at index 0, which takes no mask bit: S[0] = 1 is the empty
    mask.  A Hamilton cycle through 0 exists iff some neighbor u of 0 has the
    full mask in S[u].
    Bit-parallel Held-Karp: one relaxation extends every path of every mask
    at once, S[v] = (OR of S[u] over neighbors u, restricted to masks without
    bit(v)) << 2^bit(v), repeated until nothing changes (at most m rounds).
    """
    k = len(adj) - 1
    without = [_masks_without(b, k) for b in range(k)]
    reach = [0] * len(adj)
    reach[0] = 1
    changed = True
    while changed:
        changed = False
        for b, v in enumerate(range(1, len(adj))):
            acc = 0
            for u in adj[v]:
                acc |= reach[u]
            new = (acc & without[b]) << (1 << b)
            if new != reach[v]:
                reach[v] = new
                changed = True
    return reach


def test_infeasible_pairs_match_the_dp_read_off():
    # The subset DP anchored at index 0 answers every start at once: with the
    # indices of end e and 0 swapped, (i, e) has a Hamilton path iff the reach
    # set of i holds the full mask.  The per-pair path search must give the
    # same sets at orders 0-20.
    t0 = time.perf_counter()
    for n in range(21):
        adj = oracle._adjacency(list(range(1, n + 1)))
        want = set()
        for e in range(n):
            swap = list(range(n))
            swap[0], swap[e] = e, 0
            reach = _reach_sets([[swap[j] for j in adj[swap[i]]] for i in range(n)])
            for i in range(n):
                if i != e and reach[swap[i]].bit_length() != 1 << (n - 1):
                    want.add((min(i, e) + 1, max(i, e) + 1))
        assert brute_infeasible_pairs(n) == want, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"took {elapsed:.2f}s, bound is 3s"


def test_infeasible_pairs_match_the_per_pair_search():
    # Past the DP read-off above, at orders 21-30: one path search on every
    # pair a < b, the reference that rotations and the mirror must not change.
    for n in range(21, 31):
        adj = oracle._adjacency(list(range(1, n + 1)))
        want = {(a + 1, b + 1) for a in range(n) for b in range(a + 1, n) if oracle._least_path(adj, a, b) is None}
        assert brute_infeasible_pairs(n, max_order=30) == want, n


def test_infeasible_pairs_search_once_per_start(monkeypatch):
    # Rotations and the mirror leave one path search for each start a with
    # a + 1 <= n - a: 9 searches at order 18, against 153 for every pair.
    calls = 0
    least_path = oracle._least_path

    def counting(*args):
        nonlocal calls
        calls += 1
        return least_path(*args)

    monkeypatch.setattr(oracle, "_least_path", counting)
    assert brute_infeasible_pairs(18) == set()
    assert calls == 9
    assert brute_infeasible_pairs(8) == {(4, 5)}


def _assert_rotated_ends_have_paths(iv, a, b):
    w = brute_hamilton_path(iv, (a, b))
    ends = oracle._rotated_ends([v - iv.lo for v in w.sequence], prime_flags(iv.order))
    assert b - iv.lo in ends
    for e in ends:
        p = brute_hamilton_path(iv, (a, e + iv.lo))
        assert p is not None and verify_path(p, (a, e + iv.lo)), (iv, a, b, e)


def test_rotated_ends_have_paths():
    # Every end that a rotation of the least 1 -> 2 path reports has a
    # Hamilton path from 1, which the verifier accepts.  At orders 5-8, where
    # some pairs have none, rotations of every least path are checked.
    for n in range(9, 17):
        _assert_rotated_ends_have_paths(Interval(1, n), 1, 2)
    for n in range(5, 9):
        iv = Interval(1, n)
        for a, b in itertools.permutations(iv.vertices(), 2):
            if brute_hamilton_path(iv, (a, b)) is not None:
                _assert_rotated_ends_have_paths(iv, a, b)


def test_path_search_enters_no_failed_state_again():
    # No path of odd steps runs from 1 to 2 at odd order 17: such a path
    # alternates parities, so both of its ends are odd.  The search has to
    # rule out every state, and its memo keeps it within the m * 2^(m-2)
    # states the subset DP would hold (it enters about 32 K); without the
    # memo it enters 1.6 M.
    entered = []

    class Row(list):
        def __iter__(self):
            entered.append(None)
            return super().__iter__()

    m = 17
    adj = [Row(row) for row in oracle._adjacency(list(range(1, m + 1)), frozenset({3, 5, 7, 11, 13}))]
    assert oracle._least_path(adj, 0, 1) is None
    assert len(entered) <= m << (m - 2), len(entered)


def _sampled_lines():
    for n in range(13, 19):
        iv = Interval(1, n)
        pairs = random.Random(n).sample(list(itertools.permutations(iv.vertices(), 2)), 8)
        for a, b in pairs:
            for prefer in ("min", "max"):
                w = brute_hamilton_path(iv, (a, b), prefer=prefer)
                yield f"{n} {a} {b} {prefer}: {None if w is None else w.sequence}"


def test_sampled_witnesses_are_pinned():
    # Eight sampled ordered pairs at each order 13-18, both walk preferences:
    # past the all-pairs pin below, the witnesses stay byte-identical too.
    digest = hashlib.sha256("\n".join(_sampled_lines()).encode()).hexdigest()
    assert digest == "a7c4efc0e5243788e0dfbe9ed6c69b6f984f68548784877e4f31fc74016c05af"


def _pair_lines(intervals):
    for iv in intervals:
        vs = list(iv.vertices())
        for a in vs:
            for b in vs:
                if a == b:
                    continue
                for prefer in ("min", "max"):
                    w = brute_hamilton_path(iv, (a, b), prefer=prefer)
                    seq = None if w is None else w.sequence
                    yield f"{iv.lo} {iv.hi} {a} {b} {prefer}: {seq}"


def _pinned_lines():
    yield from _pair_lines([Interval(1, n) for n in range(1, 13)] + [Interval(4, 15)])
    for n in range(1, 15):
        yield f"{n}: {sorted(brute_infeasible_pairs(n))}"


def test_witnesses_are_pinned():
    # Every oracle witness (both walk preferences) at orders 1-12 and on a
    # shifted interval, plus the infeasible-pair sets at orders 1-14: the
    # search may get faster, but its answers must stay byte-identical.
    digest = hashlib.sha256("\n".join(_pinned_lines()).encode()).hexdigest()
    assert digest == "d031c7c6341f7a583c1aca7ca51bf4c316e044509767d505763b3afcb85a7f45"


def test_witnesses_13_to_16_are_pinned():
    # Every ordered pair at orders 13-16, both walk preferences, past the
    # all-pairs pin above.  The digest was taken where the path search was
    # still checked against the subset DP's greedy walk on these inputs.
    lines = _pair_lines(Interval(1, n) for n in range(13, 17))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "cd88d576064eeb5a8f702d3993dcf588794b17983d253bfb3e48d7862d116303"


def _restricted_lines():
    base = (2, 3, 5, 7, 11, 13)
    for n in range(17):
        for r in range(len(base) + 1):
            for sub in itertools.combinations(base, r):
                allowed = set(sub) | {4, 9}
                w = brute_diff_restricted_cycle(n, allowed)
                yield f"{n} {sorted(allowed)}: {None if w is None else w.sequence}"


def test_restricted_cycles_are_pinned():
    # Every restricted-cycle answer, None included, at orders 0-16 against
    # every subset of {2, 3, 5, 7, 11, 13} (with the non-primes 4 and 9
    # added, which must never count): 1,088 cases, byte-identical.
    digest = hashlib.sha256("\n".join(_restricted_lines()).encode()).hexdigest()
    assert digest == "5721b473de5b3c8b25c285fc1422a100ef1b40416417111ae5fca4c78c2e58a6"


def test_restricted_cycles_past_order_16_are_pinned():
    # Past the 0-16 pin above: orders 17-22 against five allowed sets, 30
    # queries of which 27 have a cycle.  The digest was taken from the
    # subset DP's greedy walk, before the path search built the cycles.
    t0 = time.perf_counter()
    lines = []
    for n in range(17, 23):
        for allowed in ({2, 3}, {2, 5, 7}, {2, 3, 5, 7}, {3, 5, 7, 11, 13}, {2, 7, 11, 19}):
            w = brute_diff_restricted_cycle(n, allowed)
            lines.append(f"{n} {sorted(allowed)}: {None if w is None else w.sequence}")
    elapsed = time.perf_counter() - t0
    assert sum(not line.endswith("None") for line in lines) == 27
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "dd5d7850afd147e23712fc7706c76a50959a9c4476c8a5184c97ec3110dc4636"
    assert elapsed < 3.0, f"took {elapsed:.2f}s, bound is 3s"


def _foreign_imports(source: str) -> list[str]:
    """Modules imported by `source` (a module of the primediff package) other
    than the stdlib and the primes, errors and graphs modules."""
    allowed = {"primediff.primes", "primediff.errors", "primediff.graphs"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "primediff" if node.level else ""
            module = ".".join(filter(None, (module, node.module)))
            if module == "primediff":  # from . import x
                names += [f"primediff.{alias.name}" for alias in node.names]
            else:
                names.append(module)
    return [
        name
        for name in names
        if ".".join(name.split(".")[:2]) not in allowed
        and name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_oracle_imports_no_constructive_module():
    # The oracle is the independent check on the constructions, so it may
    # use the sieve, the error types and the witness types, nothing else.
    assert _foreign_imports(Path(oracle.__file__).read_text()) == []
    probe = "import os\nfrom . import paths\nfrom .factors import two_factor\nfrom primediff.graphs import Interval\nimport primediff.generators\n"
    assert _foreign_imports(probe) == ["primediff.paths", "primediff.factors", "primediff.generators"]
