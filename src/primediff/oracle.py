"""Exhaustive small-order searches used as ground truth for the constructors.

Deliberately independent: nothing here calls the constructive modules, only
the shared witness types and verifiers.  Every search is capped; the cap is
configuration (argument or ORACLE_MAX_ORDER environment variable), never a
silent truncation.

Every witness comes from one depth-first search with a memo of failed
states (`_least_path`), which finds a path with little backtracking when
there is one.  Infeasible pairs need it about once per start: each path
found is closed under Posa rotations (Posa, Discrete Math. 14, 1976) and
the answer under the mirror v -> n + 1 - v.  Restricted-cycle queries mostly
have no cycle, so a bit-parallel subset DP over every mask at once
(`_reach_sets`) first decides whether the cycle exists.
"""

from __future__ import annotations

import os

from . import primes
from .errors import OrderCapExceeded
from .graphs import CycleWitness, Interval, PathWitness

DEFAULT_MAX_ORDER = 22
ENV_MAX_ORDER = "ORACLE_MAX_ORDER"


def _guard(order: int, max_order: int | None) -> None:
    """Refuse an order above the cap: `max_order`, else the ORACLE_MAX_ORDER
    environment variable, else DEFAULT_MAX_ORDER."""
    if max_order is None:
        env = os.environ.get(ENV_MAX_ORDER)
        try:
            max_order = int(env) if env else DEFAULT_MAX_ORDER
        except ValueError:
            raise ValueError(f"{ENV_MAX_ORDER} must be an integer, got {env!r}") from None
    if order > max_order:
        raise OrderCapExceeded(order, max_order)


def _adjacency(verts: list[int], allowed=None) -> list[list[int]]:
    """Ascending neighbor indices by vertex index; with `allowed`, only the
    prime differences in it count."""
    flags = primes.prime_flags(verts[-1] - verts[0] if verts else 0)
    ok = [f == 1 and (allowed is None or d in allowed) for d, f in enumerate(flags[: len(verts)])]
    return [[j for j, w in enumerate(verts) if ok[abs(w - v)]] for v in verts]


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


def _least_path(adj: list[list[int]], start: int, end: int) -> list[int] | None:
    """Least Hamilton path from index `start` to index `end` in adj order:
    the indices after `start`, `end` last, or None.  With start == end it is
    the least Hamilton cycle through start: start is visited from the outset,
    so the search re-enters it only once every index is visited.

    Depth-first search on an explicit stack that tries neighbors in adj
    order, so its first complete path is the least.  A state is the mask of
    visited indices and the current index; once every extension of a state
    has failed, the state goes into `failed` and is never entered again.  So
    the search meets at most the DP's states, and holds only the failed ones.
    """
    full = (1 << len(adj)) - 1
    failed: set[tuple[int, int]] = set()
    path = [start]
    mask = 1 << start
    stack = [iter(adj[start])]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            v = path.pop()
            failed.add((mask, v))
            mask ^= 1 << v
        elif u == end:
            if mask | 1 << u == full:
                return path[1:] + [end]
        elif not mask >> u & 1 and (mask | 1 << u, u) not in failed:
            mask |= 1 << u
            path.append(u)
            stack.append(iter(adj[u]))
    return None


def brute_hamilton_path(
    interval: Interval,
    endpoints: tuple[int, int],
    *,
    max_order: int | None = None,
    prefer: str = "min",
) -> PathWitness | None:
    """Exhaustive search for a Hamilton path between fixed endpoints.

    Returns a witness or None.  The witness is the lexicographically least
    such path ("min"), or the greatest with prefer="max"; existence does not
    depend on that choice.  The search is `_least_path` on neighbor lists
    in ascending ("min") or descending ("max") order.
    """
    _guard(interval.order, max_order)
    a, b = endpoints
    verts = list(interval.vertices())
    if a not in interval.vertices() or b not in interval.vertices() or a == b:
        raise ValueError(f"bad endpoints {endpoints} for {interval}")
    if prefer not in ("min", "max"):
        raise ValueError("prefer must be 'min' or 'max'")
    ai, bi = a - interval.lo, b - interval.lo
    adj = _adjacency(verts)
    if prefer == "max":
        adj = [nbrs[::-1] for nbrs in adj]
    walk = _least_path(adj, ai, bi)
    return None if walk is None else PathWitness(interval, (a, *(verts[i] for i in walk)))


def _rotated_ends(path: list[int], flags) -> set[int]:
    """Every end that Posa rotations reach from a Hamilton path, path[0] kept.

    If path[i] is adjacent to the end z and i < len(path) - 2, then
    path[:i+1] + path[:i:-1] is a Hamilton path from path[0] to path[i+1].
    Each new end is reached by one path, and that path is rotated in turn.
    """
    ends = {path[-1]}
    todo = [path]
    while todo:
        p = todo.pop()
        z = p[-1]
        for i in range(len(p) - 2):
            if flags[abs(p[i] - z)] and p[i + 1] not in ends:
                ends.add(p[i + 1])
                todo.append(p[: i + 1] + p[:i:-1])
    return ends


def brute_infeasible_pairs(n: int, *, max_order: int | None = None) -> set[tuple[int, int]]:
    """All endpoint pairs (a < b) of [1, n] with no Hamilton path between them.

    The map v -> n + 1 - v keeps every difference, so (a, b) is infeasible
    exactly when (n + 1 - b, n + 1 - a) is: only pairs with a + b <= n + 1
    are searched, and the answer is closed under the mirror.  From each
    start, `_least_path` runs only on an end that no earlier path from that
    start has reached; every path found is closed under Posa rotations
    (Posa, Discrete Math. 14, 1976), and each end reached has a path.  The
    ends the search does not reach are the answer.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    _guard(n, max_order)
    adj = _adjacency(list(range(1, n + 1)))
    flags = primes.prime_flags(n)
    found = set()
    for a in range(n):
        reached: set[int] = set()
        for b in range(a + 1, n - a):
            if b in reached:
                continue
            walk = _least_path(adj, a, b)
            if walk is None:
                found.add((a + 1, b + 1))
            else:
                reached |= _rotated_ends([a, *walk], flags)
    return found | {(n + 1 - b, n + 1 - a) for a, b in found}


def brute_two_factor_exists(n: int, lengths, *, max_order: int | None = None) -> bool:
    """Backtracking search: can [1, n] be covered by disjoint cycles of the
    given lengths?  The least free vertex starts an open cycle of each distinct
    length left (lengths[0] in `solve`), which closes with its second vertex
    below its last, so no arrangement is tried twice; then the rest is solved."""
    _guard(n, max_order)
    lengths = sorted(lengths)
    if any(L < 3 for L in lengths) or sum(lengths) != n:
        raise ValueError(f"bad length multiset {lengths} for n={n}")
    # Vertex indices 0..n-1 stand for 1..n; the index order is the vertex order.
    adj = _adjacency(list(range(1, n + 1)))
    free = [True] * n

    def solve(cycle: list[int], lengths: list[int]) -> bool:
        if not cycle:
            if not lengths:
                return True
            s = free.index(True)
            free[s] = False
            for i, L in enumerate(lengths):
                if L not in lengths[:i] and solve([s], [L, *lengths[:i], *lengths[i + 1 :]]):
                    return True
            free[s] = True
            return False
        if len(cycle) == lengths[0]:
            return cycle[1] < cycle[-1] and cycle[0] in adj[cycle[-1]] and solve([], lengths[1:])
        for v in adj[cycle[-1]]:
            if free[v]:
                free[v] = False
                if solve([*cycle, v], lengths):
                    return True
                free[v] = True
        return False

    return solve([], lengths)


def brute_diff_restricted_cycle(
    n: int, allowed, *, max_order: int | None = None
) -> CycleWitness | None:
    """Lexicographically least Hamilton cycle of [1, n], read from 1, whose
    differences all lie in `allowed` (non-primes in it never count), or None.

    The reach-set DP (`_reach_sets`, anchored at vertex 1) decides whether
    the cycle exists: some neighbor of 1 must reach 1 over every vertex.
    Only then does `_least_path` from 1 back to 1 build it, and the return
    to 1 is dropped.  The least such cycle already has its second vertex
    below its last, since otherwise its reversal would be smaller.
    """
    _guard(n, max_order)
    if n < 3:
        return None
    adj = _adjacency(list(range(1, n + 1)), frozenset(allowed))
    reach = _reach_sets(adj)
    if all(reach[u].bit_length() != 1 << (n - 1) for u in adj[0]):
        return None
    walk = _least_path(adj, 0, 0)
    return CycleWitness(Interval(1, n), (1, *(i + 1 for i in walk[:-1])))
