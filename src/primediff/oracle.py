"""Exhaustive small-order searches used as ground truth for the constructors.

Deliberately independent: nothing here calls the constructive modules, only
the shared witness types and verifiers.  Every search is capped; the cap is
configuration (argument or ORACLE_MAX_ORDER environment variable), never a
silent truncation.

Every witness comes from one depth-first search with a memo of failed
states (`_least_path`), which finds a path with little backtracking when
there is one.  Infeasible pairs need it about once per start: each path
found is closed under Posa rotations (Posa, Discrete Math. 14, 1976) and
the answer under the mirror v -> n + 1 - v.  Restricted cycles are the
same search from vertex 1 back to 1, after one parity cut.
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


def _least_path(adj: list[list[int]], start: int, end: int) -> list[int] | None:
    """Least Hamilton path from index `start` to index `end` in adj order:
    the indices after `start`, `end` last, or None.  With start == end it is
    the least Hamilton cycle through start: start is visited from the outset,
    so the search re-enters it only once every index is visited.

    Depth-first search on an explicit stack that tries neighbors in adj
    order, so its first complete path is the least.  A state is the mask of
    visited indices and the current index; once every extension of a state
    has failed, the state goes into `failed` and is never entered again.  So
    the search enters each state at most once, and holds only the failed ones.
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
    length left (lengths[0] in `below`), whose last vertex closes it and lies
    above its second, so no arrangement is tried twice; then the rest is solved.
    Each `below` generator marks the vertex it adds while the states under it
    are searched; a stack of them, as in `_least_path`, needs no recursion.
    """
    _guard(n, max_order)
    lengths = sorted(lengths)
    if any(L < 3 for L in lengths) or sum(lengths) != n:
        raise ValueError(f"bad length multiset {lengths} for n={n}")
    # Vertex indices 0..n-1 stand for 1..n; the index order is the vertex order.
    adj = _adjacency(list(range(1, n + 1)))
    free = [True] * n

    def below(cycle: list[int], lengths: list[int]):
        """The states one step on from (open cycle, lengths left), in order."""
        if not cycle:
            s = free.index(True)
            free[s] = False
            for i, L in enumerate(lengths):
                if L not in lengths[:i]:
                    yield [s], [L, *lengths[:i], *lengths[i + 1 :]]
            free[s] = True
        else:
            last = len(cycle) + 1 == lengths[0]  # v completes the cycle, so it must close it
            for v in adj[cycle[-1]]:
                if free[v] and (not last or cycle[1] < v and cycle[0] in adj[v]):
                    free[v] = False
                    yield ([], lengths[1:]) if last else ([*cycle, v], lengths)
                    free[v] = True

    stack = [iter([([], lengths)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state[0] or state[1]:
            stack.append(below(*state))
        else:
            return True
    return False


def brute_diff_restricted_cycle(
    n: int, allowed, *, max_order: int | None = None
) -> CycleWitness | None:
    """Lexicographically least Hamilton cycle of [1, n], read from 1, whose
    differences all lie in `allowed` (non-primes in it never count), or None.

    Without 2 every counted difference is odd, so the graph is bipartite
    between odd and even vertices, classes of unequal size at odd n: no
    cycle.  Otherwise `_least_path` from 1 back to 1 decides and builds it.
    The least cycle already has its second vertex below its last, since
    otherwise its reversal would be smaller.
    """
    _guard(n, max_order)
    allowed = frozenset(allowed)
    if n < 3 or n % 2 and 2 not in allowed:
        return None
    walk = _least_path(_adjacency(list(range(1, n + 1)), allowed), 0, 0)
    return None if walk is None else CycleWitness(Interval(1, n), (1, *(i + 1 for i in walk[:-1])))
