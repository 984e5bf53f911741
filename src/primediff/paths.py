"""Hamilton paths with designated endpoints, and Hamilton cycles.

Everything is built from one table of hand-built rows plus three interval
moves (complement, shift, reversal): long paths wrap or chain shorter ones,
and arbitrary endpoint pairs reduce to paths that start at 1.  Orders 5
through 8 carry a handful of genuinely infeasible endpoint pairs, listed
exactly in `EXCEPTION_PAIRS`; from order 9 on every pair is realizable.  Each
public constructor re-verifies its witness before returning it.

Each table is the one statement of its fact.  `ROWS[(n, a, b)]` holds every
hand-built path, from a to b as stored, and `_PREFIXED` the fixed ends around
one long segment; `_ham_fill` reads each once before its generic rule, so no
recursion repeats their key ranges as order thresholds.  `infeasible_pairs`
returns `EXCEPTION_PAIRS` as stored, at any order.

`_ham_fill` appends to one list and writes vertex v of its interval as
k + s*v: a shift moves k, the mirror v -> n + 1 - v flips s, and a reversal
turns the appended run around once, so each vertex int is created once.
Nothing is memoized: a call takes O(n) time and memory, all freed with its
result.
"""

from __future__ import annotations

from .errors import Infeasible, NonEdge
from .graphs import CycleWitness, Interval, PathWitness, certify
from .primes import is_prime

# ---------------------------------------------------------------------------
# Hand-built rows.  ROWS[(n, a, b)] is a Hamilton path of [1, n] from a to b,
# a < b <= n + 1 - a.  The pairs it does not hold are mirrored into that half,
# built generically, or listed in EXCEPTION_PAIRS.

ROWS: dict[tuple[int, int, int], tuple[int, ...]] = {
    # From vertex 1 to m in [2, 6], for the orders below the generic
    # recursion's reach; (5, 1, 3) and (5, 1, 4) are the only pairs
    # realizable at order 5 from vertex 1.
    (6, 1, 2): (1, 4, 6, 3, 5, 2),
    (7, 1, 2): (1, 4, 6, 3, 5, 7, 2),
    (5, 1, 3): (1, 4, 2, 5, 3),
    (6, 1, 3): (1, 6, 4, 2, 5, 3),
    (7, 1, 3): (1, 6, 4, 2, 7, 5, 3),
    (8, 1, 3): (1, 4, 2, 7, 5, 8, 6, 3),
    (9, 1, 3): (1, 4, 2, 5, 7, 9, 6, 8, 3),
    (5, 1, 4): (1, 3, 5, 2, 4),
    (6, 1, 4): (1, 6, 3, 5, 2, 4),
    (7, 1, 4): (1, 6, 3, 5, 2, 7, 4),
    (8, 1, 4): (1, 3, 6, 8, 5, 7, 2, 4),
    (6, 1, 5): (1, 3, 6, 4, 2, 5),
    (7, 1, 5): (1, 3, 6, 4, 2, 7, 5),
    (8, 1, 5): (1, 8, 3, 6, 4, 2, 7, 5),
    (9, 1, 5): (1, 4, 2, 7, 9, 6, 3, 8, 5),
    (10, 1, 5): (1, 4, 2, 9, 6, 3, 8, 10, 7, 5),
    (6, 1, 6): (1, 3, 5, 2, 4, 6),
    (7, 1, 6): (1, 4, 7, 2, 5, 3, 6),
    (8, 1, 6): (1, 8, 3, 5, 7, 2, 4, 6),
    (9, 1, 6): (1, 4, 7, 9, 2, 5, 3, 8, 6),
    (10, 1, 6): (1, 4, 2, 5, 3, 8, 10, 7, 9, 6),
    # From vertex 1 to m in [7, 10], for the four orders the five-step
    # chaining of `_ham_fill` cannot reduce further.
    (7, 1, 7): (1, 3, 6, 4, 2, 5, 7),
    (8, 1, 7): (1, 8, 6, 3, 5, 2, 4, 7),
    (8, 1, 8): (1, 3, 5, 7, 2, 4, 6, 8),
    (9, 1, 7): (1, 3, 5, 8, 6, 9, 4, 2, 7),
    (9, 1, 8): (1, 3, 5, 7, 9, 2, 4, 6, 8),
    (9, 1, 9): (1, 3, 5, 8, 6, 4, 7, 2, 9),
    (10, 1, 7): (1, 4, 2, 9, 6, 3, 5, 8, 10, 7),
    (10, 1, 8): (1, 4, 2, 9, 7, 10, 5, 3, 6, 8),
    (10, 1, 9): (1, 8, 3, 5, 10, 7, 2, 4, 6, 9),
    (10, 1, 10): (1, 3, 5, 7, 9, 2, 4, 6, 8, 10),
    # Orders 5..8: every feasible pair with 1 < a <= n + 1 - b, so that
    # `_ham_seq` reaches none of its generic forms below order 9.
    (5, 2, 4): (2, 5, 3, 1, 4),
    (6, 2, 4): (2, 5, 3, 6, 1, 4),
    (6, 2, 5): (2, 4, 6, 1, 3, 5),
    (7, 2, 3): (2, 5, 7, 4, 1, 6, 3),
    (7, 2, 4): (2, 7, 5, 3, 6, 1, 4),
    (7, 2, 5): (2, 7, 4, 6, 1, 3, 5),
    (7, 2, 6): (2, 4, 7, 5, 3, 1, 6),
    (7, 3, 5): (3, 1, 6, 4, 2, 7, 5),
    (8, 2, 3): (2, 5, 7, 4, 1, 6, 8, 3),
    (8, 2, 4): (2, 7, 5, 3, 8, 6, 1, 4),
    (8, 2, 5): (2, 7, 4, 6, 1, 8, 3, 5),
    (8, 2, 6): (2, 4, 7, 5, 3, 1, 8, 6),
    (8, 2, 7): (2, 4, 1, 3, 6, 8, 5, 7),
    (8, 3, 4): (3, 6, 1, 8, 5, 2, 7, 4),
    (8, 3, 5): (3, 1, 8, 6, 4, 2, 7, 5),
    (8, 3, 6): (3, 1, 4, 2, 7, 5, 8, 6),
    # Order 9, low-low endpoint patterns whose fixed-prefix form needs one
    # more vertex of slack.
    (9, 4, 5): (4, 1, 3, 8, 6, 9, 7, 2, 5),
    (9, 4, 6): (4, 1, 3, 8, 5, 2, 7, 9, 6),
    (9, 3, 6): (3, 1, 4, 2, 9, 7, 5, 8, 6),
    (9, 2, 6): (2, 4, 1, 3, 8, 5, 7, 9, 6),
    # The split at vertex 6 needs at least six vertices on the right (five
    # when the residual far endpoint is 3 or 4 away from the window start);
    # these pairs at orders 9 and 10 have no room for it.
    (9, 2, 7): (2, 9, 6, 4, 1, 3, 8, 5, 7),
    (9, 3, 7): (3, 1, 4, 2, 9, 6, 8, 5, 7),
    (9, 2, 8): (2, 9, 7, 5, 3, 1, 4, 6, 8),
    (10, 2, 7): (2, 9, 4, 6, 1, 3, 8, 10, 5, 7),
    (10, 3, 7): (3, 1, 4, 2, 9, 6, 8, 10, 5, 7),
    (10, 4, 7): (4, 2, 9, 6, 1, 3, 8, 10, 5, 7),
}

# Orders 5..8: the full list of infeasible endpoint pairs.

EXCEPTION_PAIRS: dict[int, frozenset[tuple[int, int]]] = {
    5: frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}),
    6: frozenset({(2, 3), (3, 4), (4, 5)}),
    7: frozenset({(3, 4), (4, 5)}),
    8: frozenset({(4, 5)}),
}


# ---------------------------------------------------------------------------
# Sequence construction; witnesses are wrapped and certified at the public surface.

# Fixed ends around one long interior segment, for 1 <= a < b <= 6 (a = 1 from
# b = 3): prefix, then the path of [j+1, n] from j+1 to j+m, backwards when
# `back` is set, then suffix.
_PREFIXED: dict[tuple[int, int], tuple[tuple[int, ...], int, int, bool, tuple[int, ...]]] = {
    (1, 3): ((1, 4, 2), 4, 2, False, (3,)),
    (1, 4): ((1, 3), 4, 3, False, (2, 4)),
    (1, 5): ((1, 3), 5, 4, False, (4, 2, 5)),
    (1, 6): ((1, 3, 5, 2, 4), 5, 2, True, ()),
    (2, 3): ((2,), 3, 3, False, (1, 3)),
    (2, 4): ((2,), 4, 4, False, (3, 1, 4)),
    (2, 5): ((2, 4, 1, 3), 4, 4, True, ()),
    (2, 6): ((2, 4, 1, 3, 5), 5, 3, True, ()),
    (3, 4): ((3, 1), 4, 4, True, (2, 4)),
    (3, 5): ((3, 1, 4, 2), 4, 3, True, ()),
    (3, 6): ((3, 1, 4, 2), 4, 2, False, ()),
    (4, 5): ((4, 1, 3), 5, 4, False, (2, 5)),
    (4, 6): ((4, 1, 3, 5, 2), 5, 4, True, ()),
    (5, 6): ((5, 2, 4, 1, 3), 5, 3, True, ()),
}


def _ham_fill(out: list[int], n: int, a: int, b: int, k: int, s: int) -> None:
    """Append the Hamilton path of [1, n] from a to b, a < b <= n + 1 - a, writing
    vertex v as k + s*v.  Each run out[i:] reversed below follows a vertex (i > 0)."""
    # The table holds exactly the orders below each recursion's reach.
    row = ROWS.get((n, a, b))
    if row is not None:
        out += [k + s * v for v in row]
    elif a == 1 and b == 2:
        # Wrapping 1 ... 2 around the order-(n-2) path, unrolled: odd ramp,
        # shifted row, even ramp back down.
        row = ROWS[6 if n % 2 == 0 else 7, 1, 2]
        r = k + s * (n - len(row))
        out += range(k + s, r, 2 * s)
        out += [r + s * v for v in row]
        out += range(r, k + s, -2 * s)
    elif b <= 6:
        prefix, j, m, back, suffix = _PREFIXED[a, b]
        out += [k + s * v for v in prefix]
        i = len(out)
        _ham_fill(out, n - j, 1, m, k + s * j, s)
        if back:
            out[i:] = out[: i - 1 : -1]
        out += [k + s * v for v in suffix]
    elif a == 1:
        # Chain q five-vertex steps, step j visiting 5j + (1, 3, 5, 2, 4); the
        # rest is a base far endpoint (b - 5q <= 6) or one of the order-7..10 rows.
        q = min((n - 6) // 5, (b - 2) // 5)
        i = len(out)
        out += [0] * (5 * q)
        for j, v in enumerate(ROWS[6, 1, 6][:5], i):
            out[j::5] = range(k + s * v, k + s * (v + 5 * q), 5 * s)
        _ham_fill(out, n - 5 * q, 1, b - 5 * q, k + 5 * q * s, s)
    elif a >= 6:
        # Cover [1, a] from a to a-1 (the mirrored 1 -> 2 path), then the rest:
        # a+2 -> a+1 backwards when b = a+1, else a+1 -> b.
        _ham_fill(out, a, 1, 2, k + s * (a + 1), -s)
        i = len(out)
        _ham_fill(out, n - a, 1, 2 if b == a + 1 else b - a, k + s * a, s)
        if b == a + 1:
            out[i:] = out[: i - 1 : -1]
    else:
        # Split at vertex 6: cover [1, 6] from a to 6 (the mirrored 1 -> 7-a
        # path, backwards, with vertex 6 dropped), then [6, n] from 6 to b.
        i = len(out)
        _ham_fill(out, 6, 1, 7 - a, k + 7 * s, -s)
        out[i:] = out[:i:-1]
        _ham_fill(out, n - 5, 1, b - 5, k + 5 * s, s)


def _ham_seq(n: int, a: int, b: int) -> tuple[int, ...]:
    """Hamilton path sequence of [1, n] from a to b, 1 <= a < b <= n (n >= 5)."""
    # The exception sets are closed under the mirror, so the caller's own
    # pair is the one to check and to name in the Infeasible report.
    if (a, b) in EXCEPTION_PAIRS.get(n, ()):
        raise Infeasible(
            f"no Hamilton path between {a} and {b} at order {n}",
            n=n,
            endpoints=(a, b),
        )
    out: list[int] = []
    if a > n + 1 - b:
        # Mirror into the half where the left endpoint is the tighter one:
        # build that pair's path with v written as n + 1 - v, then reverse it.
        _ham_fill(out, n, n + 1 - b, n + 1 - a, n + 1, -1)
        out.reverse()
    else:
        _ham_fill(out, n, a, b, 0, 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# Public constructors.


def base_path_1_to_m(n: int, m: int) -> PathWitness:
    """Hamilton path of [1, n] from 1 to m for the base range m in [2, 6]."""
    if not 2 <= m <= 6:
        raise ValueError(f"base construction covers m in [2, 6], got {m}")
    try:
        return path_1_to_m(n, m)
    except (ValueError, Infeasible):
        raise ValueError(f"no base path for (n={n}, m={m})") from None


def path_1_to_m(n: int, m: int) -> PathWitness:
    """Hamilton path of [1, n] from 1 to m, for any 2 <= m <= n (n >= 5).

    At order 5 only m in {3, 4} is realizable; other m raise Infeasible.
    """
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    if n < 5:
        raise ValueError(f"order {n} below the supported range")
    if n == 5 and m not in (3, 4):
        raise Infeasible(f"no Hamilton path from 1 to {m} at order 5", n=5, endpoints=(1, m))
    return certify(PathWitness(Interval(1, n), _ham_seq(n, 1, m)), expected_endpoints=(1, m))


def hamilton_path(n: int, a: int, b: int) -> PathWitness:
    """Hamilton path of [1, n] from a to b.

    Raises Infeasible exactly for the tabulated small-order exception pairs
    (orders 5 through 8); every pair is realizable from order 9 on.
    """
    if n < 5:
        raise ValueError(f"order {n} below the supported range (n >= 5)")
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"bad endpoints ({a}, {b}) for order {n}")
    seq = _ham_seq(n, min(a, b), max(a, b))
    if a > b:
        seq = seq[::-1]
    return certify(PathWitness(Interval(1, n), seq), expected_endpoints=(a, b))


def infeasible_pairs(n: int) -> frozenset[tuple[int, int]]:
    """Endpoint pairs (a < b) the constructor reports as having no path:
    the `EXCEPTION_PAIRS` row that `_ham_seq` consults, empty from order 9 on."""
    if n < 5:
        raise ValueError(f"order {n} below the supported range (n >= 5)")
    return EXCEPTION_PAIRS.get(n, frozenset())


def hamilton_cycle(n: int) -> CycleWitness:
    """Hamilton cycle of [1, n] for n >= 5; below that none exists."""
    if n < 1:
        raise ValueError("order must be positive")
    if n < 5:
        raise Infeasible(f"no Hamilton cycle at order {n}", n=n)
    # A 1 -> 4 path closes with the prime difference 3.
    return certify(CycleWitness(Interval(1, n), _ham_seq(n, 1, 4)))


def hamilton_cycle_through_edge(n: int, edge) -> CycleWitness:
    """Hamilton cycle of [1, n] through the given prime-difference edge."""
    if n < 5:
        raise ValueError(f"order {n} below the supported range (n >= 5)")
    a, b = edge
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"bad edge ({a}, {b}) for order {n}")
    if not is_prime(abs(a - b)):
        raise NonEdge(f"|{a} - {b}| = {abs(a - b)} is not prime")
    # A Hamilton path between the edge's ends closes through that edge; no
    # prime-difference pair is among the small-order exceptions.
    seq = _ham_seq(n, min(a, b), max(a, b))
    return certify(CycleWitness(Interval(1, n), seq), required_edge=(a, b))
