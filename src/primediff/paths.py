"""Hamilton paths with designated endpoints, and Hamilton cycles.

Everything is built from one table of hand-built rows plus three interval
moves (complement, shift, reversal): long paths wrap or chain shorter ones,
and arbitrary endpoint pairs reduce to paths that start at 1.  Orders 5
through 8 carry a handful of genuinely infeasible endpoint pairs, listed
exactly in `EXCEPTION_PAIRS`; from order 9 on every pair is realizable.  Each
public constructor re-verifies its witness before returning it.

Each table is the one statement of its fact.  `ROWS[(n, a, b)]` holds every
hand-built path, from a to b as stored; `_path_1m` (the only builder of paths
from vertex 1) and `_ham_seq` each read it once before their generic rule, so
no recursion repeats its key ranges as order thresholds.  `infeasible_pairs`
returns `EXCEPTION_PAIRS` as stored, at any order.

Builders emit each piece in place: `_path_1m(n, m, k)` is the path on
[k+1, k+n], made of ranges offset by k, so each vertex int is created once
(twice only where `complement_seq` mirrors a piece).  Nothing is memoized: a
call takes O(n) time and memory, all freed with its result.
"""

from __future__ import annotations

from .errors import Infeasible, NonEdge
from .graphs import CycleWitness, Interval, PathWitness, certify
from .primes import is_prime
from .transforms import complement_seq, reverse_seq, shift_seq

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
    # chaining of `_path_1m` cannot reduce further.
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
# Sequence construction on plain tuples; wrapping into witnesses happens at
# the public surface, where the result is certified.


def _path_1m(n: int, m: int, k: int = 0) -> tuple[int, ...]:
    """Hamilton path of [k+1, k+n] from k+1 to k+m, any 2 <= m <= n (n >= 5)."""
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    if n < 5:
        raise ValueError(f"order {n} below the supported range")
    if n == 5 and m not in (3, 4):
        raise Infeasible(f"no Hamilton path from 1 to {m} at order 5", n=5, endpoints=(1, m))
    # The table holds exactly the orders below each recursion's reach.
    row = ROWS.get((n, 1, m))
    if row is not None:
        return shift_seq(row, k)
    if m == 2:
        # Wrapping 1 ... 2 around the order-(n-2) path, unrolled: odd ramp,
        # shifted row, even ramp back down.
        row = ROWS[6 if n % 2 == 0 else 7, 1, 2]
        r = k + n - len(row)
        return (*range(k + 1, r, 2), *shift_seq(row, r), *range(r, k + 1, -2))
    if m == 3:
        return (k + 1, k + 4, k + 2) + _path_1m(n - 4, 2, k + 4) + (k + 3,)
    if m == 4:
        return (k + 1, k + 3) + _path_1m(n - 4, 3, k + 4) + (k + 2, k + 4)
    if m == 5:
        return (k + 1, k + 3) + _path_1m(n - 5, 4, k + 5) + (k + 4, k + 2, k + 5)
    if m == 6:
        return (k + 1, k + 3, k + 5, k + 2, k + 4) + reverse_seq(_path_1m(n - 5, 2, k + 5))
    # Chain q five-vertex steps, step j visiting 5j + (1, 3, 5, 2, 4); the rest
    # is a base far endpoint (m - 5q <= 6) or one of the order-7..10 rows.
    q = min((n - 6) // 5, (m - 2) // 5)
    seq = [0] * (5 * q)
    for i, v in enumerate(ROWS[6, 1, 6][:5]):
        seq[i::5] = range(k + v, k + v + 5 * q, 5)
    seq += _path_1m(n - 5 * q, m - 5 * q, k + 5 * q)
    return tuple(seq)


def _ham_seq(n: int, a: int, b: int) -> tuple[int, ...]:
    """Hamilton path sequence of [1, n] from a to b, 1 <= a < b <= n."""
    # The exception sets are closed under the mirror, so checking the
    # caller's own pair first keeps it in the Infeasible report.
    if (a, b) in EXCEPTION_PAIRS.get(n, ()):
        raise Infeasible(
            f"no Hamilton path between {a} and {b} at order {n}",
            n=n,
            endpoints=(a, b),
        )
    if a > n + 1 - b:
        # Mirror into the half where the left endpoint is the tighter one.
        return reverse_seq(complement_seq(_ham_seq(n, n + 1 - b, n + 1 - a), 1, n))
    row = ROWS.get((n, a, b))
    if row is not None:
        return row
    if a == 1:
        return _path_1m(n, b)
    if a >= 6:
        # Cover [1, a] ending next to a+1, then the rest.
        left = complement_seq(_path_1m(a, 2), 1, a)  # a -> a-1
        if b == a + 1:
            right = reverse_seq(_path_1m(n - a, 2, a))  # a+2 -> a+1
        else:
            right = _path_1m(n - a, b - a, a)  # a+1 -> b
        return left + right
    if b >= 7:
        # Split at vertex 6: cover [1, 6] from a to 6, then [6, n] from 6 to b.
        left = reverse_seq(complement_seq(_path_1m(6, 7 - a), 1, 6))  # a -> 6
        right = _path_1m(n - 5, b - 5, 5)  # 6 -> b
        return left + right[1:]
    # 2 <= a < b <= 6: fixed prefixes around one long interior segment.
    if (a, b) == (2, 3):
        return (2,) + _path_1m(n - 3, 3, 3) + (1, 3)
    if (a, b) == (2, 4):
        return (2,) + _path_1m(n - 4, 4, 4) + (3, 1, 4)
    if (a, b) == (2, 5):
        return (2, 4, 1, 3) + reverse_seq(_path_1m(n - 4, 4, 4))
    if (a, b) == (2, 6):
        return (2, 4, 1, 3, 5) + reverse_seq(_path_1m(n - 5, 3, 5))
    if (a, b) == (3, 4):
        return (3, 1) + reverse_seq(_path_1m(n - 4, 4, 4)) + (2, 4)
    if (a, b) == (3, 5):
        return (3, 1, 4, 2) + reverse_seq(_path_1m(n - 4, 3, 4))
    if (a, b) == (3, 6):
        return (3, 1, 4, 2) + _path_1m(n - 4, 2, 4)
    if (a, b) == (4, 5):
        return (4, 1, 3) + _path_1m(n - 5, 4, 5) + (2, 5)
    if (a, b) == (4, 6):
        return (4, 1, 3, 5, 2) + reverse_seq(_path_1m(n - 5, 4, 5))
    if (a, b) == (5, 6):
        return (5, 2, 4, 1, 3) + reverse_seq(_path_1m(n - 5, 3, 5))
    raise AssertionError(f"unhandled endpoint pair ({a}, {b}) at order {n}")


# ---------------------------------------------------------------------------
# Public constructors.


def base_path_1_to_m(n: int, m: int) -> PathWitness:
    """Hamilton path of [1, n] from 1 to m for the base range m in [2, 6]."""
    if not 2 <= m <= 6:
        raise ValueError(f"base construction covers m in [2, 6], got {m}")
    try:
        seq = _path_1m(n, m)
    except (ValueError, Infeasible):
        raise ValueError(f"no base path for (n={n}, m={m})") from None
    return certify(PathWitness(Interval(1, n), seq), expected_endpoints=(1, m))


def path_1_to_m(n: int, m: int) -> PathWitness:
    """Hamilton path of [1, n] from 1 to m, for any 2 <= m <= n (n >= 5).

    At order 5 only m in {3, 4} is realizable; other m raise Infeasible.
    """
    return certify(PathWitness(Interval(1, n), _path_1m(n, m)), expected_endpoints=(1, m))


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
        seq = reverse_seq(seq)
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
    return certify(CycleWitness(Interval(1, n), _path_1m(n, 4)))


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
