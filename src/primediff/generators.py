"""Difference-restricted and edge-disjoint cycle families.

Three generators: Hamilton paths and cycles using only differences 2 and 3,
Hamilton cycles using only the two primes of a decomposition n = p + q, and
families of pairwise edge-disjoint Hamilton cycles assembled from both.  The
two-prime cycles for distinct decompositions of the same n use disjoint
difference sets, so they never share an edge; only the {2, 3} cycle can
collide with a pair containing 2 or 3.
"""

from __future__ import annotations

from .errors import Infeasible, NotFound
from .graphs import CycleWitness, DisjointFamily, Interval, PathWitness, certify
from .paths import hamilton_cycle
from .primes import is_prime, prime_arithmetic_progression, prime_pair_decompositions
from .transforms import complement_seq


def _seq_diff23(n: int) -> tuple[int, ...]:
    """The unchecked sequence of `path_diff23(n)`, for n >= 6."""
    if n % 2 == 0:
        return tuple(range(n, 5, -2)) + (3, 1, 4, 2) + tuple(range(5, n, 2))
    return tuple(range(n, 4, -2)) + (2, 4, 1, 3) + tuple(range(6, n, 2))


def path_diff23(n: int) -> PathWitness:
    """Hamilton path of [1, n] using only differences 2 and 3 (n >= 6).

    Runs from n down to n - 1: one parity descends, a four-vertex elbow
    turns around at the bottom, the other parity ascends.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    seq = _seq_diff23(n)
    return certify(PathWitness(Interval(1, n), seq), expected_endpoints=(n, n - 1), allowed_diffs={2, 3})


def cycle_diff23(n: int) -> CycleWitness:
    """Hamilton cycle of [1, n] using only differences 2 and 3.

    Exists for n = 5 and all n >= 10; the orders between admit none.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n == 5:
        return certify(CycleWitness(Interval(1, 5), (1, 4, 2, 5, 3)), allowed_diffs={2, 3})
    if n < 10:
        raise Infeasible(f"no {{2, 3}}-difference Hamilton cycle at order {n}", n=n)
    # Glue two difference-{2,3} paths: one on [1, h+1] from h+1 to h, one on
    # [h, n] from n down to n-1 complemented to run h -> h+1; the junction
    # differences are |h+1 - h| mates already inside the two sequences, and
    # the seam edges are h+1..(second path start) and (second path end)..h+1.
    # The halves are checked once, as part of the whole cycle.
    h = n // 2
    a_part = _seq_diff23(h + 1)
    b_part = complement_seq(_seq_diff23(n - h + 1), 1, n)  # h -> h+1 on [h, n]
    return certify(CycleWitness(Interval(1, n), a_part + b_part[1:-1]), allowed_diffs={2, 3})


def cycle_two_primes(n: int, pair: tuple[int, int]) -> CycleWitness:
    """Hamilton cycle of [1, n] using only the differences p and q = n - p.

    Requires p and q to be distinct primes with p + q = n.  Stepping by p
    modulo n visits every vertex exactly once (p and n are coprime: any
    common factor of p and n would divide q as well), and each step wraps to
    a difference of p or q.
    """
    p, q = sorted(pair)
    if p == q:
        raise ValueError(f"primes must be distinct, got {pair}")
    if p + q != n:
        raise ValueError(f"{p} + {q} != {n}")
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"({p}, {q}) is not a prime pair")
    # Already canonical as built: it starts at 1, and its second vertex p + 1
    # is below its last, (n - 1)p mod n + 1 = q + 1.
    seq = tuple((i * p) % n + 1 for i in range(n))
    return certify(CycleWitness(Interval(1, n), seq), allowed_diffs={p, q})


def edge_disjoint_cycles(n: int) -> DisjointFamily:
    """A family of pairwise edge-disjoint Hamilton cycles of [1, n] (n >= 5).

    Takes one cycle per prime-pair decomposition of n, plus the {2, 3} cycle
    when it exists and collides with at most one pair (dropping that pair:
    the swap never shrinks the family).  Falls back to a single generic
    Hamilton cycle when no decomposition exists and n < 10.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    pairs = prime_pair_decompositions(n)
    cycles: list[CycleWitness] = []
    sources: list[str] = []

    conflicted = [pr for pr in pairs if 2 in pr or 3 in pr]
    use_23 = (n == 5 or n >= 10) and len(conflicted) <= 1
    kept = [pr for pr in pairs if not (use_23 and pr in conflicted)]

    for p, q in kept:
        cycles.append(cycle_two_primes(n, (p, q)))
        sources.append(f"pair:{p},{q}")
    if use_23:
        cycles.append(cycle_diff23(n))
        sources.append("diff23")
    if not cycles:
        cycles.append(hamilton_cycle(n))
        sources.append("fallback")
    return certify(DisjointFamily(Interval(1, n), tuple(cycles), tuple(sources)))


def n_for_t_disjoint(t: int, search_limit: int = 10_000) -> tuple[int, DisjointFamily]:
    """An order n with at least t pairwise edge-disjoint Hamilton cycles.

    Pairs the ends of a 2t-term arithmetic progression of primes: each of
    the t symmetric pairs sums to the same n, giving t two-prime cycles with
    pairwise disjoint difference sets.  Both the first term and the common
    difference of the progression are searched up to search_limit.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    ap = prime_arithmetic_progression(2 * t, search_limit)
    if ap is None:
        raise NotFound(
            f"no {2 * t}-term prime progression with first term and difference at most {search_limit}"
        )
    n = ap[0] + ap[-1]
    cycles: list[CycleWitness] = []
    sources: list[str] = []
    for i in range(t):
        p, q = ap[i], ap[2 * t - 1 - i]
        cycles.append(cycle_two_primes(n, (p, q)))
        sources.append(f"pair:{p},{q}")
    return n, certify(DisjointFamily(Interval(1, n), tuple(cycles), tuple(sources)))
