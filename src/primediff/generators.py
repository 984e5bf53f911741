"""Difference-restricted and edge-disjoint cycle families.

Three generators: Hamilton paths and cycles using only differences 2 and 3,
Hamilton cycles using only the two primes of a decomposition n = p + q, and
families of pairwise edge-disjoint Hamilton cycles assembled from both.  The
two-prime cycles for distinct decompositions of the same n use disjoint
difference sets, so they never share an edge; only the {2, 3} cycle can
collide with a pair containing 2 or 3.
"""

from __future__ import annotations

from itertools import chain

from .errors import Infeasible, NotFound
from .graphs import CycleWitness, DisjointFamily, Interval, PathWitness, certify
from .paths import hamilton_cycle
from .primes import is_prime, prime_arithmetic_progression, prime_pair_decompositions


def _fill_diff23(out: list[int], n: int, k: int = 0, s: int = 1) -> None:
    """Append the sequence of `path_diff23(n)`, n >= 6, writing vertex v as
    k + s*v as `paths._ham_fill` does: a ramp, the elbow, a ramp."""
    odd = n % 2
    out += range(k + s * n, k + s * (5 - odd), -2 * s)
    out += [k + s * v for v in ((2, 4, 1, 3) if odd else (3, 1, 4, 2))]
    out += range(k + s * (5 + odd), k + s * n, 2 * s)


def path_diff23(n: int) -> PathWitness:
    """Hamilton path of [1, n] using only differences 2 and 3 (n >= 6).

    Runs from n down to n - 1: one parity descends, a four-vertex elbow
    turns around at the bottom, the other parity ascends.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    out: list[int] = []
    _fill_diff23(out, n)
    return certify(PathWitness(Interval(1, n), tuple(out)), expected_endpoints=(n, n - 1), allowed_diffs={2, 3})


def _seq_cycle23(n: int) -> tuple[int, ...]:
    """The unchecked sequence of `cycle_diff23(n)`, for n = 5 and n >= 10."""
    if n == 5:
        return (1, 4, 2, 5, 3)
    # The path of [1, h+1] from h+1 to h, then the path of [1, n-h+1]
    # mirrored onto [h, n], h -> h+1, less the two ends it repeats: both
    # seams (h onward, and back to h+1) are edges of the mirrored path.
    h = n // 2
    out: list[int] = []
    _fill_diff23(out, h + 1)
    _fill_diff23(out, n - h + 1, n + 1, -1)
    del out[h + 1], out[-1]
    return tuple(out)


def cycle_diff23(n: int) -> CycleWitness:
    """Hamilton cycle of [1, n] using only differences 2 and 3.

    Exists for n = 5 and all n >= 10; the orders between admit none.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n < 10 and n != 5:
        raise Infeasible(f"no {{2, 3}}-difference Hamilton cycle at order {n}", n=n)
    return certify(CycleWitness(Interval(1, n), _seq_cycle23(n)), allowed_diffs={2, 3})


def _two_prime_cycles(n: int, ps) -> list[CycleWitness]:
    """The unchecked cycles `cycle_two_primes(n, (p, n - p))` for each p in
    `ps`: +p modulo n, read from one list vals = [1, ..., n].

    Lap j of the walk is the stride-p slice of vals from (-j*n) mod p, so the
    cycles share vals' int objects instead of each holding n of its own.
    Each is canonical as built: it starts at 1, and its second vertex p + 1
    is below its last, (n - 1)p mod n + 1 = n - p + 1.
    """
    interval, vals = Interval(1, n), list(range(1, n + 1))
    return [
        CycleWitness(interval, tuple(chain.from_iterable(vals[(-j * n) % p :: p] for j in range(p)))) for p in ps
    ]


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
    return certify(_two_prime_cycles(n, (p,))[0], allowed_diffs={p, q})


def two_prime_cycles(n: int) -> DisjointFamily:
    """`cycle_two_primes(n, pair)` for every prime pair of n, ascending in p,
    as a family with no labels.  Each cycle is certified against its own
    pair, so no two share a difference, nor an edge."""
    pairs = prime_pair_decompositions(n)
    if not pairs:
        raise NotFound(f"no prime pair decompositions of {n}")
    cycles = _two_prime_cycles(n, [p for p, _ in pairs])
    certified = tuple(certify(c, allowed_diffs=set(pq)) for c, pq in zip(cycles, pairs))
    return DisjointFamily(Interval(1, n), certified, ())


def edge_disjoint_cycles(n: int) -> DisjointFamily:
    """A family of pairwise edge-disjoint Hamilton cycles of [1, n] (n >= 5).

    Takes one cycle per prime-pair decomposition of n, plus the {2, 3} cycle
    wherever it exists (n = 5 or n >= 10), in place of the pair containing 2
    or 3 if there is one.  There is at most one: two would make n - 2 and
    n - 3 both prime, so n = 5, whose one pair is (2, 3).  Falls back to a
    single generic Hamilton cycle when neither exists (n = 6).  The members
    are certified once, as part of the family.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    interval = Interval(1, n)
    use_23 = n == 5 or n >= 10
    pairs = [(p, q) for p, q in prime_pair_decompositions(n) if not (use_23 and p in (2, 3))]
    cycles = _two_prime_cycles(n, [p for p, _ in pairs])
    sources = [f"pair:{p},{q}" for p, q in pairs]
    if use_23:
        cycles.append(CycleWitness(interval, _seq_cycle23(n)))
        sources.append("diff23")
    if not cycles:
        cycles.append(hamilton_cycle(n))
        sources.append("fallback")
    return certify(DisjointFamily(interval, tuple(cycles), tuple(sources)))


def n_for_t_disjoint(t: int, search_limit: int = 10_000) -> tuple[int, DisjointFamily]:
    """An order n with at least t pairwise edge-disjoint Hamilton cycles.

    Pairs the ends of a 2t-term arithmetic progression of primes: each of
    the t symmetric pairs sums to the same n, giving t two-prime cycles with
    pairwise disjoint difference sets.  The n returned is the smallest such
    sum of first and last terms over the progressions whose first term and
    common difference are both at most search_limit; ties go to the smaller
    first term.  It is not claimed to be the smallest order with t disjoint
    cycles.  The members are certified once, as part of the family.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    ap = prime_arithmetic_progression(2 * t, search_limit, least_end_sum=True)
    if ap is None:
        raise NotFound(
            f"no {2 * t}-term prime progression with first term and difference at most {search_limit}"
        )
    n = ap[0] + ap[-1]
    cycles = tuple(_two_prime_cycles(n, ap[:t]))
    sources = tuple(f"pair:{ap[i]},{ap[2 * t - 1 - i]}" for i in range(t))
    return n, certify(DisjointFamily(Interval(1, n), cycles, sources))
