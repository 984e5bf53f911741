"""Constructive Hamilton structures on prime difference graphs.

Vertices are the integers of an interval; two are adjacent exactly when they
differ by a prime.  The package builds explicit witnesses (Hamilton paths
with chosen endpoints, cycles through chosen edges, 2-factors with chosen
cycle lengths, edge-disjoint cycle families), verifies each one, and carries
a brute-force oracle for ground truth at small orders.
"""

from .errors import (
    ConstructionError,
    Infeasible,
    NonEdge,
    NotFound,
    OrderCapExceeded,
    PrimeDiffError,
)
from .factors import enumerate_specs, two_factor
from .generators import (
    DisjointFamily,
    cycle_diff23,
    cycle_two_primes,
    edge_disjoint_cycles,
    n_for_t_disjoint,
    path_diff23,
)
from .graphs import (
    CycleWitness,
    Interval,
    PathWitness,
    TwoFactorWitness,
    Verdict,
    adjacent,
    canonical_cycle,
    cycle_edges,
    verify_cycle,
    verify_edge_disjoint,
    verify_path,
    verify_two_factor,
    witness_from_json,
    witness_to_json,
)
from .oracle import (
    brute_diff_restricted_cycle,
    brute_hamilton_path,
    brute_infeasible_pairs,
    brute_two_factor_exists,
)
from .paths import (
    EXCEPTION_PAIRS,
    base_path_1_to_m,
    hamilton_cycle,
    hamilton_cycle_through_edge,
    hamilton_path,
    infeasible_pairs,
    path_1_to_m,
)
from .primes import (
    is_prime,
    prime_arithmetic_progression,
    prime_flags,
    prime_pair_decompositions,
)
from .transforms import complement, reverse, shift

__version__ = "0.1.0"

__all__ = [
    "PrimeDiffError",
    "Infeasible",
    "NonEdge",
    "NotFound",
    "OrderCapExceeded",
    "ConstructionError",
    "is_prime",
    "prime_flags",
    "prime_pair_decompositions",
    "prime_arithmetic_progression",
    "adjacent",
    "Interval",
    "PathWitness",
    "CycleWitness",
    "TwoFactorWitness",
    "Verdict",
    "verify_path",
    "verify_cycle",
    "verify_two_factor",
    "verify_edge_disjoint",
    "cycle_edges",
    "canonical_cycle",
    "witness_to_json",
    "witness_from_json",
    "complement",
    "shift",
    "reverse",
    "base_path_1_to_m",
    "path_1_to_m",
    "hamilton_path",
    "hamilton_cycle",
    "hamilton_cycle_through_edge",
    "infeasible_pairs",
    "EXCEPTION_PAIRS",
    "two_factor",
    "enumerate_specs",
    "path_diff23",
    "cycle_diff23",
    "cycle_two_primes",
    "DisjointFamily",
    "edge_disjoint_cycles",
    "n_for_t_disjoint",
    "brute_hamilton_path",
    "brute_infeasible_pairs",
    "brute_two_factor_exists",
    "brute_diff_restricted_cycle",
    "__version__",
]
