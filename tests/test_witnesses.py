"""Verifier behavior: reason codes, canonical cycle form, JSON round-trips, records."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primediff.errors import ConstructionError
from primediff.graphs import (
    DISALLOWED_DIFFERENCE,
    MISSING_REQUIRED_EDGE,
    NON_PRIME_DIFFERENCE,
    NOT_PARTITION,
    NOT_PERMUTATION,
    SHARED_EDGE,
    SHORT_CYCLE,
    WRONG_ENDPOINTS,
    WRONG_LENGTH_MULTISET,
    CycleWitness,
    DisjointFamily,
    Interval,
    PathWitness,
    TwoFactorWitness,
    Verdict,
    adjacent,
    canonical_cycle,
    certify,
    cycle_edges,
    verify,
    verify_cycle,
    verify_edge_disjoint,
    verify_path,
    verify_two_factor,
    witness_from_json,
    witness_to_json,
)

P5 = PathWitness(Interval(1, 5), (1, 4, 2, 5, 3))
C9 = CycleWitness(Interval(1, 9), (1, 3, 5, 7, 9, 2, 4, 6, 8))


def test_adjacent():
    assert adjacent(3, 5) and adjacent(10, 3)
    assert not adjacent(2, 3)  # difference 1
    assert not adjacent(4, 4)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(0, 4)
    assert Interval(2, 6).order == 5
    assert list(Interval(2, 4).vertices()) == [2, 3, 4]


def test_path_ok_and_endpoints():
    assert verify_path(P5)
    assert verify_path(P5, (1, 3))
    v = verify_path(P5, (3, 1))
    assert not v and v.reason == WRONG_ENDPOINTS


def test_path_not_permutation():
    for seq in [(1, 4, 2, 5), (1, 4, 2, 5, 5), (1, 4, 2, 5, 6)]:
        v = verify_path(PathWitness(Interval(1, 5), seq))
        assert v.reason == NOT_PERMUTATION


def test_path_non_prime_difference():
    v = verify_path(PathWitness(Interval(1, 5), (1, 2, 4, 5, 3)))
    assert v.reason == NON_PRIME_DIFFERENCE
    assert v.detail == {"position": 0, "difference": 1}


def test_cycle_checks_wraparound():
    assert verify_cycle(C9)
    # valid as a path, but the closing step 3 -> 2 has difference 1
    v = verify_cycle(CycleWitness(Interval(1, 4), (2, 4, 1, 3)))
    assert v.reason == NON_PRIME_DIFFERENCE
    assert v.detail["position"] == 3


def test_cycle_short():
    v = verify_cycle(CycleWitness(Interval(1, 2), (1, 2)))
    assert v.reason == SHORT_CYCLE


def test_cycle_required_edge():
    assert verify_cycle(C9, required_edge=(9, 2))
    v = verify_cycle(C9, required_edge=(1, 4))
    assert v.reason == MISSING_REQUIRED_EDGE


def test_cycle_allowed_diffs():
    assert verify_cycle(C9, allowed_diffs={2, 7})
    v = verify_cycle(C9, allowed_diffs={2})
    assert v.reason == DISALLOWED_DIFFERENCE


def test_two_factor_ok():
    w = TwoFactorWitness(Interval(1, 7), ((1, 3, 6), (2, 5, 7, 4)))
    assert verify_two_factor(w)
    assert verify_two_factor(w, expected_lengths=(3, 4))
    v = verify_two_factor(w, expected_lengths=(7,))
    assert v.reason == WRONG_LENGTH_MULTISET


def test_two_factor_partition_violations():
    bad_overlap = TwoFactorWitness(Interval(1, 7), ((1, 3, 6), (2, 5, 7, 3)))
    assert verify_two_factor(bad_overlap).reason == NOT_PARTITION
    bad_cover = TwoFactorWitness(Interval(1, 8), ((1, 3, 6), (2, 5, 7, 4)))
    assert verify_two_factor(bad_cover).reason == NOT_PARTITION
    short = TwoFactorWitness(Interval(1, 7), ((1, 3), (2, 5, 7, 4, 6)))
    assert verify_two_factor(short).reason == SHORT_CYCLE


def test_two_factor_non_prime_detail_names_cycle():
    w = TwoFactorWitness(Interval(1, 7), ((1, 3, 6), (2, 4, 5, 7)))
    v = verify_two_factor(w)
    assert v.reason == NON_PRIME_DIFFERENCE
    assert v.detail["cycle"] == 1


def test_edge_disjoint():
    # only edge sharing is checked here, not cycle validity
    a = CycleWitness(Interval(1, 5), (1, 3, 5, 2, 4))
    b = CycleWitness(Interval(1, 5), (1, 2, 3, 4, 5))
    assert verify_edge_disjoint([a, b])
    v = verify_edge_disjoint([a, a])
    assert v.reason == SHARED_EDGE
    assert v.detail["cycles"] == (0, 1)
    reversed_a = CycleWitness(Interval(1, 5), a.sequence[::-1])
    assert verify_edge_disjoint([a, reversed_a]).reason == SHARED_EDGE
    other = CycleWitness(Interval(1, 6), (1, 3, 6, 4, 2, 5))
    with pytest.raises(ValueError):
        verify_edge_disjoint([a, other])
    # the interval check comes before any shared edge
    with pytest.raises(ValueError):
        verify_edge_disjoint([a, a, other])



@pytest.mark.parametrize(
    "member",
    [CycleWitness(Interval(1, 6), (1, 2, 3)), CycleWitness(Interval(1, 5), (1, 3, 5, 2, 4))],
    ids=["not-hamilton", "other-interval"],
)
def test_family_certify_checks_every_member(member):
    fam = DisjointFamily(Interval(1, 6), (member,), ("x",))
    v = verify(fam)
    assert (v.ok, v.reason, v.detail) == (False, NOT_PERMUTATION, {"cycle": 0})
    with pytest.raises(ConstructionError):
        certify(fam)


def test_family_member_checks_come_before_shared_edges():
    good = CycleWitness(Interval(1, 6), (1, 3, 5, 2, 4, 6))
    bad = CycleWitness(Interval(1, 6), (1, 3, 5, 4, 2, 6))
    v = verify(DisjointFamily(Interval(1, 6), (good, good, bad), ("a", "b", "c")))
    assert (v.reason, v.detail) == (NON_PRIME_DIFFERENCE, {"cycle": 2, "position": 2, "difference": 1})
    v = verify(DisjointFamily(Interval(1, 6), (good, good), ("a", "b")))
    assert (v.reason, v.detail["cycles"]) == (SHARED_EDGE, (0, 1))


SHARED_EDGE_CASES = [
    ("no cycles", [], (True, None, None)),
    ("one cycle", [(1, 3, 5, 2, 4)], (True, None, None)),
    ("collision between cycles 2 and 0", [(1, 3, 5), (2, 4, 6), (7, 1, 3, 5)],
     (False, SHARED_EDGE, {"edge": (1, 3), "cycles": (0, 2)})),
    # the edge named follows the set order of cycle_edges, not the sequence
    ("cycle 2 meets cycles 0 and 1", [(1, 3, 5), (2, 4, 6), (1, 3, 2, 4)],
     (False, SHARED_EDGE, {"edge": (2, 4), "cycles": (1, 2)})),
    ("repeated cycle", [(1, 3, 5, 2, 4), (1, 3, 5, 2, 4)],
     (False, SHARED_EDGE, {"edge": (1, 4), "cycles": (0, 1)})),
    ("reversed copy", [(1, 3, 5, 2, 4), (4, 2, 5, 3, 1)],
     (False, SHARED_EDGE, {"edge": (1, 4), "cycles": (0, 1)})),
    ("rotated copy after a disjoint cycle", [(1, 3, 5, 2, 4), (1, 2, 3, 4, 5), (5, 2, 4, 1, 3)],
     (False, SHARED_EDGE, {"edge": (1, 4), "cycles": (0, 2)})),
    ("two-vertex cycles", [(1, 3), (3, 1)], (False, SHARED_EDGE, {"edge": (1, 3), "cycles": (0, 1)})),
    ("vertices outside the interval", [(1, 10, 3), (2, 2, 4), (0, -1, 5)], (True, None, None)),
]


@pytest.mark.parametrize(
    "seqs, expected", [pytest.param(seqs, exp, id=name) for name, seqs, exp in SHARED_EDGE_CASES]
)
def test_shared_edge_detail_is_pinned(seqs, expected):
    # Which edge and which pair of cycles a SharedEdge verdict names, on
    # the interval [1, 7]; the cycles need not be valid Hamilton cycles.
    v = verify_edge_disjoint([CycleWitness(Interval(1, 7), s) for s in seqs])
    assert (v.ok, v.reason, v.detail) == expected


def test_cycle_edges():
    assert cycle_edges((1, 3, 5)) == {
        frozenset({1, 3}),
        frozenset({3, 5}),
        frozenset({1, 5}),
    }


@given(st.permutations(list(range(1, 10))), st.integers(min_value=0, max_value=8), st.booleans())
def test_canonical_cycle_invariant_under_rotation_and_reflection(seq, rot, flip):
    seq = tuple(seq)
    variant = seq[rot:] + seq[:rot]
    if flip:
        variant = variant[::-1]
    assert canonical_cycle(variant) == canonical_cycle(seq)
    canon = canonical_cycle(seq)
    assert canon[0] == 1 and canon[-1] > canon[1]


def test_json_round_trip():
    for w in (
        P5,
        C9,
        TwoFactorWitness(Interval(1, 7), ((1, 3, 6), (2, 5, 7, 4))),
        DisjointFamily(Interval(1, 9), (C9, C9), ("pair:2,7", "again")),
        DisjointFamily(Interval(1, 9), (C9,), ()),
    ):
        obj = witness_to_json(w)
        assert witness_from_json(obj) == w
    # A family with no labels has no "sources" key.
    assert witness_to_json(DisjointFamily(Interval(1, 9), (C9,), ())) == {"witnesses": [witness_to_json(C9)]}
    assert witness_to_json(P5) == {
        "kind": "path",
        "lo": 1,
        "hi": 5,
        "sequences": [[1, 4, 2, 5, 3]],
    }


# One record of each class.
RECORDS = [
    Interval(1, 9),
    P5,
    C9,
    TwoFactorWitness(Interval(1, 7), ((1, 3, 6), (2, 5, 7, 4))),
    DisjointFamily(Interval(1, 9), (C9, C9), ("pair:2,7", "again")),
    Verdict(False, NON_PRIME_DIFFERENCE, {"position": 3, "difference": 1}),
]


def test_records_compare_by_class_and_fields():
    path, cycle = PathWitness(C9.interval, C9.sequence), C9
    assert path != cycle and cycle != path
    assert path == PathWitness(Interval(1, 9), tuple(C9.sequence))
    assert path.__eq__(cycle) is NotImplemented and path.__eq__((C9.interval, C9.sequence)) is NotImplemented
    assert Interval(1, 9) != Interval(1, 8) and Interval(1, 9) != (1, 9)
    assert hash(Interval(1, 9)) == hash(Interval(1, 9)) == hash((1, 9))
    assert hash(path) == hash(PathWitness(Interval(1, 9), C9.sequence))
    assert len({P5, PathWitness(Interval(1, 5), P5.sequence), C9}) == 2
    with pytest.raises(TypeError):
        hash(Verdict(False, NOT_PARTITION, {"cycle": 0}))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in type(record).__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1


def test_records_take_keywords_and_defaults():
    assert Interval(hi=9, lo=1) == Interval(1, 9)
    assert PathWitness(sequence=P5.sequence, interval=P5.interval) == P5
    assert DisjointFamily(Interval(1, 9), cycles=(C9,), sources=()) == DisjointFamily(Interval(1, 9), (C9,), ())
    with pytest.raises(ValueError, match=r"bad interval \[3, 2\]"):
        Interval(lo=3, hi=2)
    ok = Verdict(True)
    assert ok and (ok.ok, ok.reason, ok.detail) == (True, None, None)
    assert not Verdict(ok=False, reason=SHORT_CYCLE)


def test_records_print_in_dataclass_form():
    assert repr(Interval(1, 9)) == "Interval(lo=1, hi=9)"
    assert repr(P5) == "PathWitness(interval=Interval(lo=1, hi=5), sequence=(1, 4, 2, 5, 3))"
    family = DisjointFamily(Interval(1, 9), (), ())
    assert repr(family) == "DisjointFamily(interval=Interval(lo=1, hi=9), cycles=(), sources=())"
    assert repr(Verdict(True)) == "Verdict(ok=True, reason=None, detail=None)"
    assert repr(RECORDS[-1]) == "Verdict(ok=False, reason='NonPrimeDifference', detail={'position': 3, 'difference': 1})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_pickle_and_deepcopy(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    back = copy.deepcopy(record)
    assert type(back) is type(record) and back == record
    assert copy.copy(record) == record
    # A copy is as immutable as its original.
    with pytest.raises(AttributeError):
        setattr(back, type(back).__match_args__[0], None)


def test_json_rejects_malformed():
    # The CLI prints each message as detail.message, so the text is pinned.
    good = witness_to_json(P5)
    cycle = witness_to_json(C9)
    for broken, message in (
        ({}, "witness missing field 'kind'"),
        (42, "witness must be a JSON object"),
        ({**good, "kind": "loop"}, "unknown witness kind 'loop'"),
        ({**good, "kind": []}, "unknown witness kind []"),
        ({**good, "kind": {}}, "unknown witness kind {}"),
        ({**good, "kind": None}, "unknown witness kind None"),
        ({**good, "kind": 1}, "unknown witness kind 1"),
        ({**good, "lo": "1"}, "lo and hi must be integers"),
        ({**good, "lo": True}, "lo and hi must be integers"),
        ({**good, "sequences": [[1, 4, 2, 5, True]]}, "sequences must be a list of integer lists"),
        ({**good, "sequences": [[1, 2], [3]]}, "a path witness has exactly one sequence"),
        ({**cycle, "sequences": [[1, 3, 5], [7, 9, 2, 4, 6, 8]]}, "a cycle witness has exactly one sequence"),
        ({**good, "sequences": [["a"]]}, "sequences must be a list of integer lists"),
        ({k: v for k, v in good.items() if k != "hi"}, "witness missing field 'hi'"),
        ({"witnesses": []}, "witnesses must be a nonempty list"),
        ({"witnesses": cycle}, "witnesses must be a nonempty list"),
        ({"witnesses": [cycle], "sources": "pair:2,7"}, "sources must be a list of strings"),
        ({"witnesses": [cycle], "sources": [1]}, "sources must be a list of strings"),
        ({"witnesses": [cycle, good]}, "family members must be cycle witnesses"),
        ({"witnesses": [cycle, 42]}, "family members must be cycle witnesses"),
        ({"witnesses": [{"witnesses": [cycle]}]}, "family members must be cycle witnesses"),
        ({"witnesses": [{**cycle, "witnesses": [cycle]}]}, "family members must be cycle witnesses"),
        ({"witnesses": [{**cycle, "lo": "1"}]}, "lo and hi must be integers"),
    ):
        with pytest.raises(ValueError) as e:
            witness_from_json(broken)
        assert str(e.value) == message, broken


def _primes_to(n):
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            for q in range(p * p, n + 1, p):
                flags[q] = False
    return flags


@given(st.integers(min_value=2, max_value=11), st.data())
def test_verify_path_agrees_with_direct_check(n, data):
    seq = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    w = PathWitness(Interval(1, n), seq)
    flags = _primes_to(n)
    direct = all(flags[abs(b - a)] for a, b in zip(seq, seq[1:]))
    assert bool(verify_path(w)) == direct


# Pinned verdicts: the full (ok, reason, detail) of each call, covering every
# reason code and the order in which competing violations are reported.
def _p(lo, hi, seq):
    return PathWitness(Interval(lo, hi), tuple(seq))


def _c(lo, hi, seq):
    return CycleWitness(Interval(lo, hi), tuple(seq))


def _t(lo, hi, *cycles):
    return TwoFactorWitness(Interval(lo, hi), tuple(map(tuple, cycles)))


C9_SEQ = (1, 3, 5, 7, 9, 2, 4, 6, 8)

VERDICT_CORPUS = [
    ("path ok", lambda: verify_path(_p(1, 5, (1, 4, 2, 5, 3)), (1, 3)), (True, None, None)),
    ("path short seq", lambda: verify_path(_p(1, 5, (1, 4, 2, 5))), (False, NOT_PERMUTATION, None)),
    ("path repeat", lambda: verify_path(_p(1, 5, (1, 4, 2, 5, 5))), (False, NOT_PERMUTATION, None)),
    ("path out of interval", lambda: verify_path(_p(2, 6, (1, 4, 2, 5, 3))), (False, NOT_PERMUTATION, None)),
    ("path non-prime first", lambda: verify_path(_p(1, 5, (1, 2, 4, 5, 3))),
     (False, NON_PRIME_DIFFERENCE, {"position": 0, "difference": 1})),
    ("path non-prime last", lambda: verify_path(_p(1, 6, (2, 4, 1, 3, 5, 6))),
     (False, NON_PRIME_DIFFERENCE, {"position": 4, "difference": 1})),
    ("path non-prime before endpoints", lambda: verify_path(_p(1, 5, (1, 2, 4, 5, 3)), (2, 3)),
     (False, NON_PRIME_DIFFERENCE, {"position": 0, "difference": 1})),
    ("path endpoints", lambda: verify_path(_p(1, 5, (1, 4, 2, 5, 3)), (3, 1)),
     (False, WRONG_ENDPOINTS, {"expected": (3, 1), "actual": (1, 3)})),
    ("path offset interval", lambda: verify_path(_p(11, 15, (11, 14, 12, 15, 13)), (11, 13)), (True, None, None)),
    ("path order 1", lambda: verify_path(_p(4, 4, (4,)), (4, 4)), (True, None, None)),
    ("cycle ok", lambda: verify_cycle(_c(1, 9, C9_SEQ), (9, 2), {2, 7}), (True, None, None)),
    ("cycle not permutation", lambda: verify_cycle(_c(1, 5, (1, 3, 5, 2, 2))), (False, NOT_PERMUTATION, None)),
    ("cycle short", lambda: verify_cycle(_c(1, 2, (1, 2))), (False, SHORT_CYCLE, {"length": 2})),
    ("cycle wraparound", lambda: verify_cycle(_c(1, 4, (2, 4, 1, 3))),
     (False, NON_PRIME_DIFFERENCE, {"position": 3, "difference": 1})),
    ("cycle disallowed before non-prime", lambda: verify_cycle(_c(1, 6, (1, 3, 5, 6, 2, 4)), allowed_diffs={3}),
     (False, DISALLOWED_DIFFERENCE, {"position": 0, "difference": 2})),
    ("cycle non-prime and disallowed same step",
     lambda: verify_cycle(_c(1, 6, (1, 2, 4, 6, 3, 5)), allowed_diffs={2}),
     (False, NON_PRIME_DIFFERENCE, {"position": 0, "difference": 1})),
    ("cycle allowed non-prime", lambda: verify_cycle(_c(1, 4, (2, 4, 1, 3)), allowed_diffs={1, 2, 3}),
     (False, NON_PRIME_DIFFERENCE, {"position": 3, "difference": 1})),
    ("cycle allowed out of range", lambda: verify_cycle(_c(1, 5, (1, 4, 2, 5, 3)), allowed_diffs={3, 97}),
     (False, DISALLOWED_DIFFERENCE, {"position": 1, "difference": 2})),
    ("cycle empty allowed set", lambda: verify_cycle(_c(1, 5, (1, 4, 2, 5, 3)), allowed_diffs=frozenset()),
     (False, DISALLOWED_DIFFERENCE, {"position": 0, "difference": 3})),
    ("cycle non-prime before missing edge", lambda: verify_cycle(_c(1, 4, (2, 4, 1, 3)), required_edge=(1, 4)),
     (False, NON_PRIME_DIFFERENCE, {"position": 3, "difference": 1})),
    ("cycle missing edge", lambda: verify_cycle(_c(1, 9, C9_SEQ), required_edge=(1, 4)),
     (False, MISSING_REQUIRED_EDGE, {"edge": (1, 4)})),
    ("cycle missing edge frozenset", lambda: verify_cycle(_c(1, 9, C9_SEQ), required_edge=frozenset({8, 3})),
     (False, MISSING_REQUIRED_EDGE, {"edge": (3, 8)})),
    ("cycle edge wraparound", lambda: verify_cycle(_c(1, 9, C9_SEQ), required_edge=(1, 8)), (True, None, None)),
    ("cycle degenerate edge", lambda: verify_cycle(_c(1, 9, C9_SEQ), required_edge=(3, 3)),
     (False, MISSING_REQUIRED_EDGE, {"edge": (3,)})),
    ("cycle edge outside interval", lambda: verify_cycle(_c(1, 9, C9_SEQ), required_edge=(9, 11)),
     (False, MISSING_REQUIRED_EDGE, {"edge": (9, 11)})),
    ("two-factor ok", lambda: verify_two_factor(_t(1, 7, (1, 3, 6), (2, 5, 7, 4)), (4, 3)), (True, None, None)),
    ("two-factor short", lambda: verify_two_factor(_t(1, 7, (1, 3), (2, 5, 7, 4, 6))),
     (False, SHORT_CYCLE, {"cycle": 0, "length": 2})),
    ("two-factor overlap", lambda: verify_two_factor(_t(1, 7, (1, 3, 6), (2, 5, 7, 3))),
     (False, NOT_PARTITION, {"cycle": 1})),
    ("two-factor repeat in cycle", lambda: verify_two_factor(_t(1, 7, (1, 3, 1), (2, 5, 7, 4))),
     (False, NOT_PARTITION, {"cycle": 0})),
    ("two-factor cover", lambda: verify_two_factor(_t(1, 8, (1, 3, 6), (2, 5, 7, 4))), (False, NOT_PARTITION, None)),
    ("two-factor partition before non-prime", lambda: verify_two_factor(_t(1, 8, (1, 2, 6), (3, 5, 7, 4))),
     (False, NOT_PARTITION, None)),
    ("two-factor non-prime names cycle", lambda: verify_two_factor(_t(1, 7, (1, 3, 6), (2, 4, 5, 7))),
     (False, NON_PRIME_DIFFERENCE, {"cycle": 1, "position": 1, "difference": 1})),
    ("two-factor non-prime wraparound", lambda: verify_two_factor(_t(1, 8, (1, 3, 6), (2, 4, 7, 5, 8))),
     (False, NON_PRIME_DIFFERENCE, {"cycle": 1, "position": 4, "difference": 6})),
    ("two-factor non-prime before lengths", lambda: verify_two_factor(_t(1, 7, (1, 3, 6), (2, 4, 5, 7)), (7,)),
     (False, NON_PRIME_DIFFERENCE, {"cycle": 1, "position": 1, "difference": 1})),
    ("two-factor lengths", lambda: verify_two_factor(_t(1, 7, (1, 3, 6), (2, 5, 7, 4)), (7,)),
     (False, WRONG_LENGTH_MULTISET, {"expected": (7,), "actual": (3, 4)})),
    ("edge-disjoint ok", lambda: verify_edge_disjoint([_c(1, 5, (1, 3, 5, 2, 4)), _c(1, 5, (1, 2, 3, 4, 5))]),
     (True, None, None)),
    ("edge-disjoint shared", lambda: verify_edge_disjoint([_c(1, 5, (1, 3, 5, 2, 4)), _c(1, 5, (4, 2, 5, 3, 1))]),
     (False, SHARED_EDGE, {"edge": (1, 4), "cycles": (0, 1)})),
]


@pytest.mark.parametrize(
    "call, expected", [pytest.param(call, exp, id=name) for name, call, exp in VERDICT_CORPUS]
)
def test_verdict_corpus_is_pinned(call, expected):
    v = call()
    assert (v.ok, v.reason, v.detail) == expected
