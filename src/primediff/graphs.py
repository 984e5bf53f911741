"""Prime difference graphs over integer intervals: witnesses and verifiers.

The graph on an interval [lo, hi] joins two vertices exactly when they differ
by a prime.  A witness is an explicit vertex sequence whose claim (Hamilton
path, Hamilton cycle, or disjoint cycle cover) is checkable in linear time;
every constructor in this package re-checks its output with these verifiers
before returning it.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from itertools import chain, islice
from operator import sub

from . import primes
from .errors import ConstructionError

# Violation reason codes carried by failing verdicts.
NOT_PERMUTATION = "NotPermutation"
NON_PRIME_DIFFERENCE = "NonPrimeDifference"
WRONG_ENDPOINTS = "WrongEndpoints"
MISSING_REQUIRED_EDGE = "MissingRequiredEdge"
DISALLOWED_DIFFERENCE = "DisallowedDifference"
NOT_PARTITION = "NotPartition"
SHORT_CYCLE = "ShortCycle"
WRONG_LENGTH_MULTISET = "WrongLengthMultiset"
SHARED_EDGE = "SharedEdge"


def adjacent(u: int, v: int) -> bool:
    """Vertices are adjacent exactly when they differ by a prime."""
    return primes.is_prime(abs(u - v))


class _Record:
    """An immutable record of the fields its `__match_args__` names, each set
    once by `__init__`.  Records are equal when they are of one class with
    equal fields, hash by their fields, print as `Interval(lo=1, hi=9)`, and
    pickle and deep-copy through their `__dict__`."""

    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Interval(_Record):
    """Consecutive integers [lo, hi], the vertex set of one graph."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if not 1 <= lo <= hi:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        d = self.__dict__
        d["lo"], d["hi"] = lo, hi

    @property
    def order(self) -> int:
        return self.hi - self.lo + 1

    def vertices(self) -> range:
        return range(self.lo, self.hi + 1)


class PathWitness(_Record):
    """A claimed Hamilton path of its interval."""

    __match_args__ = ("interval", "sequence")

    def __init__(self, interval: Interval, sequence: tuple[int, ...]):
        d = self.__dict__
        d["interval"], d["sequence"] = interval, sequence

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.sequence[0], self.sequence[-1])


class CycleWitness(_Record):
    """A claimed Hamilton cycle; the wrap-around edge is implicit."""

    __match_args__ = ("interval", "sequence")
    __init__ = PathWitness.__init__


class TwoFactorWitness(_Record):
    """Vertex-disjoint cycles claimed to cover the interval exactly.

    Individual cycles run over arbitrary subsets, not sub-intervals.
    """

    __match_args__ = ("interval", "cycles")

    def __init__(self, interval: Interval, cycles: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["interval"], d["cycles"] = interval, cycles

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self.cycles)))


class DisjointFamily(_Record):
    """Pairwise edge-disjoint Hamilton cycles of one interval.

    `sources` label how each member was built, for output; no check reads them."""

    __match_args__ = ("interval", "cycles", "sources")

    def __init__(self, interval: Interval, cycles: tuple[CycleWitness, ...], sources: tuple[str, ...]):
        d = self.__dict__
        d["interval"], d["cycles"], d["sources"] = interval, cycles, sources

    def __len__(self) -> int:
        return len(self.cycles)


class Verdict(_Record):
    """Outcome of a verification; falsy iff a violation was found."""

    __match_args__ = ("ok", "reason", "detail")

    def __init__(self, ok: bool, reason: str | None = None, detail: dict | None = None):
        d = self.__dict__
        d["ok"], d["reason"], d["detail"] = ok, reason, detail

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(True)


def _fail(reason: str, **detail) -> Verdict:
    return Verdict(False, reason, detail or None)


def _scan(seqs, lo: int, hi: int, closed: bool):
    """(covers, steps): whether `seqs` hold each vertex of [lo, hi] exactly
    once, and if so the set of their signed steps, wrapping when closed.

    One loop per sequence marks each vertex's byte and adds its step from
    the previous vertex, starting at s[-1] when closed; an open sequence
    starts at s[0] and drops the 0 this adds.  The mark is indexed by v
    itself when lo <= n, and by v - lo only past that, since v - lo makes a
    new int for every vertex above 256.  Once the count is right, an index
    past either end raises IndexError, and a negative one marks the byte
    len(mark) above it, which only the sum shows: the count, every byte of
    [lo, hi] marked and the sum of [lo, hi] hold together exactly when the
    vertices are [lo, hi], each once.
    """
    n = hi - lo + 1
    steps: set[int] = set()
    if sum(map(len, seqs)) != n or not all(seqs):
        return False, steps
    off = lo if lo > n else 0
    mark = bytearray(hi + 1 - off)
    add = steps.add
    try:
        for s in seqs:
            p = (s[-1] if closed else s[0]) - off
            for v in map((-off).__add__, s) if off else s:
                mark[v] = 1
                add(v - p)
                p = v
    except IndexError:
        return False, steps
    if not closed:
        steps.discard(0)
    return mark.find(0, lo - off) < 0 and sum(map(sum, seqs)) == n * (lo + hi) // 2, steps


def _steps(seq, closed: bool):
    """Signed differences of consecutive vertices, wrapping around when closed."""
    steps = map(sub, islice(seq, 1, None), seq)
    return chain(steps, (seq[0] - seq[-1],)) if closed else steps


def _walk(seqs, steps, span: int, closed: bool, allowed, per_cycle: bool = False, diffs=None) -> Verdict:
    """The one check of a witness's `steps`, as `_scan` found them.

    Every difference is at most `span` = hi - lo.  Each distinct difference
    is looked up once, in the shared prime bitmap and in `allowed`; only
    when one misses are the steps walked in order, to name the first miss
    and the rule it broke.  `diffs`, when given, receives the set of
    distinct |differences|.
    """
    flags = primes.prime_flags(span)
    dist = set(map(abs, steps))
    if diffs is not None:
        diffs.append(dist)
    misses = {d for d in dist if not flags[d] or (allowed is not None and d not in allowed)}
    if misses:
        for idx, seq in enumerate(seqs):
            for i, d in enumerate(map(abs, _steps(seq, closed))):
                if d in misses:
                    reason = DISALLOWED_DIFFERENCE if flags[d] else NON_PRIME_DIFFERENCE
                    return _fail(reason, **({"cycle": idx} if per_cycle else {}), position=i, difference=d)
    return OK


def _verify_seq(w, closed: bool, expected_endpoints=None, required_edge=None, allowed_diffs=None, diffs=None) -> Verdict:
    """Path (closed: cycle) checks, in order of precedence; `diffs` as in `_walk`."""
    seq = w.sequence
    lo, hi = w.interval.lo, w.interval.hi
    covers, steps = _scan((seq,), lo, hi, closed)
    if not covers:
        return _fail(NOT_PERMUTATION)
    if closed and len(seq) < 3:
        return _fail(SHORT_CYCLE, length=len(seq))
    v = _walk((seq,), steps, hi - lo, closed, allowed_diffs, diffs=diffs)
    if not v:
        return v
    if expected_endpoints is not None and (seq[0], seq[-1]) != tuple(expected_endpoints):
        return _fail(WRONG_ENDPOINTS, expected=tuple(expected_endpoints), actual=(seq[0], seq[-1]))
    if required_edge is not None:
        # One scan, for the edge's lower end: seq is a permutation of the
        # interval, so the range tells whether the end is in it.
        e = tuple(sorted(frozenset(required_edge)))
        i = seq.index(e[0]) if len(e) == 2 and e[0] in w.interval.vertices() else None
        if i is None or e[1] not in (seq[i - 1], seq[(i + 1) % len(seq)]):
            return _fail(MISSING_REQUIRED_EDGE, edge=e)
    return OK


def verify_path(w: PathWitness, expected_endpoints: tuple[int, int] | None = None) -> Verdict:
    """Permutation of the interval, prime consecutive differences, endpoints."""
    return _verify_seq(w, False, expected_endpoints=expected_endpoints)


def verify_cycle(
    w: CycleWitness,
    required_edge: tuple[int, int] | frozenset | None = None,
    allowed_diffs: frozenset | set | None = None,
) -> Verdict:
    """As verify_path, closed cyclically; optional edge and difference constraints."""
    return _verify_seq(w, True, required_edge=required_edge, allowed_diffs=allowed_diffs)


def verify_two_factor(w: TwoFactorWitness, expected_lengths=None) -> Verdict:
    """Disjoint prime-difference cycles of length >= 3 covering the interval."""
    lo, hi = w.interval.lo, w.interval.hi
    covers, steps = _scan(w.cycles, lo, hi, True) if min(map(len, w.cycles), default=0) >= 3 else (False, None)
    if not covers:
        # Scan again to name the first violation, cycle by cycle.
        seen: set[int] = set()
        for idx, cyc in enumerate(w.cycles):
            if len(cyc) < 3:
                return _fail(SHORT_CYCLE, cycle=idx, length=len(cyc))
            s = set(cyc)
            if len(s) != len(cyc) or not s.isdisjoint(seen):
                return _fail(NOT_PARTITION, cycle=idx)
            seen |= s
        return _fail(NOT_PARTITION)
    v = _walk(w.cycles, steps, hi - lo, True, None, per_cycle=True)
    if not v:
        return v
    if expected_lengths is not None:
        want = tuple(sorted(expected_lengths))
        got = w.lengths
        if got != want:
            return _fail(WRONG_LENGTH_MULTISET, expected=want, actual=got)
    return OK


def verify_edge_disjoint(cycles) -> Verdict:
    """No edge used by two of the given cycles (all over one interval).

    A shared edge has one difference, which both of its cycles use, so only
    edges whose |difference| two cycles share can collide.  Those edges
    alone are keyed, edge {u <= v} as the one int u*w + v, w above the
    spread of all vertices; cycles with pairwise disjoint differences are
    accepted with no key at all."""
    cycles = list(cycles)
    if len({(c.interval.lo, c.interval.hi) for c in cycles}) > 1:
        raise ValueError("cycles must share one interval")
    return _shared_edges(cycles, [set(map(abs, set(_steps(c.sequence, True)))) for c in cycles if c.sequence])


def _shared_edges(cycles, diffs) -> Verdict:
    """The first edge two of `cycles` share, if any; `diffs` holds each
    nonempty cycle's set of |differences|."""
    uses = Counter(chain.from_iterable(diffs))
    shared = {d for d, count in uses.items() if count > 1}
    if not shared:
        return OK
    seqs = [c.sequence for c in cycles if c.sequence]
    w = max(map(max, seqs)) - min(map(min, seqs)) + 1
    # Edge key -> its one owner: keys enter only from members that share none.
    seen: dict[int, int] = {}
    for idx, c in enumerate(cycles):
        seq = c.sequence
        pairs = zip(seq, seq[1:] + seq[:1])
        keys = {u * w + v if u <= v else v * w + u for u, v in pairs if abs(u - v) in shared}
        if seen.keys().isdisjoint(keys):
            seen.update(dict.fromkeys(keys, idx))
            continue
        # Name the first shared edge in cycle_edges order, and its owner.
        for e in cycle_edges(seq):
            edge = tuple(sorted(e))
            owner = seen.get(edge[0] * w + edge[-1])
            if owner is not None:
                return _fail(SHARED_EDGE, edge=edge, cycles=(owner, idx))
    return OK


def _verify_family(w: DisjointFamily) -> Verdict:
    """Every member a Hamilton cycle of the family's interval, then no shared
    edge, counted from the differences the member checks found."""
    diffs: list[set[int]] = []
    for idx, c in enumerate(w.cycles):
        v = _verify_seq(c, True, diffs=diffs) if c.interval == w.interval else _fail(NOT_PERMUTATION)
        if not v:
            return _fail(v.reason, cycle=idx, **(v.detail or {}))
    return _shared_edges(w.cycles, diffs)


def verify(w, **claims) -> Verdict:
    """Check any witness with the verifier of its type.

    `claims` are that verifier's keyword arguments; a path also accepts
    `allowed_diffs`, as a cycle does.  A family takes none.
    """
    if isinstance(w, (PathWitness, CycleWitness)):
        return _verify_seq(w, isinstance(w, CycleWitness), **claims)
    if isinstance(w, TwoFactorWitness):
        return verify_two_factor(w, **claims)
    if isinstance(w, DisjointFamily):
        return _verify_family(w, **claims)
    raise TypeError(f"not a witness: {type(w).__name__}")


def certify(w, **claims):
    """Return w once `verify(w, **claims)` accepts it; raise ConstructionError
    otherwise.  Every constructor returns through here."""
    v = verify(w, **claims)
    if not v:
        raise ConstructionError(f"{type(w).__name__} self-check failed: {v.reason} {v.detail}")
    return w


def cycle_edges(seq: tuple[int, ...]) -> set[frozenset]:
    """Unordered vertex pairs consecutive in the cyclic sequence."""
    n = len(seq)
    return {frozenset((seq[i], seq[(i + 1) % n])) for i in range(n)}


def canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate the minimum vertex first, then orient so the second vertex is
    the smaller of its two neighbors; cycle equality is equality of this form."""
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if len(rot) >= 3 and rot[-1] < rot[1]:
        rot = rot[:1] + tuple(reversed(rot[1:]))
    return rot


# The JSON kind of each witness class, in both directions.
_KINDS = {PathWitness: "path", CycleWitness: "cycle", TwoFactorWitness: "two_factor"}


def witness_to_json(w) -> dict:
    """Stable JSON form: {"kind", "lo", "hi", "sequences"}; a family is
    {"sources", "witnesses"}, with no "sources" when it has no labels."""
    if isinstance(w, DisjointFamily):
        obj = {"witnesses": [witness_to_json(c) for c in w.cycles]}
        return {"sources": list(w.sources), **obj} if w.sources else obj
    for cls, kind in _KINDS.items():
        if isinstance(w, cls):
            seqs = w.cycles if cls is TwoFactorWitness else (w.sequence,)
            return {"kind": kind, "lo": w.interval.lo, "hi": w.interval.hi, "sequences": [list(s) for s in seqs]}
    raise TypeError(f"not a witness: {type(w).__name__}")


def witness_from_json(obj) -> PathWitness | CycleWitness | TwoFactorWitness | DisjointFamily:
    """Parse the schema above; malformed objects raise ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("witness must be a JSON object")
    if "witnesses" in obj:
        ws, sources = obj["witnesses"], obj.get("sources", [])
        if not (isinstance(ws, list) and ws):
            raise ValueError("witnesses must be a nonempty list")
        if not (isinstance(sources, list) and set(map(type, sources)) <= {str}):
            raise ValueError("sources must be a list of strings")
        # Checked before parsing, so a nested family is refused, not recursed into.
        if not all(isinstance(m, dict) and m.get("kind") == "cycle" and "witnesses" not in m for m in ws):
            raise ValueError("family members must be cycle witnesses")
        cycles = tuple(map(witness_from_json, ws))
        return DisjointFamily(cycles[0].interval, cycles, tuple(sources))
    try:
        kind = obj["kind"]
        lo = obj["lo"]
        hi = obj["hi"]
        seqs = obj["sequences"]
    except KeyError as e:
        raise ValueError(f"witness missing field {e.args[0]!r}") from None
    # type() rather than isinstance(): JSON true and false are ints to isinstance.
    if not (type(lo) is int and type(hi) is int):
        raise ValueError("lo and hi must be integers")
    if not isinstance(seqs, list) or not all(
        isinstance(s, list) and set(map(type, s)) <= {int} for s in seqs
    ):
        raise ValueError("sequences must be a list of integer lists")
    interval = Interval(lo, hi)
    # By equality: JSON may send a list or an object here, which cannot be hashed.
    cls = next((c for c, k in _KINDS.items() if k == kind), None)
    if cls is None:
        # reprlib: a rejected kind may be megabytes of JSON; name it, do not echo it.
        raise ValueError(f"unknown witness kind {reprlib.repr(kind)}")
    if cls is TwoFactorWitness:
        return TwoFactorWitness(interval, tuple(tuple(s) for s in seqs))
    if len(seqs) != 1:
        raise ValueError(f"a {kind} witness has exactly one sequence")
    return cls(interval, tuple(seqs[0]))
