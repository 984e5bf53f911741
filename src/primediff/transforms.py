"""Interval symmetries acting on path and cycle witnesses.

Complement mirrors an interval onto itself (v -> lo + hi - v), shift moves it
(v -> v + k), both preserving all differences; reversal flips traversal
order.  Each move carries the interval bookkeeping with the vertices; the
constructions write v as k + s*v instead and never call here.
"""

from __future__ import annotations

from .graphs import CycleWitness, Interval, PathWitness


def _check(w, move: str) -> None:
    if not isinstance(w, (PathWitness, CycleWitness)):
        raise TypeError(f"cannot {move} {type(w).__name__}")


def complement(w):
    """Mirror the witness across its interval midpoint; validity is preserved."""
    _check(w, "complement")
    t = w.interval.lo + w.interval.hi
    return type(w)(w.interval, tuple(t - v for v in w.sequence))


def shift(w, k: int):
    """Translate the witness by k; the new interval must stay at or above 1."""
    _check(w, "shift")
    if w.interval.lo + k < 1:
        raise ValueError(f"shift by {k} drops below vertex 1")
    interval = Interval(w.interval.lo + k, w.interval.hi + k)
    return type(w)(interval, tuple(v + k for v in w.sequence))


def reverse(w):
    """Traverse the witness backwards; endpoints swap, edges are unchanged."""
    _check(w, "reverse")
    return type(w)(w.interval, w.sequence[::-1])
