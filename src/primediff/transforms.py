"""Interval symmetries acting on vertex sequences and on witnesses.

Complement mirrors an interval onto itself (v -> lo + hi - v), shift moves it
(v -> v + k), both preserving all differences; reversal flips traversal
order.  The witness moves apply them so interval bookkeeping travels with the
vertices; the constructions write v as k + s*v instead and never call here.
"""

from __future__ import annotations

from .graphs import CycleWitness, Interval, PathWitness

_SEQ_TYPES = (PathWitness, CycleWitness)


def complement_seq(seq: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    """Mirror a sequence on [lo, hi] across the interval midpoint."""
    t = lo + hi
    return tuple(t - v for v in seq)


def shift_seq(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Translate every vertex by k."""
    return tuple(v + k for v in seq)


def reverse_seq(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Traverse the sequence backwards."""
    return seq[::-1]


def complement(w):
    """Mirror the witness across its interval midpoint; validity is preserved."""
    if not isinstance(w, _SEQ_TYPES):
        raise TypeError(f"cannot complement {type(w).__name__}")
    return type(w)(w.interval, complement_seq(w.sequence, w.interval.lo, w.interval.hi))


def shift(w, k: int):
    """Translate the witness by k; the new interval must stay at or above 1."""
    if not isinstance(w, _SEQ_TYPES):
        raise TypeError(f"cannot shift {type(w).__name__}")
    if w.interval.lo + k < 1:
        raise ValueError(f"shift by {k} drops below vertex 1")
    interval = Interval(w.interval.lo + k, w.interval.hi + k)
    return type(w)(interval, shift_seq(w.sequence, k))


def reverse(w):
    """Traverse the witness backwards; endpoints swap, edges are unchanged."""
    if not isinstance(w, _SEQ_TYPES):
        raise TypeError(f"cannot reverse {type(w).__name__}")
    return type(w)(w.interval, reverse_seq(w.sequence))
