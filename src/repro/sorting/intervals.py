"""Global-slot arithmetic for perfectly balanced distributed sorting.

Janus Quicksort keeps every process's load at ⌊n/p⌋ or ⌈n/p⌉ elements after
every level.  We express this with a fixed *global slot layout*: the n output
positions are distributed over the p processes in the balanced way below, and
a sorting (sub)task is simply a half-open interval ``[lo, hi)`` of global
slots.  All the bookkeeping the paper describes with "remaining loads" of the
first process of a group falls out of this interval arithmetic.

Layout: with ``q, r = divmod(n, p)``, process ``i`` owns ``q + 1`` slots if
``i < r`` and ``q`` slots otherwise; slots are assigned to processes in rank
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "capacity",
    "layout_constants",
    "slot_start",
    "slot_range",
    "owner_of",
    "owners_of",
    "procs_of_interval",
    "overlap",
    "span",
    "Interval",
]


def layout_constants(n: int, p: int) -> tuple[int, int, int]:
    """``(q, r, boundary)`` of the balanced layout — the single source of the
    inlined ownership arithmetic.

    Ranks ``< r`` own ``q + 1`` slots, the rest own ``q``; ``boundary =
    r * (q + 1)`` is the first slot of the small-capacity region.  The hot
    paths (:func:`repro.sorting.assignment.chop_slot_range`, the JQuick run
    loop) fetch these once and inline ``owner_of`` / ``slot_range`` as::

        owner(slot)  = slot // (q + 1)               if slot < boundary
                       r + (slot - boundary) // q    otherwise
        end(owner)   = (owner + 1) * (q + 1)         if owner < r
                       boundary + (owner - r + 1) * q otherwise

    Keep those inlinings in sync with :func:`owner_of` / :func:`slot_range`
    (which stay the validated reference implementations).
    """
    q, r = divmod(n, p)
    return q, r, r * (q + 1)


def capacity(rank: int, n: int, p: int) -> int:
    """Number of global slots owned by ``rank`` (⌊n/p⌋ or ⌈n/p⌉)."""
    _check(rank, n, p)
    q, r = divmod(n, p)
    return q + 1 if rank < r else q


def slot_start(rank: int, n: int, p: int) -> int:
    """First global slot owned by ``rank``."""
    _check(rank, n, p)
    q, r = divmod(n, p)
    return rank * q + min(rank, r)


def slot_range(rank: int, n: int, p: int) -> tuple[int, int]:
    """Half-open range ``[start, end)`` of global slots owned by ``rank``."""
    start = slot_start(rank, n, p)
    return start, start + capacity(rank, n, p)


def owner_of(slot: int, n: int, p: int) -> int:
    """Rank owning global slot ``slot``."""
    if not 0 <= slot < n:
        raise ValueError(f"slot {slot} out of range [0, {n})")
    q, r = divmod(n, p)
    boundary = r * (q + 1)
    if slot < boundary:
        return slot // (q + 1)
    # q == 0 cannot happen here: slots >= boundary exist only if q > 0.
    return r + (slot - boundary) // q


def owners_of(slots: np.ndarray, n: int, p: int) -> np.ndarray:
    """:func:`owner_of` over an integer array of slots, without the range
    check (an entry outside ``[0, n)`` yields a meaningless owner)."""
    q, r, boundary = layout_constants(n, p)
    # q == 0 => every slot is below the boundary.
    return np.where(slots < boundary, slots // (q + 1),
                    r + (slots - boundary) // max(q, 1))


def procs_of_interval(lo: int, hi: int, n: int, p: int) -> tuple[int, int]:
    """(first, last) ranks whose slots intersect the non-empty interval [lo, hi)."""
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi})")
    return owner_of(lo, n, p), owner_of(hi - 1, n, p)


def overlap(rank: int, lo: int, hi: int, n: int, p: int) -> int:
    """Number of ``rank``'s slots inside [lo, hi)."""
    start, end = slot_range(rank, n, p)
    return max(0, min(end, hi) - max(start, lo))


def span(lo: int, hi: int, n: int, p: int) -> int:
    """Number of processes an interval touches (0 for the empty interval)."""
    if hi <= lo:
        return 0
    first, last = procs_of_interval(lo, hi, n, p)
    return last - first + 1


@dataclass(frozen=True)
class Interval:
    """A sorting (sub)task: global slots [lo, hi) within an n-over-p layout."""

    lo: int
    hi: int
    n: int
    p: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= self.n:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}) for n={self.n}")

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo

    def procs(self) -> tuple[int, int]:
        return procs_of_interval(self.lo, self.hi, self.n, self.p)

    def span(self) -> int:
        return span(self.lo, self.hi, self.n, self.p)

    def overlap_of(self, rank: int) -> int:
        return overlap(rank, self.lo, self.hi, self.n, self.p)

    def local_slots(self, rank: int) -> tuple[int, int]:
        """Global slots of this interval owned by ``rank`` (may be empty)."""
        start, end = slot_range(rank, self.n, self.p)
        return max(start, self.lo), min(end, self.hi)

    def split_at(self, slot: int) -> tuple["Interval", "Interval"]:
        """Split into [lo, slot) and [slot, hi)."""
        if not self.lo <= slot <= self.hi:
            raise ValueError(f"split point {slot} outside [{self.lo}, {self.hi}]")
        return (Interval(self.lo, slot, self.n, self.p),
                Interval(slot, self.hi, self.n, self.p))


def _check(rank: int, n: int, p: int) -> None:
    if p <= 0:
        raise ValueError("p must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} out of range [0, {p})")
