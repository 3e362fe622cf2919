"""Greedy message assignment for the data-exchange step of Janus Quicksort.

After partitioning, the small elements of the task occupy the global slots
``[lo, lo + S)`` and the large elements the slots ``[lo + S, hi)``; within
each side the elements are ordered by source rank (that is the greedy
assignment of Section VII: source processes fill target processes from left
to right, each target up to its residual capacity).  Because every process
contributes at most one contiguous range of small slots and one contiguous
range of large slots, it sends at most two messages to the left group and two
to the right group; a *receiver*, however, may receive Θ(min(p, n/p))
messages in the worst case — the behaviour the paper quotes for the greedy
assignment and the reason it mentions the deterministic assignment of [20] as
an alternative.  :func:`incoming_message_counts` exposes the receive counts so
tests and the ablation benchmark can demonstrate the bound.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .intervals import layout_constants, owners_of

__all__ = ["OutgoingPiece", "chop_slot_range", "greedy_assignment",
           "greedy_assignment_rows", "incoming_message_counts"]


class OutgoingPiece(NamedTuple):
    """One message of the data exchange.

    ``dest`` is the destination rank (global sorting rank), ``slot_start`` the
    first global slot the piece fills, ``local_start`` the offset into the
    sender's small (or large) partition buffer, and ``length`` the number of
    elements.  (A named tuple: pieces are built on every level of every task,
    and tuple construction is several times cheaper than a frozen dataclass.)
    """

    dest: int
    slot_start: int
    local_start: int
    length: int

    @property
    def slot_end(self) -> int:
        return self.slot_start + self.length


def chop_slot_range(slot_lo: int, slot_hi: int, n: int, p: int,
                    local_offset: int = 0) -> list[OutgoingPiece]:
    """Cut the global slot range [slot_lo, slot_hi) at process boundaries.

    Returns one :class:`OutgoingPiece` per destination process, in slot order.
    The owner / boundary arithmetic of
    :func:`repro.sorting.intervals.layout_constants` is inlined: this runs
    twice per task level per rank.
    """
    if slot_hi <= slot_lo:
        return []
    q, r, boundary = layout_constants(n, p)
    big = q + 1
    pieces: list[OutgoingPiece] = []
    cursor = slot_lo
    local = local_offset
    while cursor < slot_hi:
        if cursor < boundary:
            dest = cursor // big
            dest_end = (dest + 1) * big
        else:
            dest = r + (cursor - boundary) // q
            dest_end = boundary + (dest - r + 1) * q
        piece_end = slot_hi if slot_hi < dest_end else dest_end
        length = piece_end - cursor
        pieces.append(OutgoingPiece(dest, cursor, local, length))
        cursor = piece_end
        local += length
    return pieces


def greedy_assignment(*, lo: int, total_small: int, small_prefix: int,
                      large_prefix: int, small_count: int, large_count: int,
                      n: int, p: int) -> tuple[list[OutgoingPiece], list[OutgoingPiece]]:
    """Outgoing pieces of one process for one task.

    Parameters
    ----------
    lo:
        First global slot of the task.
    total_small:
        Total number of small elements in the task (the paper's s_{p-1}).
    small_prefix / large_prefix:
        Exclusive prefix sums of this process's small / large counts over the
        task's processes (the paper's s_i and l_i).
    small_count / large_count:
        This process's local number of small / large elements.

    Returns ``(small_pieces, large_pieces)``; the ``local_start`` offsets index
    into the local small and large partition buffers respectively.
    """
    small_pieces = chop_slot_range(
        lo + small_prefix, lo + small_prefix + small_count, n, p)
    large_pieces = chop_slot_range(
        lo + total_small + large_prefix,
        lo + total_small + large_prefix + large_count, n, p)
    return small_pieces, large_pieces


def _chop_rows(starts: np.ndarray, ends: np.ndarray, n: int, p: int):
    """Vectorised :func:`chop_slot_range` over a batch of slot ranges.

    Returns ``(dest, slot_start, length, offsets)``: range ``i``'s pieces are
    the slice ``[offsets[i], offsets[i + 1])``, in slot order — identical to
    the scalar chop minus the ``local_start`` bookkeeping.
    """
    q, r, _boundary = layout_constants(n, p)
    num = starts.size
    first = owners_of(starts, n, p)
    last = owners_of(ends - 1, n, p)
    counts = np.where(ends > starts, last - first + 1, 0)
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[num])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, offsets
    dest = (np.repeat(first, counts)
            + np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], counts))
    interval_start = dest * q + np.minimum(dest, r)
    interval_end = interval_start + q + (dest < r)
    slot_start = np.maximum(np.repeat(starts, counts), interval_start)
    length = np.minimum(np.repeat(ends, counts), interval_end) - slot_start
    return dest, slot_start, length, offsets


def greedy_assignment_rows(*, lo, total_small,
                           small_prefixes: np.ndarray,
                           small_counts: np.ndarray,
                           large_prefixes: np.ndarray,
                           large_counts: np.ndarray,
                           n: int, p: int):
    """Vectorised :func:`greedy_assignment` over a batch of ranks.

    Array parameters hold one entry per row (a rank of a task's group);
    ``lo`` and ``total_small`` are each one int shared by every row (the
    ranks of one task) or an array with one entry per row (the ranks of
    every task of a recursion round, stacked — prefixes then count from the
    row's own task).  Returns ``(dest, slot_start, length, row_offsets)``:
    row ``g``'s pieces are ``[row_offsets[g], row_offsets[g + 1])``, ordered
    exactly like the scalar helper's ``small_pieces + large_pieces``
    flattening (each side in slot order).  ``local_start`` is omitted — the
    batched tier reshuffles whole groups in one pass and never indexes a
    per-rank partition buffer.
    """
    small_prefixes = np.asarray(small_prefixes, dtype=np.int64)
    small_counts = np.asarray(small_counts, dtype=np.int64)
    large_prefixes = np.asarray(large_prefixes, dtype=np.int64)
    large_counts = np.asarray(large_counts, dtype=np.int64)
    num_rows = small_counts.size
    small_start = lo + small_prefixes
    large_start = lo + total_small + large_prefixes
    s_dest, s_slot, s_len, s_offs = _chop_rows(
        small_start, small_start + small_counts, n, p)
    l_dest, l_slot, l_len, l_offs = _chop_rows(
        large_start, large_start + large_counts, n, p)
    s_counts = np.diff(s_offs)
    l_counts = np.diff(l_offs)
    row_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(s_counts + l_counts, out=row_offsets[1:])
    total = int(row_offsets[num_rows])
    dest = np.empty(total, dtype=np.int64)
    slot_start = np.empty(total, dtype=np.int64)
    length = np.empty(total, dtype=np.int64)
    # Interleave per row: the row's small pieces first, then its larges.
    s_pos = (np.repeat(row_offsets[:-1], s_counts)
             + np.arange(s_dest.size, dtype=np.int64)
             - np.repeat(s_offs[:-1], s_counts))
    l_pos = (np.repeat(row_offsets[:-1] + s_counts, l_counts)
             + np.arange(l_dest.size, dtype=np.int64)
             - np.repeat(l_offs[:-1], l_counts))
    dest[s_pos] = s_dest
    dest[l_pos] = l_dest
    slot_start[s_pos] = s_slot
    slot_start[l_pos] = l_slot
    length[s_pos] = s_len
    length[l_pos] = l_len
    return dest, slot_start, length, row_offsets


def incoming_message_counts(all_pieces: Sequence[Sequence[OutgoingPiece]],
                            p: int, *, exclude_self: bool = True) -> list[int]:
    """Number of messages each rank receives, given every rank's outgoing pieces.

    ``all_pieces[i]`` is the flat list of pieces rank ``i`` sends.  Used by
    tests and the assignment ablation to exhibit the Θ(min(p, n/p)) worst-case
    receive count of the greedy assignment.
    """
    counts = [0] * p
    for src, pieces in enumerate(all_pieces):
        for piece in pieces:
            if exclude_self and piece.dest == src:
                continue
            counts[piece.dest] += 1
    return counts
