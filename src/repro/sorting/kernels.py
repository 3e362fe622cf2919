"""Fused local compute kernels for the distributed sorting algorithms.

The simulated algorithms spend their host-side time in many *small* NumPy
operations: a partition of a few dozen elements, a handful of sample draws, a
k-way bucket split of a short buffer.  At that size the per-call dispatch
overhead of a NumPy ufunc dwarfs the actual work, so the hot operations are
fused here into single kernels with two dispatch tiers:

* a **scalar tier** for sub-threshold ``float64`` arrays — plain Python loops
  over ``tolist()`` values, which beat ufunc dispatch up to a few dozen
  elements and produce bit-identical arrays;
* a **vector tier** that performs the same computation with the minimal
  number of NumPy calls (boolean masks reused in place, no intermediate
  index materialisation).

Both tiers are property-tested against the reference implementations in
:mod:`repro.sorting.partition`.  Thresholds were chosen by
``benchmarks/bench_kernels.py``; they only trade host time, never simulated
behaviour.

``cached_log2`` exists because ``numpy``'s scalar ``np.log2`` and the C
library's ``math.log2`` differ in the last ULP for some integers (NumPy ships
its own SIMD log2).  Simulated times derived from ``np.log2`` are bit-exact
across PRs, so cost formulas must keep NumPy's values — the cache removes the
scalar-ufunc dispatch cost without changing a single bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PARTITION_SCALAR_CUTOFF",
    "fused_partition",
    "fused_partition_rows",
    "kway_bucket_split",
    "select_splitters",
    "cached_log2",
]

#: Largest ``float64`` input the fused partition handles on the scalar tier
#: (crossover measured by ``benchmarks/bench_kernels.py``: the Python loop
#: wins below ~24 elements, ufunc dispatch amortises above).
PARTITION_SCALAR_CUTOFF = 24

_FLOAT64 = np.dtype(np.float64)


# ---------------------------------------------------------------------------
# Fused partition-and-split (JQuick's per-level inner loop).
# ---------------------------------------------------------------------------

def _scalar_partition(values: np.ndarray, cut: int, pivot_value: float):
    """Scalar tier: one pass over ``tolist()`` floats, two append lists."""
    small: list = []
    large: list = []
    push_small = small.append
    push_large = large.append
    for index, value in enumerate(values.tolist()):
        if value < pivot_value or (index < cut and value == pivot_value):
            push_small(value)
        else:
            push_large(value)
    return (np.array(small, dtype=_FLOAT64),
            np.array(large, dtype=_FLOAT64),
            len(small))


def fused_partition(values: np.ndarray, slot_base: int, pivot_value: float,
                    pivot_slot: int, *, tie_breaking: bool = True):
    """Partition ``values`` into ``(small, large, n_small)`` in one pass.

    Element ``i`` currently occupies global slot ``slot_base + i`` (the JQuick
    buffers are always laid out in slot order), so the tie-breaking rule of
    :func:`repro.sorting.partition.partition_mask` — *(value, slot)* pairs
    compared lexicographically against *(pivot_value, pivot_slot)* — reduces
    to an index comparison: among pivot-equal elements exactly those with
    ``i < pivot_slot - slot_base`` are small.  That removes the per-level
    ``np.arange`` slot materialisation and the 64-bit compare entirely.

    Equivalent to ``split_by_mask(values, partition_mask(values, slots,
    pivot))`` with ``slots = slot_base + arange(len(values))``; order within
    each part is preserved.
    """
    size = values.size
    if tie_breaking:
        cut = pivot_slot - slot_base
        if cut < 0:
            cut = 0
        elif cut > size:
            cut = size
    else:
        cut = 0
    if size <= PARTITION_SCALAR_CUTOFF and values.dtype == _FLOAT64:
        return _scalar_partition(values, cut, float(pivot_value))
    mask = values < pivot_value
    if cut > 0:
        head = mask[:cut]
        np.logical_or(head, values[:cut] == pivot_value, out=head)
    small = values[mask]
    # Reuse the mask buffer for its negation — saves one allocation per call.
    large = values[np.logical_not(mask, out=mask)]
    return small, large, small.size


def fused_partition_rows(values: np.ndarray, offsets: np.ndarray,
                         cuts: np.ndarray, pivot_value, segments=None):
    """Row-batched :func:`fused_partition` over a concatenated buffer.

    ``values`` holds rows back to back (row ``i`` is
    ``values[offsets[i]:offsets[i + 1]]``) and ``cuts[i]`` is row ``i``'s
    already-clamped tie cut (``0`` everywhere when tie breaking is off).
    The rows form *segments* of consecutive rows — the groups of one
    recursion round, each partitioned around its own pivot: segment ``g`` is
    the rows ``segments[g]:segments[g + 1]`` and ``pivot_value[g]`` its
    pivot.  Without ``segments`` all rows are one segment and
    ``pivot_value`` is a scalar.

    Returns ``(reordered, small_counts)``: ``reordered`` is one fresh buffer
    in which every segment keeps its element range, laid out as *all its
    rows' smalls in row order, then all its rows' larges in row order* —
    exactly the concatenation of the per-row ``fused_partition`` outputs —
    and ``small_counts[i]`` is row ``i``'s small count.  Element order
    within every part is preserved, so when a segment's rows are a group's
    slot-ordered buffers its range is the task's slot-region content after
    the level's exchange.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    cuts = np.asarray(cuts, dtype=np.int64)
    size = values.size
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    # Element range of every segment, and per-element views of the
    # per-segment quantities.
    if segments is None:
        bounds = np.array([0, size], dtype=np.int64)
    else:
        bounds = offsets[np.asarray(segments, dtype=np.int64)]
    spans = np.diff(bounds)
    base = np.repeat(bounds[:-1], spans)
    pivot = np.repeat(np.asarray(pivot_value), spans)
    position = np.arange(size, dtype=np.int64)
    mask = values < pivot
    if np.any(cuts != 0):
        tie = values == pivot
        tie &= position - np.repeat(starts, lengths) < np.repeat(cuts, lengths)
        np.logical_or(mask, tie, out=mask)
    csum = np.empty(size + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(mask, out=csum[1:])
    small_counts = csum[offsets[1:]] - csum[starts]
    # A small lands at its rank among its segment's smalls; a large behind
    # all of the segment's smalls, at its rank among the segment's larges
    # (elements before it in the segment - smalls before it).
    smalls_before = csum[:-1] - np.repeat(csum[bounds[:-1]], spans)
    segment_smalls = np.repeat(csum[bounds[1:]] - csum[bounds[:-1]], spans)
    dest = np.where(mask, base + smalls_before,
                    segment_smalls + position - smalls_before)
    reordered = np.empty_like(values)
    reordered[dest] = values
    return reordered, small_counts


# ---------------------------------------------------------------------------
# k-way bucket split (sample sort's per-level inner loop).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _bucket_edges(k: int) -> np.ndarray:
    edges = np.arange(k + 1, dtype=np.int64)
    edges.flags.writeable = False
    return edges


def kway_bucket_split(values: np.ndarray, splitters: np.ndarray, k: int):
    """Stable k-way split of ``values`` by ``splitters``.

    Returns ``(by_bucket, boundaries)``: ``by_bucket`` is a fresh buffer
    holding the elements grouped by bucket (stable within each bucket) and
    ``boundaries`` has ``k + 1`` entries such that bucket ``g`` is
    ``by_bucket[boundaries[g]:boundaries[g + 1]]``.  Bucket membership is
    ``searchsorted(splitters, value, side="right")`` — identical to the
    unfused searchsorted → argsort → fancy-index → searchsorted sequence it
    replaces, with the bucket-edge probe array cached per ``k``.
    """
    if splitters.size == 0 or values.size == 0:
        boundaries = np.zeros(k + 1, dtype=np.int64)
        boundaries[1:] = values.size
        return values.copy(), boundaries
    bucket = np.searchsorted(splitters, values, side="right")
    order = np.argsort(bucket, kind="stable")
    by_bucket = values[order]
    boundaries = np.searchsorted(bucket[order], _bucket_edges(k))
    return by_bucket, boundaries


def select_splitters(chunks, k: int, dtype) -> np.ndarray:
    """``k - 1`` equidistant splitters from gathered sample chunks.

    Single ``np.asarray`` pass per chunk; the concatenation is skipped when
    only one chunk is non-empty.  Matches the former inline selection of
    ``samplesort``/``multilevel`` element for element.
    """
    parts = [c for c in (np.asarray(chunk) for chunk in chunks) if c.size]
    if not parts:
        return np.empty(0, dtype=dtype)
    pool = np.sort(parts[0] if len(parts) == 1 else np.concatenate(parts))
    positions = (np.arange(1, k) * pool.size) // k
    return pool[np.minimum(positions, pool.size - 1)]


# ---------------------------------------------------------------------------
# Bit-exact scalar log2.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def cached_log2(n: int) -> float:
    """``float(np.log2(n))`` with the scalar-ufunc dispatch amortised away.

    Deliberately *not* ``math.log2``: the two differ in the last ULP for some
    integers, and simulated times derived from these values are checked
    bit-for-bit across PRs.
    """
    return float(np.log2(n))
