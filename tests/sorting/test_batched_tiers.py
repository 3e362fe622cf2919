"""Every row-batched kernel against the scalar helper it stacks.

The batched sorting tier computes a whole recursion round in one call per
kernel: the rows are the ranks of every group of the round back to back,
and each group (a *segment* of consecutive rows) brings its own task
interval, pivot and totals.  The differential contract (batched run ==
scalar run) only holds if every kernel equals, row by row, the scalar
helper the per-rank frontier calls — so the segmented tests below compare
each kernel against a loop over that helper on random ragged rounds, and
one call over G segments against the concatenation of G one-segment calls.

The ``*_at_boundary`` tests pin small grids (3 to 5 rows, 23 to 25
elements — the sizes of the groups deep rounds are made of, and the sizes
around which ``sample_keys``, ``sample_indices_rows``,
``fused_partition_rows`` and ``greedy_assignment_rows`` used to switch to a
per-row loop).
"""

import numpy as np
import pytest

from repro.core.rand import (
    sample_indices,
    sample_indices_rows,
    sample_key,
    sample_keys,
)
from repro.sorting.assignment import greedy_assignment, greedy_assignment_rows
from repro.sorting.kernels import (
    PARTITION_SCALAR_CUTOFF,
    fused_partition,
    fused_partition_rows,
)

BOUNDARY_ROWS = (3, 4, 5)


@pytest.mark.parametrize("num_rows", BOUNDARY_ROWS)
def test_sample_keys_matches_scalar_at_boundary(num_rows):
    ranks = np.arange(3, 3 + num_rows)
    keys = sample_keys(7, 2, 90, 4, ranks)
    assert keys.dtype == np.uint64
    for i, rank in enumerate(ranks):
        assert int(keys[i]) == sample_key(7, 2, 90, 4, int(rank))


@pytest.mark.parametrize("num_rows", BOUNDARY_ROWS)
def test_sample_indices_rows_matches_scalar_at_boundary(num_rows):
    rng = np.random.default_rng(num_rows)
    keys = sample_keys(11, 0, 64, 1, np.arange(num_rows))
    counts = rng.integers(0, 6, size=num_rows)
    sizes = rng.integers(0, 40, size=num_rows)
    indices, offsets = sample_indices_rows(keys, counts, sizes)
    assert indices.dtype == np.int64
    assert offsets.size == num_rows + 1
    for i in range(num_rows):
        expected = sample_indices(int(keys[i]), int(counts[i]), int(sizes[i]))
        np.testing.assert_array_equal(indices[offsets[i]:offsets[i + 1]],
                                      expected)


@pytest.mark.parametrize("total",
                         (PARTITION_SCALAR_CUTOFF - 1,
                          PARTITION_SCALAR_CUTOFF,
                          PARTITION_SCALAR_CUTOFF + 1))
@pytest.mark.parametrize("tie_breaking", (False, True))
def test_fused_partition_rows_matches_scalar_at_boundary(total, tie_breaking):
    rng = np.random.default_rng(total)
    # Duplicate-heavy rows so the tie cut actually decides membership.
    values = rng.integers(0, 4, size=total).astype(np.float64)
    offsets = np.array([0, total // 3, total // 2, total], dtype=np.int64)
    pivot_value = 1.0
    pivot_slot = total // 2
    row_lo = offsets[:-1].copy()  # rows laid out back to back in slot order
    if tie_breaking:
        cuts = np.clip(pivot_slot - row_lo, 0, np.diff(offsets))
    else:
        cuts = np.zeros(offsets.size - 1, dtype=np.int64)
    reordered, small_counts = fused_partition_rows(values, offsets, cuts,
                                                   pivot_value)
    smalls, larges = [], []
    for row in range(offsets.size - 1):
        part = values[offsets[row]:offsets[row + 1]]
        small, large, n_small = fused_partition(
            part, int(row_lo[row]), pivot_value, pivot_slot,
            tie_breaking=tie_breaking)
        assert small_counts[row] == n_small
        smalls.append(small)
        larges.append(large)
    np.testing.assert_array_equal(reordered, np.concatenate(smalls + larges))


@pytest.mark.parametrize("num_rows", BOUNDARY_ROWS)
def test_greedy_assignment_rows_matches_scalar_at_boundary(num_rows):
    rng = np.random.default_rng(num_rows)
    n = p = 64
    lo = 8
    small_counts = rng.integers(0, 3, size=num_rows)
    large_counts = 1 - np.minimum(small_counts, 1) + rng.integers(
        0, 2, size=num_rows)
    small_prefixes = np.zeros(num_rows, dtype=np.int64)
    np.cumsum(small_counts[:-1], out=small_prefixes[1:])
    large_prefixes = np.zeros(num_rows, dtype=np.int64)
    np.cumsum(large_counts[:-1], out=large_prefixes[1:])
    total_small = int(small_counts.sum())
    dest, slot_start, length, row_offsets = greedy_assignment_rows(
        lo=lo, total_small=total_small, small_prefixes=small_prefixes,
        small_counts=small_counts, large_prefixes=large_prefixes,
        large_counts=large_counts, n=n, p=p)
    for row in range(num_rows):
        small_pieces, large_pieces = greedy_assignment(
            lo=lo, total_small=total_small,
            small_prefix=int(small_prefixes[row]),
            large_prefix=int(large_prefixes[row]),
            small_count=int(small_counts[row]),
            large_count=int(large_counts[row]), n=n, p=p)
        pieces = small_pieces + large_pieces
        begin, end = int(row_offsets[row]), int(row_offsets[row + 1])
        assert end - begin == len(pieces)
        for offset, piece in enumerate(pieces):
            assert dest[begin + offset] == piece.dest
            assert slot_start[begin + offset] == piece.slot_start
            assert length[begin + offset] == piece.length


# ---------------------------------------------------------------------------
# Segmented rounds: G groups, each with its own task interval and pivot.
# ---------------------------------------------------------------------------

def _offsets(counts):
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class _RaggedRound:
    """A random round: segments of consecutive rows, rows of 0-4 elements.

    Segment 0 has one row; every segment owns at least one element and at
    least one row of the round is empty whenever a segment has a spare row.
    Segment ``g``'s task interval ``[lo[g], hi[g])`` is its rows' elements
    in slot order; intervals of different segments are disjoint with gaps.
    """

    def __init__(self, seed):
        rng = self.rng = np.random.default_rng(seed)
        num_segments = self.num_segments = int(rng.integers(1, 7))
        rows_per_segment = rng.integers(1, 6, size=num_segments)
        rows_per_segment[0] = 1
        self.segments = _offsets(rows_per_segment)
        self.group_of = np.repeat(np.arange(num_segments), rows_per_segment)
        row_sizes = rng.integers(0, 5, size=self.group_of.size)
        row_sizes[self.segments[:-1]] = rng.integers(1, 5, size=num_segments)
        spare = np.setdiff1d(np.arange(row_sizes.size), self.segments[:-1])
        row_sizes[spare[::2]] = 0
        self.row_sizes = row_sizes
        self.offsets = _offsets(row_sizes)
        self.bounds = self.offsets[self.segments]      # elements per segment
        gaps = 5 + 7 * np.arange(num_segments)
        self.lo = self.bounds[:-1] + gaps
        self.hi = self.bounds[1:] + gaps
        self.row_lo = self.offsets[:-1] + gaps[self.group_of]
        self.ranks = 3 + np.arange(row_sizes.size) + 2 * self.group_of

    def rows_of(self, g):
        return range(int(self.segments[g]), int(self.segments[g + 1]))


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_grid_segmented_matches_scalar(seed):
    rnd = _RaggedRound(seed)
    lo_rows, hi_rows = rnd.lo[rnd.group_of], rnd.hi[rnd.group_of]
    # Large words: the multilinear key must wrap mod 2^64 on both paths.
    lo_rows = lo_rows + (1 << 40) * (seed % 3)
    keys = sample_keys(seed, lo_rows, hi_rows, seed + 2, rnd.ranks)
    assert keys.dtype == np.uint64
    for i in range(rnd.ranks.size):
        assert int(keys[i]) == sample_key(seed, int(lo_rows[i]),
                                          int(hi_rows[i]), seed + 2,
                                          int(rnd.ranks[i]))
    counts = rnd.rng.integers(0, 7, size=rnd.ranks.size)
    indices, offsets = sample_indices_rows(keys, counts, rnd.row_sizes)
    assert indices.dtype == np.int64
    for i in range(rnd.ranks.size):
        np.testing.assert_array_equal(
            indices[offsets[i]:offsets[i + 1]],
            sample_indices(int(keys[i]), int(counts[i]),
                           int(rnd.row_sizes[i])))
    # One call over G segments == G one-segment calls, concatenated.
    parts_keys, parts_indices = [], []
    for g in range(rnd.num_segments):
        rows = slice(int(rnd.segments[g]), int(rnd.segments[g + 1]))
        part = sample_keys(seed, int(lo_rows[rows][0]), int(hi_rows[rows][0]),
                           seed + 2, rnd.ranks[rows])
        parts_keys.append(part)
        parts_indices.append(sample_indices_rows(part, counts[rows],
                                                 rnd.row_sizes[rows])[0])
    np.testing.assert_array_equal(np.concatenate(parts_keys), keys)
    np.testing.assert_array_equal(np.concatenate(parts_indices), indices)


@pytest.mark.parametrize("dtype", (np.int64, np.float64))
@pytest.mark.parametrize("tie_breaking", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_partition_rows_segmented_matches_scalar(seed, tie_breaking,
                                                       dtype):
    rnd = _RaggedRound(seed)
    values = rnd.rng.integers(0, 4, size=int(rnd.offsets[-1])).astype(dtype)
    # Pivot kinds in turn: tied keys on both sides of the tie cut, every
    # element small, every element large.
    pivot_values = np.empty(rnd.num_segments, dtype=np.float64)
    pivot_slots = np.empty(rnd.num_segments, dtype=np.int64)
    for g in range(rnd.num_segments):
        begin, end = int(rnd.bounds[g]), int(rnd.bounds[g + 1])
        kind = (seed + g) % 3
        if kind == 0:
            values[begin] = values[end - 1] = 2
            pivot_values[g] = 2.0
        else:
            pivot_values[g] = 9.0 if kind == 1 else -1.0
        pivot_slots[g] = rnd.lo[g] + (end - begin) // 2
    if tie_breaking:
        cuts = np.clip(pivot_slots[rnd.group_of] - rnd.row_lo, 0,
                       rnd.row_sizes)
    else:
        cuts = np.zeros(rnd.row_sizes.size, dtype=np.int64)
    reordered, small_counts = fused_partition_rows(
        values, rnd.offsets, cuts, pivot_values, rnd.segments)
    assert reordered.dtype == values.dtype

    expected, one_segment = [], []
    for g in range(rnd.num_segments):
        smalls, larges = [], []
        for row in rnd.rows_of(g):
            part = values[rnd.offsets[row]:rnd.offsets[row + 1]]
            small, large, n_small = fused_partition(
                part, int(rnd.row_lo[row]), float(pivot_values[g]),
                int(pivot_slots[g]), tie_breaking=tie_breaking)
            assert small_counts[row] == n_small
            smalls.append(small)
            larges.append(large)
        expected.append(np.concatenate(smalls + larges))
        kind = (seed + g) % 3
        if kind:
            total = sum(part.size for part in smalls)
            assert total == (expected[-1].size if kind == 1 else 0)
        elif tie_breaking and expected[-1].size > 1:
            # The pivot's key sits on both sides of the cut.
            assert smalls and 2 in np.concatenate(smalls)
            assert 2 in np.concatenate(larges)
        rows = slice(int(rnd.segments[g]), int(rnd.segments[g + 1]) + 1)
        begin, end = int(rnd.bounds[g]), int(rnd.bounds[g + 1])
        one_segment.append(fused_partition_rows(
            values[begin:end], rnd.offsets[rows] - begin,
            cuts[rows.start:rows.stop - 1], float(pivot_values[g])))
    np.testing.assert_array_equal(reordered, np.concatenate(expected))
    np.testing.assert_array_equal(
        reordered, np.concatenate([part for part, _ in one_segment]))
    np.testing.assert_array_equal(
        small_counts, np.concatenate([counts for _, counts in one_segment]))


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_assignment_rows_segmented_matches_scalar(seed):
    rnd = _RaggedRound(seed)
    rng = rnd.rng
    p = int(rng.integers(3, 9))
    n = int(rnd.hi[-1]) + int(rng.integers(0, 2 * p))   # ragged layout
    small_counts = rng.integers(0, rnd.row_sizes + 1)
    for g in range(rnd.num_segments):
        rows = slice(int(rnd.segments[g]), int(rnd.segments[g + 1]))
        if (seed + g) % 3 == 1:
            small_counts[rows] = rnd.row_sizes[rows]    # all small
        elif (seed + g) % 3 == 2:
            small_counts[rows] = 0                      # all large
    large_counts = rnd.row_sizes - small_counts
    small_sums, large_sums = _offsets(small_counts), _offsets(large_counts)
    first_row = rnd.segments[:-1][rnd.group_of]
    small_prefixes = small_sums[:-1] - small_sums[first_row]
    large_prefixes = large_sums[:-1] - large_sums[first_row]
    total_small = np.diff(small_sums[rnd.segments])
    dest, slot_start, length, row_offsets = greedy_assignment_rows(
        lo=rnd.lo[rnd.group_of], total_small=total_small[rnd.group_of],
        small_prefixes=small_prefixes, small_counts=small_counts,
        large_prefixes=large_prefixes, large_counts=large_counts, n=n, p=p)
    for row in range(rnd.row_sizes.size):
        g = int(rnd.group_of[row])
        small_pieces, large_pieces = greedy_assignment(
            lo=int(rnd.lo[g]), total_small=int(total_small[g]),
            small_prefix=int(small_prefixes[row]),
            large_prefix=int(large_prefixes[row]),
            small_count=int(small_counts[row]),
            large_count=int(large_counts[row]), n=n, p=p)
        pieces = small_pieces + large_pieces
        begin, end = int(row_offsets[row]), int(row_offsets[row + 1])
        assert [(piece.dest, piece.slot_start, piece.length)
                for piece in pieces] == list(zip(
                    dest[begin:end].tolist(), slot_start[begin:end].tolist(),
                    length[begin:end].tolist()))
    # One call over G segments == G one-segment calls, concatenated.
    parts = []
    for g in range(rnd.num_segments):
        rows = slice(int(rnd.segments[g]), int(rnd.segments[g + 1]))
        parts.append(greedy_assignment_rows(
            lo=int(rnd.lo[g]), total_small=int(total_small[g]),
            small_prefixes=small_prefixes[rows],
            small_counts=small_counts[rows],
            large_prefixes=large_prefixes[rows],
            large_counts=large_counts[rows], n=n, p=p))
    for column, whole in enumerate((dest, slot_start, length)):
        np.testing.assert_array_equal(
            np.concatenate([part[column] for part in parts]), whole)
    np.testing.assert_array_equal(
        np.concatenate([np.diff(part[3]) for part in parts]),
        np.diff(row_offsets))
