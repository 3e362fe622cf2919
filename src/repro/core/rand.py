"""Stateless counter-based pseudo-randomness for the simulated algorithms.

The distributed sorting algorithms need a *tiny* amount of randomness on
every recursion level of every task — typically one to a handful of sample
indices per rank.  Constructing a ``numpy.random.Generator`` (seed-sequence
hashing, PCG64 state init) for each of those draws costs far more than the
draw itself and sits squarely on the simulation's critical path.

This module provides the replacement: a SplitMix64-style *counter-based*
hash.  A draw is a pure function of ``(key, counter)`` — no generator object,
no hidden state, no warm-up — so it is

* **stateless**: the i-th sample of a task is the same no matter how many
  other tasks drew before it,
* **restart-deterministic**: the value depends only on explicit integers
  (never on ``PYTHONHASHSEED``-style process state), so re-running a
  simulation in a fresh process reproduces it bit-for-bit,
* **vectorisable**: a batch of counters is hashed with a few ``uint64``
  array operations, with a scalar fast path for the 1-4 sample draws that
  dominate the sorting workloads.

The finaliser is SplitMix64 (Steele, Lea & Flood: "Fast splittable
pseudorandom number generators", OOPSLA 2014) — the same mixer
``java.util.SplittableRandom`` and numpy's ``SeedSequence`` build on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "derive_key", "sample_key", "sample_indices",
           "sample_keys", "sample_indices_rows"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15          # 2^64 / phi, the SplitMix64 increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Draws at or below this size take the scalar path (no array construction).
_SCALAR_DRAWS = 4

# uint64 constants for the vectorised path (avoids per-call casts).
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)


def mix64(z: int) -> int:
    """SplitMix64 finaliser: avalanche a 64-bit integer (pure Python ints)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_key(*words: int) -> int:
    """Fold an arbitrary tuple of integers into one well-mixed 64-bit key.

    Deterministic across processes and platforms (unlike ``hash(tuple)``,
    which is fair game for interpreter-level salting on some types).  Words
    may be negative or arbitrarily large; only their low 64 bits plus the
    fold order matter.
    """
    key = 0
    for word in words:
        key = mix64(key + _GOLDEN + (word & _MASK64))
    return key


def sample_key(seed: int, lo: int, hi: int, level: int, rank: int) -> int:
    """Key of one sampling stream of the sorters (multilinear + finaliser).

    Specialised ``derive_key`` for the ``(seed, lo, hi, level, rank)`` tuples
    drawn on every level of every task: one multilinear combination with odd
    64-bit constants followed by a single SplitMix64 avalanche — eight
    multiplies instead of the generic fold's fifteen.  This runs on the
    critical path of every simulated recursion level.
    """
    z = (seed * 0x8CB92BA72F3D8DD7
         + lo * 0xD6E8FEB86659FD93
         + hi * 0xA3AAC6CB3B6FD391
         + level * 0xC2B2AE3D27D4EB4F
         + rank * 0x165667B19E3779F9
         + _GOLDEN)
    return mix64(z)


def sample_indices(key: int, count: int, size: int) -> np.ndarray:
    """``count`` pseudo-random indices in ``[0, size)`` for stream ``key``.

    Drawn with replacement, as an ``int64`` array.  Index ``i`` of the result
    is ``mix64(key + (i + 1) * GOLDEN) % size`` — a pure function of
    ``(key, i)``, so any sub-range of a stream can be regenerated without
    drawing the rest.  The scalar and vectorised paths are bit-identical.
    """
    if count <= 0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if count <= _SCALAR_DRAWS:
        out = np.empty(count, dtype=np.int64)
        z = key
        for i in range(count):
            z = (z + _GOLDEN) & _MASK64
            # mix64, inlined: one to four draws dominate the sorters.
            m = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            m = ((m ^ (m >> 27)) * _MIX2) & _MASK64
            out[i] = (m ^ (m >> 31)) % size
        return out
    counters = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(key & _MASK64) + counters * _U_GOLDEN
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    z ^= z >> _U31
    return (z % np.uint64(size)).astype(np.int64)


def sample_keys(seed: int, lo, hi, level: int, ranks) -> np.ndarray:
    """Vector of :func:`sample_key` over a batch of ranks.

    Returns a ``uint64`` array with ``out[i] == sample_key(seed, lo[i],
    hi[i], level, ranks[i])`` bit-for-bit: the multilinear combination wraps
    mod 2^64 whether computed on Python ints (scalar) or ``uint64`` lanes
    (vector), and the SplitMix64 avalanche is elementwise.  ``ranks`` may be
    any non-negative integer sequence; ``lo`` and ``hi`` are each one int
    shared by every rank (the ranks of one task) or an array with one entry
    per rank (the ranks of every task of a recursion round, stacked).
    """
    z = np.asarray(ranks, dtype=np.int64).astype(np.uint64) * np.uint64(
        0x165667B19E3779F9)
    shared = (seed * 0x8CB92BA72F3D8DD7 + level * 0xC2B2AE3D27D4EB4F
              + _GOLDEN)
    for word, multiplier in ((lo, 0xD6E8FEB86659FD93),
                             (hi, 0xA3AAC6CB3B6FD391)):
        if isinstance(word, np.ndarray):
            z += word.astype(np.uint64) * np.uint64(multiplier)
        else:
            shared += int(word) * multiplier
    z += np.uint64(shared & _MASK64)
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)


def sample_indices_rows(keys, counts, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ragged grid of :func:`sample_indices` draws, one row per stream.

    ``keys``, ``counts`` and ``sizes`` are equal-length sequences; row ``i``
    holds ``sample_indices(keys[i], counts[i], sizes[i])``.  Returns
    ``(indices, offsets)`` with the rows concatenated into one ``int64``
    array and ``offsets`` of length ``len(keys) + 1`` delimiting them —
    row ``i`` is ``indices[offsets[i]:offsets[i + 1]]``.  Rows with a
    non-positive count or size are empty, exactly like the scalar helper.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    effective = np.where((counts > 0) & (sizes > 0), counts, 0)
    offsets = np.zeros(effective.size + 1, dtype=np.int64)
    np.cumsum(effective, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    row_of = np.repeat(np.arange(effective.size, dtype=np.int64), effective)
    counters = (np.arange(1, total + 1, dtype=np.int64)
                - np.repeat(offsets[:-1], effective)).astype(np.uint64)
    z = keys[row_of] + counters * _U_GOLDEN
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    z ^= z >> _U31
    return (z % sizes[row_of].astype(np.uint64)).astype(np.int64), offsets
