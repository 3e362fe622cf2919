"""Context-ID management for the simulated MPI implementation.

Open MPI and MPICH track free context IDs with a per-process bit mask and
agree on a new communicator's context ID by an allreduce with ``MPI_BAND``
over the masks of the participating processes, then picking the lowest set
bit (Section III of the paper).  We implement exactly this mechanism: every
simulated MPI process owns a :class:`ContextIdPool`; communicator creation
allreduces the masks (paying the communication) and allocates the first
common free ID.

The Section VI proposal (``MPI_Icomm_create_group``) instead uses structured
context IDs ``<a, b, f, l, c>`` which need no agreement in the range case;
those are represented by :class:`TupleContextId`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ContextIdPool", "TupleContextId", "DEFAULT_CONTEXT_BITS"]

#: Number of context IDs each simulated process can track (bit-mask width).
DEFAULT_CONTEXT_BITS = 2048
#: Machine words occupied by the mask on the wire (64-bit words).
DEFAULT_MASK_WORDS = DEFAULT_CONTEXT_BITS // 64


class ContextIdPool:
    """Per-process pool of integer context IDs, backed by a bit mask.

    Bit ``i`` set means context ID ``i`` is *free* on this process.  The pool
    of every process starts identical; they diverge as processes join
    different communicators, which is why the agreement allreduce is needed.
    """

    __slots__ = ("bits", "_mask", "_array_cache")

    def __init__(self, bits: int = DEFAULT_CONTEXT_BITS,
                 reserved: tuple = ()):
        if bits <= 1:
            raise ValueError("need at least 2 context ids")
        self.bits = bits
        for context_id in reserved:
            self._check(context_id)
        # Python ints are arbitrary precision: a mask with all `bits` bits
        # set but the ``reserved`` ones.  Ints are immutable, so every pool
        # starting alike shares one mask object.
        self._mask = _initial_mask(bits, reserved)
        # (mask value, wire array) of the last mask_array() call — communicator
        # creations ask for the same mask repeatedly between allocations.
        self._array_cache: tuple[int, "np.ndarray"] | None = None

    # ------------------------------------------------------------------ state

    @property
    def mask(self) -> int:
        """Current free-ID mask as an arbitrary-precision integer."""
        return self._mask

    def mask_words(self) -> int:
        """Wire size of the mask in 64-bit machine words."""
        return (self.bits + 63) // 64

    def is_free(self, context_id: int) -> bool:
        self._check(context_id)
        return bool((self._mask >> context_id) & 1)

    def free_count(self) -> int:
        return bin(self._mask).count("1")

    # ------------------------------------------------------------- allocation

    def acquire(self, context_id: int) -> None:
        """Mark ``context_id`` as used on this process."""
        self._check(context_id)
        if not self.is_free(context_id):
            raise ValueError(f"context id {context_id} already in use")
        self._mask &= ~(1 << context_id)

    def release(self, context_id: int) -> None:
        """Mark ``context_id`` as free again (communicator freed)."""
        self._check(context_id)
        if self.is_free(context_id):
            raise ValueError(f"context id {context_id} is not in use")
        self._mask |= 1 << context_id

    def lowest_free(self) -> int:
        """Lowest free context ID on this process alone."""
        return lowest_set_bit(self._mask)

    @staticmethod
    def common_lowest_free(reduced_mask: int) -> int:
        """Lowest context ID free on *all* processes, given the BAND-reduced mask."""
        return lowest_set_bit(reduced_mask)

    def mask_array(self) -> np.ndarray:
        """The mask as an array of 64-bit words (what actually goes on the wire).

        The returned array is read-only (frozen) and cached until the mask
        changes: collective state machines may forward it without a transport
        snapshot, and repeated creations between allocations reuse it.
        """
        cached = self._array_cache
        mask = self._mask
        if cached is not None and cached[0] == mask:
            return cached[1]
        words = self.mask_words()
        # One to_bytes + frombuffer instead of a Python loop over the words.
        raw = mask.to_bytes(words * 8, "little")
        array = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        array.flags.writeable = False
        self._array_cache = (mask, array)
        return array

    @staticmethod
    def mask_from_array(words: np.ndarray) -> int:
        array = np.ascontiguousarray(words, dtype=np.uint64).astype("<u8", copy=False)
        return int.from_bytes(array.tobytes(), "little")

    def _check(self, context_id: int) -> None:
        if not 0 <= context_id < self.bits:
            raise ValueError(f"context id {context_id} out of range [0, {self.bits})")


@lru_cache(maxsize=8)
def _initial_mask(bits: int, reserved: tuple) -> int:
    mask = (1 << bits) - 1
    for context_id in reserved:
        mask &= ~(1 << context_id)
    return mask


def lowest_set_bit(mask: int) -> int:
    """Index of the least significant set bit; raises if no bit is set."""
    if mask == 0:
        raise RuntimeError("no free context id available")
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class TupleContextId:
    """Structured context ID ``<a, b, f, l, c>`` of the Section VI proposal.

    ``a`` is the process ID of the creating process, ``b`` the value of its
    creation counter, ``f``/``l`` the first/last world rank of the range and
    ``c`` a per-range counter that distinguishes a communicator from a parent
    covering the same range.
    """

    a: int
    b: int
    f: int
    l: int  # noqa: E741 - matches the paper's notation
    c: int

    def child_for_range(self, new_first: int, new_last: int) -> "TupleContextId":
        """Context ID of a sub-range communicator, computed locally in O(1).

        ``new_first`` and ``new_last`` are ranks relative to the parent
        communicator (the paper's f' and l').  Following the paper literally,
        the counter is always incremented: the new ID is
        ``<a, b, f + f', f + l', c + 1>``, which in particular distinguishes a
        duplicate of the parent (f' = 0, l' = l - f) from the parent itself.
        """
        first = self.f + new_first
        last = self.f + new_last
        return TupleContextId(self.a, self.b, first, last, self.c + 1)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.a, self.b, self.f, self.l, self.c)
