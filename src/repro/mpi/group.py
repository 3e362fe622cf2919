"""MPI process groups with explicit and range-based storage formats.

A group maps group-local ranks to *world* ranks.  Two storage formats are
supported, mirroring the discussion of Chaarawi & Gabriel's sparse group
storage in Section III of the paper:

* ``EXPLICIT`` — an array of world ranks (what MPICH and Open MPI construct;
  O(p) space and construction time).
* ``RANGE`` — a list of ``(first, last, stride)`` triples over the parent's
  ranks (constant space per range; constant-time translation for a single
  range).

The storage format matters for the vendor cost model: native communicator
creation charges for materialising the explicit format, whereas the
range-based proposal of Section VI never does.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .datatypes import UNDEFINED

__all__ = ["GroupFormat", "MpiGroup"]


class GroupFormat:
    EXPLICIT = "explicit"
    RANGE = "range"


class _RangeTriple:
    """One ``(first, last, stride)`` range of world ranks (never mutated)."""

    __slots__ = ("first", "last", "stride")

    def __init__(self, first: int, last: int, stride: int):
        if stride <= 0:
            raise ValueError("stride must be positive")
        if last < first:
            raise ValueError(f"empty range {first}..{last}")
        self.first = first
        self.last = last
        self.stride = stride

    @property
    def count(self) -> int:
        return (self.last - self.first) // self.stride + 1

    def rank_at(self, index: int) -> int:
        return self.first + index * self.stride

    def index_of(self, world_rank: int) -> Optional[int]:
        if world_rank < self.first or world_rank > self.last:
            return None
        offset = world_rank - self.first
        if offset % self.stride != 0:
            return None
        return offset // self.stride


class MpiGroup:
    """An ordered set of world ranks (mirrors ``MPI_Group``)."""

    def __init__(self, *, explicit: Optional[Sequence[int]] = None,
                 ranges: Optional[Sequence[tuple]] = None):
        if (explicit is None) == (ranges is None):
            raise ValueError("provide exactly one of explicit= or ranges=")
        if explicit is not None:
            self._format = GroupFormat.EXPLICIT
            self._ranks = list(int(r) for r in explicit)
            if len(set(self._ranks)) != len(self._ranks):
                raise ValueError("duplicate ranks in group")
            # {world rank: group rank}, built by the first rank_of: one
            # explicit group is shared by all its members after a split.
            self._index: Optional[dict] = None
            self._ranges: list[_RangeTriple] = []
        else:
            self._format = GroupFormat.RANGE
            self._ranges = []
            for rng in ranges:
                first, last, *rest = rng
                stride = rest[0] if rest else 1
                self._ranges.append(
                    _RangeTriple(int(first), int(last), int(stride)))
            self._ranks = []
            if len(self._ranges) > 1:
                seen = set()
                for triple in self._ranges:
                    for index in range(triple.count):
                        rank = triple.rank_at(index)
                        if rank in seen:
                            raise ValueError(f"duplicate rank {rank} in ranges")
                        seen.add(rank)
            # else: a single (first, last, stride) triple cannot contain
            # duplicates by construction — skip the O(size) scan, which keeps
            # the common world/contiguous group O(1) to build.
            # Rank list is only materialised lazily for the explicit view.
        # Translation fast path: a single-range group translates with one
        # multiply-add; the cached size avoids re-summing range counts.
        if self._format == GroupFormat.RANGE and len(self._ranges) == 1:
            triple = self._ranges[0]
            self._single = (triple.first, triple.stride, triple.count)
            self._size = triple.count
        else:
            self._single = None
            self._size = (len(self._ranks) if self._format == GroupFormat.EXPLICIT
                          else sum(t.count for t in self._ranges))

    # ------------------------------------------------------------ constructors

    @classmethod
    def incl(cls, ranks: Iterable[int]) -> "MpiGroup":
        """Explicit enumeration of world ranks (``MPI_Group_incl``)."""
        return cls(explicit=list(ranks))

    @classmethod
    def range_incl(cls, ranges: Sequence[tuple]) -> "MpiGroup":
        """Sparse representation by (first, last[, stride]) triples
        (``MPI_Group_range_incl``)."""
        return cls(ranges=list(ranges))

    @classmethod
    def contiguous(cls, first: int, last: int) -> "MpiGroup":
        """Convenience: the contiguous range ``first..last``."""
        return cls.range_incl([(first, last, 1)])

    # ------------------------------------------------------------------ basics

    @property
    def format(self) -> str:
        return self._format

    @property
    def size(self) -> int:
        return self._size

    def world_ranks(self) -> list[int]:
        """Materialise the ordered list of world ranks (O(size))."""
        if self._format == GroupFormat.EXPLICIT:
            return list(self._ranks)
        ranks = []
        for triple in self._ranges:
            ranks.extend(triple.rank_at(i) for i in range(triple.count))
        return ranks

    # -------------------------------------------------------------- translation

    def translate(self, group_rank: int) -> int:
        """Group-local rank -> world rank."""
        single = self._single
        if single is not None and 0 <= group_rank < single[2]:
            return single[0] + group_rank * single[1]
        if group_rank < 0:
            raise ValueError("negative group rank")
        if self._format == GroupFormat.EXPLICIT:
            return self._ranks[group_rank]
        remaining = group_rank
        for triple in self._ranges:
            if remaining < triple.count:
                return triple.rank_at(remaining)
            remaining -= triple.count
        raise IndexError(f"group rank {group_rank} out of range (size {self.size})")

    def affine_world_map(self) -> Optional[tuple[int, int]]:
        """``(first, stride)`` when translation is ``first + i * stride``.

        Lets layered communicators (RBC ranges over an MPI communicator)
        compose their rank translations into one multiply-add instead of a
        call chain.  Returns None for groups without that structure.
        """
        if self._single is None:
            return None
        return self._single[0], self._single[1]

    def world_key(self):
        """A hashable name of this group's rank map, in constant time.

        ``(first, stride, size)`` when translation is affine — equal for
        every group with that map — else the group's identity, which names
        it only while the group is alive: whoever keys a table by it must
        keep the group referenced from the entry.
        """
        single = self._single
        return single if single is not None else id(self)

    def rank_of(self, world_rank: int) -> int:
        """World rank -> group-local rank, or ``UNDEFINED`` if not a member."""
        if self._format == GroupFormat.EXPLICIT:
            index = self._index
            if index is None:
                index = self._index = {
                    rank: i for i, rank in enumerate(self._ranks)}
            return index.get(world_rank, UNDEFINED)
        offset = 0
        for triple in self._ranges:
            index = triple.index_of(world_rank)
            if index is not None:
                return offset + index
            offset += triple.count
        return UNDEFINED

    def contains(self, world_rank: int) -> bool:
        return self.rank_of(world_rank) != UNDEFINED

    def ranks_of_subgroup(self, subgroup: "MpiGroup") -> Sequence[int]:
        """This group's ranks of all members of ``subgroup``, ascending.

        The ``MPI_Group_translate_ranks`` analogue communicator creation
        needs: which of this (parent) group's ranks form the new group.
        When both groups are single ``(first, stride, count)`` ranges the
        answer is a ``range`` (constant-time ``len``, ``index`` and
        ``[i]``); any other pair is translated rank by rank.  Raises
        ``ValueError`` when a member of ``subgroup`` is not in this group.
        """
        mine, theirs = self._single, subgroup._single
        if mine is not None and theirs is not None:
            first, stride, count = mine
            sub_first, sub_stride, sub_count = theirs
            if sub_count == 1:
                sub_stride = stride
            start, misaligned = divmod(sub_first - first, stride)
            step, uneven = divmod(sub_stride, stride)
            if not misaligned and not uneven and start >= 0 \
                    and start + (sub_count - 1) * step < count:
                return range(start, start + sub_count * step, step)
            # Some member is off this group's lattice or beyond its ends;
            # the per-rank translation below finds it.
        ranks = sorted(self.rank_of(w) for w in subgroup.world_ranks())
        if any(rank == UNDEFINED for rank in ranks):
            raise ValueError("group contains ranks outside the parent communicator")
        return ranks

    # ---------------------------------------------------------------- analysis

    def as_contiguous_range(self) -> Optional[tuple[int, int]]:
        """(first, last) if the group is exactly the world ranks first..last
        in increasing order, else None.

        This is the test used by the Section VI proposal to decide whether a
        new communicator can be created locally in constant time.
        """
        if self._format == GroupFormat.RANGE and len(self._ranges) == 1:
            triple = self._ranges[0]
            if triple.stride == 1:
                return triple.first, triple.last
            return None
        ranks = self.world_ranks()
        if not ranks:
            return None
        first, last = ranks[0], ranks[-1]
        if last - first + 1 != len(ranks):
            return None
        if all(ranks[i] == first + i for i in range(len(ranks))):
            return first, last
        return None

    def range_count(self) -> int:
        """Number of stored ranges (1 for explicit groups, informational)."""
        if self._format == GroupFormat.RANGE:
            return len(self._ranges)
        return max(1, len(self._ranks))

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MpiGroup):
            return NotImplemented
        return self.world_ranks() == other.world_ranks()

    def __hash__(self):
        return hash(tuple(self.world_ranks()))

    def __repr__(self):  # pragma: no cover - debugging aid
        if self._format == GroupFormat.RANGE:
            spans = ", ".join(
                f"{t.first}..{t.last}" + (f":{t.stride}" if t.stride != 1 else "")
                for t in self._ranges
            )
            return f"MpiGroup(ranges=[{spans}])"
        return f"MpiGroup(explicit={self._ranks!r})"
