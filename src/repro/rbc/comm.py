"""``rbc::Comm`` — range-based communicators created locally in constant time.

An RBC communicator stores an MPI communicator, the MPI rank ``first`` of its
first process, the MPI rank ``last`` of its last process and (as the footnote
in Section V-A describes) an optional stride.  Creating or splitting an RBC
communicator involves *no communication*: only these few integers are
computed, which the simulation charges as a small constant amount of local
work.
"""

from __future__ import annotations

from typing import Optional

from ..mpi.comm import MpiCommunicator
from ..simulator.process import RankEnv

__all__ = ["RbcComm", "create_rbc_comm", "split_rbc_comm", "comm_rank", "comm_size",
           "RBC_CREATE_OPS", "charge_create"]

#: Local work (elementary operations) charged for creating/splitting an RBC
#: communicator.  With the default machine parameters this is well below a
#: tenth of a microsecond — "negligible", as the paper's Fig. 5 reports.
RBC_CREATE_OPS = 40


def charge_create(env: RankEnv, label: str):
    """Charge :data:`RBC_CREATE_OPS`, traced as a ``comm_create`` span.

    Identical simulated cost to ``env.compute(RBC_CREATE_OPS)``; when the
    run is traced the charge is categorized as communicator creation
    instead of generic compute (the recorder handshake suppresses the
    engine's span for this one Sleep), so critical-path reports attribute
    RBC's "latency-free" creation claim separately.
    """
    obs = env.transport._obs
    if obs is not None:
        cost = env.params.compute_cost(RBC_CREATE_OPS)
        if cost > 0:
            now = env.engine._now
            obs.spans.append((env.rank, now, now + cost,
                              "comm_create", label))
            obs.suppress_compute = env.rank
    yield from env.compute(RBC_CREATE_OPS)


class RbcRange:
    """The rank-invariant half of an RBC communicator, shared by its members.

    A range ``first..last`` (MPI ranks, optionally strided) of one MPI
    communicator's group and point-to-point context, with everything derived
    from it: the size, the composed world map (``world_first`` /
    ``world_stride`` when the MPI group translates affinely, else None / 0),
    the world-rank member predicate range-restricted wildcards probe with,
    and the translators both ways.  Nothing in it depends on the member
    asking, so :func:`rbc_range` interns one per (context, group, range) on
    the transport and every member's :class:`RbcComm` points to it.  It
    refers to the MPI group (an immutable value), never to a communicator.
    """

    __slots__ = ("group", "context", "first", "last", "stride", "size",
                 "world_first", "world_stride", "member")

    def __init__(self, mpi_comm: MpiCommunicator, first: int, last: int,
                 stride: int):
        if stride <= 0:
            raise ValueError("stride must be positive")
        if first < 0 or last >= mpi_comm.size:
            raise ValueError(
                f"range {first}..{last} outside MPI communicator of size "
                f"{mpi_comm.size}")
        if last < first:
            raise ValueError(f"empty RBC range {first}..{last}")
        group = self.group = mpi_comm.group
        self.context = mpi_comm._p2p_context()
        self.first = first
        self.last = last
        self.stride = stride
        size = self.size = (last - first) // stride + 1
        # When the MPI group translates affinely (single contiguous/strided
        # range — the common case), compose the two rank maps so
        # ``to_world`` is one multiply-add instead of a call chain.
        affine = group.affine_world_map()
        if affine is None:
            self.world_first = None
            self.world_stride = 0
            # The same test as ``from_mpi``, over captured ints: a closure
            # over the range stored on the range would be a reference cycle.
            from_world = group.rank_of

            def member(world_rank: int) -> bool:
                mpi_rank = from_world(world_rank)
                return (first <= mpi_rank <= last
                        and (mpi_rank - first) % stride == 0)
        else:
            group_first, group_stride = affine
            world_first = self.world_first = group_first + first * group_stride
            world_stride = self.world_stride = stride * group_stride

            def member(world_rank: int) -> bool:
                offset = world_rank - world_first
                return (offset >= 0 and offset % world_stride == 0
                        and offset // world_stride < size)
        self.member = member

    def to_mpi(self, rbc_rank: int) -> int:
        """RBC rank -> rank in the underlying MPI communicator."""
        if not 0 <= rbc_rank < self.size:
            raise ValueError(f"RBC rank {rbc_rank} out of range [0, {self.size})")
        return self.first + rbc_rank * self.stride

    def from_mpi(self, mpi_rank: int) -> Optional[int]:
        """Rank in the underlying MPI communicator -> RBC rank (None if outside)."""
        if mpi_rank < self.first or mpi_rank > self.last:
            return None
        offset = mpi_rank - self.first
        if offset % self.stride != 0:
            return None
        return offset // self.stride

    def to_world(self, rbc_rank: int) -> int:
        """RBC rank -> world rank of the simulated cluster."""
        world_first = self.world_first
        if world_first is not None and 0 <= rbc_rank < self.size:
            return world_first + rbc_rank * self.world_stride
        return self.group.translate(self.to_mpi(rbc_rank))

    def from_world(self, world_rank: int) -> Optional[int]:
        """World rank of the cluster -> RBC rank (None if not a member)."""
        return self.from_mpi(self.group.rank_of(world_rank))


def rbc_range(mpi_comm: MpiCommunicator, first: int, last: int,
              stride: int = 1) -> RbcRange:
    """The :class:`RbcRange` ``first..last`` (stride ``stride``) of
    ``mpi_comm``, interned on the transport so all members share one."""
    transport = mpi_comm._env.transport
    group = mpi_comm.group
    # The range refers to the group, so the group's world key stays valid
    # while the entry exists.
    key = ("rbc range", mpi_comm.context_id, group.world_key(), first, last,
           stride)
    described = transport._interned.get(key)
    if described is None:
        described = transport.intern(
            key, RbcRange(mpi_comm, first, last, stride))
    return described


class RbcComm:
    """A range ``first..last`` (optionally strided) of an MPI communicator.

    All rank arguments of RBC operations are *RBC ranks*: process ``i`` of the
    RBC communicator is the MPI process ``first + i * stride`` of the
    underlying MPI communicator.  A member's communicator is its MPI
    communicator, the shared :class:`RbcRange` and its own RBC rank.
    """

    __slots__ = ("mpi_comm", "range", "_my_rank")

    def __init__(self, mpi_comm: MpiCommunicator, first: int, last: int, stride: int = 1):
        self.mpi_comm = mpi_comm
        described = self.range = rbc_range(mpi_comm, first, last, stride)
        self._my_rank = described.from_mpi(mpi_comm._rank)

    # ------------------------------------------------------------------ basics

    @property
    def env(self) -> RankEnv:
        return self.mpi_comm.env

    @property
    def first(self) -> int:
        return self.range.first

    @property
    def last(self) -> int:
        return self.range.last

    @property
    def stride(self) -> int:
        return self.range.stride

    @property
    def size(self) -> int:
        """Number of processes in the RBC communicator."""
        return self.range.size

    @property
    def rank(self) -> Optional[int]:
        """RBC rank of the calling process (None if it is not a member)."""
        return self._my_rank

    @property
    def is_member(self) -> bool:
        return self.rank is not None

    def to_mpi(self, rbc_rank: int) -> int:
        """RBC rank -> rank in the underlying MPI communicator."""
        return self.range.to_mpi(rbc_rank)

    def from_mpi(self, mpi_rank: int) -> Optional[int]:
        """Rank in the underlying MPI communicator -> RBC rank (None if outside)."""
        return self.range.from_mpi(mpi_rank)

    def to_world(self, rbc_rank: int) -> int:
        """RBC rank -> world rank of the simulated cluster."""
        return self.range.to_world(rbc_rank)

    def from_world(self, world_rank: int) -> Optional[int]:
        """World rank of the cluster -> RBC rank (None if not a member)."""
        return self.range.from_world(world_rank)

    def world_member_predicate(self):
        """Shared ``world_rank -> is member`` test for range-restricted wildcards.

        Probing with ``ANY_SOURCE`` evaluates membership once per pending
        mailbox key per poll; the range's one closure (pure arithmetic when
        the rank translation is affine) replaces a per-probe lambda over the
        ``from_world`` -> ``from_mpi`` call chain.
        """
        return self.range.member

    def mpi_context(self):
        """Context the underlying MPI communicator uses for point-to-point traffic.

        RBC cannot allocate contexts of its own (Section V-A); all of its
        traffic — including collective operations — travels in the parent MPI
        communicator's point-to-point context and is separated by tags only.
        """
        return self.range.context

    # ------------------------------------------------------- creation / split

    def split(self, first: int, last: int, stride: int = 1):
        """``rbc::Split_RBC_Comm`` (generator): sub-range ``first..last`` of *this*
        communicator, created locally without communication.

        ``first``/``last`` are RBC ranks of this communicator.  Returns the
        new :class:`RbcComm`; only a constant amount of local work is charged.
        """
        yield from charge_create(self.env, "split_rbc_comm")
        return self.split_local(first, last, stride)

    def split_local(self, first: int, last: int, stride: int = 1) -> "RbcComm":
        """Like :meth:`split` but without charging simulated time (pure math)."""
        new_first = self.to_mpi(first)
        new_last = self.to_mpi(last)
        return RbcComm(self.mpi_comm, new_first, new_last, stride * self.stride)

    # ----------------------------------------------------- operation delegates

    # Point-to-point (implemented in repro.rbc.p2p).
    def send(self, payload, dest: int, tag: int = 0):
        from . import p2p
        yield from p2p.send(self, payload, dest, tag)

    def isend(self, payload, dest: int, tag: int = 0):
        from . import p2p
        return p2p.isend(self, payload, dest, tag)

    def recv(self, source: int, tag: int, *, return_status: bool = False):
        from . import p2p
        result = yield from p2p.recv(self, source, tag, return_status=return_status)
        return result

    def irecv(self, source: int, tag: int):
        from . import p2p
        return p2p.irecv(self, source, tag)

    def probe(self, source: int, tag: int):
        from . import p2p
        status = yield from p2p.probe(self, source, tag)
        return status

    def iprobe(self, source: int, tag: int):
        from . import p2p
        return p2p.iprobe(self, source, tag)

    # Collectives (implemented in repro.rbc.collectives).
    def ibcast(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.ibcast(self, value, root, tag)

    def bcast(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.bcast(self, value, root, tag)
        return result

    def ireduce(self, value, op=None, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.ireduce(self, value, op, root, tag)

    def reduce(self, value, op=None, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.reduce(self, value, op, root, tag)
        return result

    def iscan(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        return collectives.iscan(self, value, op, tag)

    def scan(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.scan(self, value, op, tag)
        return result

    def iexscan(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        return collectives.iexscan(self, value, op, tag)

    def exscan(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.exscan(self, value, op, tag)
        return result

    def igather(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.igather(self, value, root, tag)

    def gather(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.gather(self, value, root, tag)
        return result

    def igatherv(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.igatherv(self, value, root, tag)

    def gatherv(self, value, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.gatherv(self, value, root, tag)
        return result

    def ibarrier(self, tag: Optional[int] = None):
        from . import collectives
        return collectives.ibarrier(self, tag)

    def barrier(self, tag: Optional[int] = None):
        from . import collectives
        yield from collectives.barrier(self, tag)

    def iallreduce(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        return collectives.iallreduce(self, value, op, tag)

    def allreduce(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.allreduce(self, value, op, tag)
        return result

    def iallgather(self, value, tag: Optional[int] = None):
        from . import collectives
        return collectives.iallgather(self, value, tag)

    def allgather(self, value, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.allgather(self, value, tag)
        return result

    def iscatter(self, values, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.iscatter(self, values, root, tag)

    def scatter(self, values, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.scatter(self, values, root, tag)
        return result

    def iscatterv(self, values, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        return collectives.iscatterv(self, values, root, tag)

    def scatterv(self, values, root: int = 0, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.scatterv(self, values, root, tag)
        return result

    def iallgatherv(self, value, tag: Optional[int] = None):
        from . import collectives
        return collectives.iallgatherv(self, value, tag)

    def allgatherv(self, value, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.allgatherv(self, value, tag)
        return result

    def ireduce_scatter(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        return collectives.ireduce_scatter(self, value, op, tag)

    def reduce_scatter(self, value, op=None, tag: Optional[int] = None):
        from . import collectives
        result = yield from collectives.reduce_scatter(self, value, op, tag)
        return result

    def __repr__(self):  # pragma: no cover - debugging aid
        stride = f", stride={self.stride}" if self.stride != 1 else ""
        return (
            f"RbcComm({self.first}..{self.last}{stride} of "
            f"MPI comm size {self.mpi_comm.size}, rank={self.rank})"
        )


# ---------------------------------------------------------------------------
# Free functions with the paper's names.
# ---------------------------------------------------------------------------

def create_rbc_comm(mpi_comm: MpiCommunicator):
    """``rbc::Create_RBC_Comm`` (generator): RBC communicator over all processes
    of an MPI communicator.  Local operation, no communication."""
    yield from charge_create(mpi_comm.env, "create_rbc_comm")
    return RbcComm(mpi_comm, 0, mpi_comm.size - 1, 1)


def split_rbc_comm(comm: RbcComm, first: int, last: int, stride: int = 1):
    """``rbc::Split_RBC_Comm`` (generator): sub-range of an RBC communicator.
    Local operation, no communication."""
    new_comm = yield from comm.split(first, last, stride)
    return new_comm


def comm_rank(comm: RbcComm) -> Optional[int]:
    """``rbc::Comm_rank``: RBC rank of the calling process."""
    return comm.rank


def comm_size(comm: RbcComm) -> int:
    """``rbc::Comm_size``: number of processes in the RBC communicator."""
    return comm.size
