"""Communication backends for Janus Quicksort.

JQuick needs, for every subtask, a communication handle over the subtask's
contiguous range of processes offering nonblocking collectives and
point-to-point messaging.  The two backends differ only in how that handle is
obtained — which is precisely the comparison of Fig. 8 of the paper:

* :class:`RbcBackend` splits an RBC communicator: a local, constant-time
  operation with no communication.
* :class:`NativeMpiBackend` creates a genuine MPI communicator for the range
  with the *blocking* ``MPI_Comm_create_group``, paying context-ID agreement,
  explicit group construction (vendor cost model) and synchronisation of the
  group members.

Both expose the same :class:`GroupComm` interface; group-local rank ``i``
always corresponds to sorting rank ``group_first + i``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..mpi.comm import MpiCommunicator
from ..mpi.datatypes import ANY_SOURCE, SUM
from ..mpi.group import MpiGroup
from ..rbc import collectives as rbc_collectives
from ..rbc import p2p as rbc_p2p
from ..rbc.comm import RbcComm

__all__ = ["GroupComm", "RbcGroupComm", "MpiGroupComm", "RbcBackend",
           "NativeMpiBackend", "JQuickBackend"]


class GroupComm:
    """Uniform nonblocking communication interface over one task's processes."""

    #: First sorting rank of the group (group-local rank 0).
    group_first: int
    #: Number of processes in the group.
    size: int
    #: Group-local rank of the calling process.
    rank: int

    def to_group(self, sort_rank: int) -> int:
        return sort_rank - self.group_first

    # Nonblocking collectives ------------------------------------------------
    def ibcast(self, value: Any, root: int, tag: int):
        raise NotImplementedError

    def iscan(self, value: Any, op, tag: int):
        raise NotImplementedError

    def igatherv(self, value: Any, root: int, tag: int):
        raise NotImplementedError

    def ibarrier(self, tag: int):
        raise NotImplementedError

    def iallreduce(self, value: Any, op, tag: int):
        raise NotImplementedError

    # Point-to-point ----------------------------------------------------------
    def isend(self, payload: Any, dest_group_rank: int, tag: int):
        raise NotImplementedError

    def irecv(self, source_group_rank: int, tag: int):
        raise NotImplementedError

    def irecv_any(self, tag: int):
        """Nonblocking receive from any member of this group on ``tag``."""
        raise NotImplementedError


class RbcGroupComm(GroupComm):
    """Group communication over an RBC communicator (tag-separated).

    Every method returns the *inner* request of the RBC smart pointer: the
    sorting hot loops poll these requests tens of times per level, and the
    pointer wrapper would add one pure-delegation call frame to every poll.
    """

    def __init__(self, comm: RbcComm, group_first: int):
        self.comm = comm
        self.group_first = group_first
        self.size = comm.size
        self.rank = comm.rank

    def ibcast(self, value, root, tag):
        return rbc_collectives.ibcast(self.comm, value, root, tag).inner

    def iscan(self, value, op, tag):
        return rbc_collectives.iscan(self.comm, value, op, tag).inner

    def igatherv(self, value, root, tag):
        return rbc_collectives.igatherv(self.comm, value, root, tag).inner

    def ibarrier(self, tag):
        return rbc_collectives.ibarrier(self.comm, tag).inner

    def iallreduce(self, value, op, tag):
        return rbc_collectives.iallreduce(self.comm, value, op, tag).inner

    def isend(self, payload, dest_group_rank, tag):
        return rbc_p2p.isend(self.comm, payload, dest_group_rank, tag).inner

    def irecv(self, source_group_rank, tag):
        return rbc_p2p.irecv(self.comm, source_group_rank, tag).inner

    def irecv_any(self, tag):
        # Single-request membership-filtered receive: same matching semantics
        # as irecv(ANY_SOURCE), one filtered mailbox match per poll instead of
        # the probe-then-receive two-step.
        return rbc_p2p.irecv_any_member(self.comm, tag).inner


class MpiGroupComm(GroupComm):
    """Group communication over a dedicated MPI communicator.

    Collectives run in the communicator's own context, so the per-task tag is
    only needed for the point-to-point data exchange.
    """

    def __init__(self, comm: MpiCommunicator, group_first: int):
        self.comm = comm
        self.group_first = group_first
        self.size = comm.size
        self.rank = comm.rank

    def ibcast(self, value, root, tag):
        return self.comm.ibcast(value, root)

    def iscan(self, value, op, tag):
        return self.comm.iscan(value, op)

    def igatherv(self, value, root, tag):
        return self.comm.igatherv(value, root)

    def ibarrier(self, tag):
        return self.comm.ibarrier()

    def iallreduce(self, value, op, tag):
        return self.comm.iallreduce(value, op)

    def isend(self, payload, dest_group_rank, tag):
        return self.comm.isend(payload, dest_group_rank, tag)

    def irecv(self, source_group_rank, tag):
        return self.comm.irecv(source_group_rank, tag)

    def irecv_any(self, tag):
        return self.comm.irecv(ANY_SOURCE, tag)


class JQuickBackend:
    """Provides group communicators for JQuick's subtasks."""

    #: Sorting rank of the calling process and total number of sorting ranks.
    sort_rank: int
    sort_size: int

    def make_group_comm(self, first: int, last: int):
        """Env-level generator returning a :class:`GroupComm` over sorting
        ranks ``first..last``.  May block (native MPI) or be effectively free
        (RBC)."""
        raise NotImplementedError

    def world_channel(self) -> GroupComm:
        """Group communicator over all sorting ranks (used by base cases)."""
        raise NotImplementedError

    #: Human-readable name used in benchmark tables.
    name: str = "backend"


class RbcBackend(JQuickBackend):
    """JQuick on RBC communicators: constant-time local splitting."""

    name = "rbc"

    def __init__(self, world: RbcComm):
        if world.rank is None:
            raise ValueError("calling process is not a member of the RBC communicator")
        self.world = world
        self.sort_rank = world.rank
        self.sort_size = world.size
        self._world_channel = RbcGroupComm(world, group_first=0)

    def make_group_comm(self, first: int, last: int):
        if first == 0 and last == self.sort_size - 1:
            return self._world_channel
            yield  # pragma: no cover - keeps this a generator
        sub = yield from self.world.split(first, last)
        return RbcGroupComm(sub, group_first=first)

    def world_channel(self) -> GroupComm:
        return self._world_channel


class NativeMpiBackend(JQuickBackend):
    """JQuick on native MPI communicators created with ``MPI_Comm_create_group``.

    Every subtask requires a blocking communicator creation by its group
    members — the overhead (and the cascading creation schedules) the paper's
    Fig. 8 measures.
    """

    name = "mpi"

    #: Tag used for the blocking group creations (the data exchange uses
    #: per-task tags, so a single creation tag is unambiguous thanks to the
    #: FIFO ordering of the simulated transport).
    CREATE_TAG = 17

    def __init__(self, world: MpiCommunicator):
        self.world = world
        self.sort_rank = world.rank
        self.sort_size = world.size
        self._world_channel = MpiGroupComm(world, group_first=0)

    def make_group_comm(self, first: int, last: int):
        if first == 0 and last == self.sort_size - 1:
            return self._world_channel
            yield  # pragma: no cover - keeps this a generator
        to_world = self.world.to_world
        affine = self.world.group.affine_world_map()
        if affine is not None:
            group = MpiGroup.range_incl(
                [(to_world(first), to_world(last), affine[1])])
        else:
            group = MpiGroup.incl(to_world(r) for r in range(first, last + 1))
        comm = yield from self.world.create_group(group, tag=self.CREATE_TAG)
        return MpiGroupComm(comm, group_first=first)

    def world_channel(self) -> GroupComm:
        return self._world_channel
