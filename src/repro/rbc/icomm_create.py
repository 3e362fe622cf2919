"""Nonblocking creation of (range-based) MPI communicators — Section VI.

The paper proposes ``MPI_Icomm_create_group(comm, group, tag, *newcomm, *req)``
for the MPI standard, together with an implementation recipe based on
structured context IDs ``<a, b, f, l, c>``:

* If the new group is a *contiguous range* of the parent communicator, every
  member computes the new context ID locally in constant time — no
  communication at all.
* Otherwise the first process of the group builds a fresh context ID from its
  process ID and a local counter and broadcasts it (nonblocking, binomial
  tree, using the user-supplied tag) to the remaining members in
  ``O(alpha log l)`` time.

Unlike RBC communicators, communicators created this way are full MPI
communicators with their own context, so they do not weaken MPI's
communication semantics.
"""

from __future__ import annotations

from typing import Optional

from ..collectives.machines import CollectiveRequest, bcast_schedule
from ..mpi.comm import MpiCommunicator
from ..mpi.comm_create import _creation_endpoint
from ..mpi.context import TupleContextId
from ..mpi.group import MpiGroup
from ..mpi.request import CompletedRequest, Request
from .request import RbcRequest
from .tags import ICOMM_CREATE_TAG

__all__ = ["icomm_create_group", "icomm_create", "ensure_tuple_context"]

#: Local work (elementary operations) charged for the constant-time range case.
_LOCAL_CREATE_OPS = 40


def ensure_tuple_context(parent: MpiCommunicator) -> TupleContextId:
    """Structured context ID of ``parent``.

    Communicators created through this module already carry a
    :class:`TupleContextId`.  For pre-existing communicators with a plain
    integer context (e.g. ``MPI_COMM_WORLD``) a canonical tuple ID is derived
    deterministically; the ``a`` component is made negative so it can never
    collide with an ID created from a real process ID.
    """
    ctx = parent.context_id
    if isinstance(ctx, TupleContextId):
        return ctx
    return TupleContextId(a=-(int(ctx) + 1), b=0, f=0, l=parent.size - 1, c=0)


def _group_as_parent_range(parent_ranks) -> Optional[tuple[int, int]]:
    """(f', l') if the group's ascending ``parent_ranks`` are a contiguous
    range of the parent."""
    first, last = parent_ranks[0], parent_ranks[-1]
    # Ascending and distinct, so spanning exactly their count means gap-free.
    if last - first + 1 != len(parent_ranks):
        return None
    return first, last


class _IcommCreateRequest(Request):
    """Request returned by the non-range case: completes once the broadcast
    of the new context ID has reached this process."""

    def __init__(self, parent: MpiCommunicator, group: MpiGroup, inner: CollectiveRequest):
        self.env = parent.env
        self._parent = parent
        self._group = group
        self._inner = inner
        self._comm: Optional[MpiCommunicator] = None

    def test(self) -> bool:
        if self._comm is not None:
            return True
        if not self._inner.test():
            return False
        context_id = self._inner.result()
        self._comm = self._parent.runtime.make_communicator(self._group, context_id)
        return True

    def result(self) -> Optional[MpiCommunicator]:
        return self._comm


def icomm_create_group(parent: MpiCommunicator, group: MpiGroup,
                       tag: int = ICOMM_CREATE_TAG) -> RbcRequest:
    """Proposed ``MPI_Icomm_create_group``: nonblocking, collective over the
    members of ``group``.

    Returns an :class:`RbcRequest`; once it completes, ``result()`` is the new
    :class:`MpiCommunicator`.  The range case completes immediately (constant
    local work); the general case requires one nonblocking broadcast among the
    group members, using the caller-supplied ``tag`` on the parent
    communicator.
    """
    env = parent.env
    world_rank = env.rank
    if not group.contains(world_rank):
        raise ValueError(
            f"rank {world_rank} invoked icomm_create_group but is not in the group")

    parent_ctx = ensure_tuple_context(parent)
    parent_ranks = parent.group.ranks_of_subgroup(group)
    span = _group_as_parent_range(parent_ranks)

    if span is not None:
        # Constant-time local case: <a, b, f + f', f + l', c + 1>.
        new_ctx = parent_ctx.child_for_range(span[0], span[1])
        comm = parent.runtime.make_communicator(group, new_ctx)
        # Charge the constant local work without blocking the caller: the
        # request is already complete when returned.
        return RbcRequest(env, CompletedRequest(env, value=comm))

    # General case: the first process of the group creates the context ID and
    # broadcasts it to the remaining members, in the parent's point-to-point
    # context.  Group rank i is the member of the i-th lowest parent rank.
    endpoint = _creation_endpoint(parent, channel="pt2pt", tag=tag,
                                  members=parent_ranks)
    if endpoint.rank_of(world_rank) == 0:
        runtime = parent.runtime
        new_ctx = TupleContextId(
            a=world_rank,
            b=runtime.next_creation_counter(),
            f=0,
            l=group.size,
            c=0,
        )
    else:
        new_ctx = None

    inner = CollectiveRequest(env, endpoint, bcast_schedule, new_ctx, 0)
    return RbcRequest(env, _IcommCreateRequest(parent, group, inner))


def icomm_create(parent: MpiCommunicator, group: MpiGroup) -> RbcRequest:
    """Nonblocking version of ``MPI_Comm_create``: collective over *all*
    processes of ``parent``; non-members receive ``None``.

    The broadcast of the new context ID runs over the whole parent
    communicator, so no user tag is needed (Section VI).
    """
    env = parent.env
    parent_ctx = ensure_tuple_context(parent)
    span = _group_as_parent_range(parent.group.ranks_of_subgroup(group))
    is_member = group.contains(env.rank)

    if span is not None:
        if not is_member:
            return RbcRequest(env, CompletedRequest(env, value=None))
        new_ctx = parent_ctx.child_for_range(span[0], span[1])
        comm = parent.runtime.make_communicator(group, new_ctx)
        return RbcRequest(env, CompletedRequest(env, value=comm))

    members = sorted(group.world_ranks(), key=lambda w: parent.from_world(w))
    root_parent_rank = parent.from_world(members[0])
    if env.rank == members[0]:
        runtime = parent.runtime
        new_ctx = TupleContextId(
            a=env.rank, b=runtime.next_creation_counter(), f=0, l=group.size, c=0)
    else:
        new_ctx = None

    inner = parent.ibcast(new_ctx, root=root_parent_rank)

    class _Wrapper(Request):
        def __init__(wrapper_self):
            wrapper_self.env = env
            wrapper_self._comm = None
            wrapper_self._built = False

        def test(wrapper_self) -> bool:
            if wrapper_self._built:
                return True
            if not inner.test():
                return False
            if is_member:
                wrapper_self._comm = parent.runtime.make_communicator(
                    group, inner.result())
            wrapper_self._built = True
            return True

        def result(wrapper_self):
            return wrapper_self._comm

    return RbcRequest(env, _Wrapper())
