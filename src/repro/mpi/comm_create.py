"""Blocking communicator creation: ``MPI_Comm_create_group`` and ``MPI_Comm_split``.

Both operations are implemented the way the open-source MPI libraries the
paper discusses implement them:

* ``comm_create_group`` is a blocking collective over the members of the *new*
  group.  The members agree on a context ID by an allreduce with ``MPI_BAND``
  over their context-ID masks and then materialise an explicit process array
  for the new communicator (the vendor cost model charges the linear-in-p
  construction the paper measures for Intel MPI, and IBM MPI's much larger
  constant).
* ``comm_split`` is a blocking collective over *all* processes of the parent
  communicator.  Every process contributes its (color, key); the pairs are
  allgathered (Ω(alpha log p + beta p)), each process groups them locally, and
  a context ID is agreed on over the whole parent communicator.

Because these are genuine blocking collectives over the simulated transport,
all the phenomena the paper's evaluation hinges on — synchronisation of the
participants, cascading creation of overlapping communicators, serial
schedules — emerge naturally in the simulation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..collectives.endpoint import TransportEndpoint
from ..collectives.machines import (
    CollectiveRequest,
    allgather_schedule,
    allreduce_schedule,
)
from .comm import MpiCommunicator
from .context import ContextIdPool
from .group import MpiGroup

__all__ = ["comm_create_group", "comm_split", "comm_dup"]


def _band_masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & b


def _creation_endpoint(parent: MpiCommunicator, *, channel: str, tag: int,
                       members: Optional[Sequence[int]] = None) -> TransportEndpoint:
    """Endpoint for the context-ID agreement collective.

    ``members`` is the ascending list of parent ranks taking part (defaults
    to all of them); the endpoint's group-local rank space is the index into
    that list.  The user-provided ``tag`` keeps concurrent creations on
    overlapping groups apart, exactly as the real ``MPI_Comm_create_group``
    interface requires.

    Translation goes through the parent's group (an immutable value), never
    the parent: an endpoint must not keep a communicator alive.  An affine
    parent with a ``range`` of members composes into one affine map.  Every
    endpoint but a per-rank member list's is interned on the transport and
    shared by the participants.
    """
    transport = parent.env.transport
    group = parent.group
    context = (parent.context_id, channel)
    if members is None:
        key = ("create", context, tag, group.world_key())
        fields = dict(size=parent.size, to_world=group.translate,
                      world_affine=group.affine_world_map(),
                      from_world=group.rank_of)
    else:
        affine = group.affine_world_map()
        if affine is not None and isinstance(members, range):
            first, stride = affine
            affine = (first + members.start * stride, members.step * stride)
            key = ("create", context, tag, affine, len(members))
            fields = dict(size=len(members), world_affine=affine)
        else:
            # A member list is built per rank: no identity to share it by.
            translate = group.translate

            def to_world(index: int) -> int:
                return translate(members[index])

            return TransportEndpoint(transport, context=context, tag=tag,
                                     size=len(members), to_world=to_world)
    endpoint = transport._interned.get(key)
    if endpoint is None:
        endpoint = transport.intern(key, TransportEndpoint(
            transport, context=context, tag=tag, **fields))
    return endpoint


def _agree_on_context_id(parent: MpiCommunicator, endpoint: TransportEndpoint):
    """Allreduce(BAND) the context masks of the participants; returns the new id.

    Generator (blocking).  The id is acquired in this process's pool before
    returning, so subsequent creations on this process cannot reuse it.
    """
    pool = parent.runtime.context_pool
    my_mask = pool.mask_array()
    request = CollectiveRequest(
        parent.env, endpoint, allreduce_schedule, my_mask, _band_masks)
    reduced = yield from request.wait()
    context_id = ContextIdPool.common_lowest_free(
        ContextIdPool.mask_from_array(reduced))
    pool.acquire(context_id)
    return context_id


def comm_create_group(parent: MpiCommunicator, group: MpiGroup, tag: int = 0):
    """Blocking ``MPI_Comm_create_group`` (generator).

    Must be called by exactly the processes named in ``group``.  Returns the
    new communicator.
    """
    world_rank = parent.env.rank
    if not group.contains(world_rank):
        raise ValueError(
            f"rank {world_rank} called comm_create_group but is not in the group")

    members = parent.group.ranks_of_subgroup(group)

    endpoint = _creation_endpoint(parent, channel="create_group", tag=tag,
                                  members=members)
    context_id = yield from _agree_on_context_id(parent, endpoint)

    # Materialise the explicit process array (what Intel MPI / MPICH do); the
    # vendor model charges the linear construction cost the paper measures.
    vendor = parent.vendor
    yield from parent.env.compute_time(vendor.group_construction_cost(group.size))

    return parent.runtime.make_communicator(group, context_id)


class _SplitTable:
    """The per-color groups of one ``comm_split``, shared by its ranks."""

    __slots__ = ("entries", "groups", "unread")

    def __init__(self, parent: MpiCommunicator, entries):
        #: The allgathered ``(color, key, parent rank)`` list grouped here.
        self.entries = entries
        by_color: dict = {}
        for color, key, rank in entries:
            if color is not None:
                by_color.setdefault(color, []).append((key, rank))
        to_world = parent.group.translate
        #: ``{color: MpiGroup}``, members ordered by ``(key, parent rank)``.
        self.groups = {
            color: MpiGroup.incl(to_world(rank) for _, rank in sorted(pairs))
            for color, pairs in by_color.items()}
        #: Ranks with a color that have not fetched their group yet.
        self.unread = sum(group.size for group in self.groups.values())


def _split_group(parent: MpiCommunicator, split_seq: int, entries,
                 color) -> MpiGroup:
    """The group of ``color`` in the split that allgathered ``entries``.

    The broadcast hands every rank the same list object, so the first rank
    to ask groups it for all colors and parks the table on the transport;
    the others look their (immutable, shared) group up, and the last rank
    with a color to do so drops the table.  The key names the split — the
    parent's rank 0 tells apart the disjoint communicators of an earlier
    split, which share one context id — and a caller whose ``entries`` is
    not the table's list (a transport that copies payloads) groups locally.
    """
    tables = parent.env.transport._split_tables
    key = (parent.context_id, split_seq, parent.to_world(0))
    table = tables.get(key)
    if table is None:
        table = tables[key] = _SplitTable(parent, entries)
    elif table.entries is not entries:
        return _SplitTable(parent, entries).groups[color]
    table.unread -= 1
    if not table.unread:
        del tables[key]
    return table.groups[color]


def comm_split(parent: MpiCommunicator, color: Optional[int], key: int = 0):
    """Blocking ``MPI_Comm_split`` (generator).

    Every process of ``parent`` must call this.  Processes passing
    ``color=None`` (the analogue of ``MPI_UNDEFINED``) take part in the
    exchange but receive ``None``.
    """
    env = parent.env
    vendor = parent.vendor

    # 1. Allgather (color, key, parent rank) over the whole parent communicator.
    split_seq = parent._coll_seq
    endpoint = _creation_endpoint(parent, channel="split", tag=split_seq)
    parent._coll_seq += 1
    contribution = (color, key, parent.rank)
    request = CollectiveRequest(env, endpoint, allgather_schedule,
                                contribution)
    entries = yield from request.wait()

    # 2. Group locally (charged per the vendor model).
    yield from env.compute_time(vendor.split_local_cost(parent.size))

    # 3. Agree on one context id over the whole parent communicator (the
    #    resulting per-color communicators are disjoint, so they may share it).
    ctx_endpoint = _creation_endpoint(parent, channel="split_ctx",
                                      tag=parent._coll_seq)
    parent._coll_seq += 1
    context_id = yield from _agree_on_context_id(parent, ctx_endpoint)

    if color is None:
        return None
    group = _split_group(parent, split_seq, entries, color)

    # 4. Materialise the explicit group representation for the new communicator.
    yield from env.compute_time(vendor.group_construction_cost(group.size))

    return parent.runtime.make_communicator(group, context_id)


def comm_dup(parent: MpiCommunicator):
    """Blocking communicator duplication (generator): same group, new context."""
    endpoint = _creation_endpoint(parent, channel="dup", tag=parent._coll_seq)
    parent._coll_seq += 1
    context_id = yield from _agree_on_context_id(parent, endpoint)
    yield from parent.env.compute_time(
        parent.vendor.group_construction_cost(parent.size))
    return parent.runtime.make_communicator(parent.group, context_id)
