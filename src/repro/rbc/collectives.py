"""RBC collective operations (Section V-D of the paper).

Collectives are implemented with point-to-point communication on the RBC
communicator using binomial-tree / dissemination communication patterns and
are driven by per-request state machines that make progress whenever
``rbc::Test`` is called.  Each operation owns a reserved tag; nonblocking
collectives additionally accept a user-defined tag so that simultaneously
running collectives — on the same RBC communicator or on overlapping RBC
communicators derived from the same MPI communicator — do not interfere.

Beyond the operations listed in Table I of the paper (bcast, reduce, scan,
gather, gatherv, barrier and their nonblocking variants) this module also
provides exscan, allreduce, allgather, alltoallv, scatter(v), allgatherv and
reduce_scatter, which the sorting algorithms and benchmarks use.

Broadcast, reduce, allreduce, barrier, scan, gather and gatherv accept an
``algorithm`` argument naming the communication pattern — the "easy to
extend ... e.g., for large input sizes" extension point the paper describes
in Section V-D.  These functions only build the endpoint (communicator, tag)
and wrap the request; which schedule runs and which execution tier prices
it is decided by :func:`repro.collectives.dispatch.start`, for this layer
and the simulated native MPI alike.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..collectives.dispatch import start
from ..collectives.endpoint import TransportEndpoint
from ..collectives.large import (
    DEFAULT_SEGMENT_WORDS,
    reduce_scatter_ring_schedule,
    ring_allgather_schedule,
    scatter_schedule,
)
from ..collectives.machines import (
    CollectiveRequest,
    allgather_schedule,
    alltoallv_schedule,
    exscan_schedule,
)
from ..mpi.datatypes import SUM
from .comm import RbcComm
from .request import RbcRequest
from . import tags as _tags

__all__ = [
    "ibcast", "bcast",
    "ireduce", "reduce",
    "iscan", "scan",
    "iexscan", "exscan",
    "igather", "gather",
    "igatherv", "gatherv",
    "ibarrier", "barrier",
    "iallreduce", "allreduce",
    "iallgather", "allgather",
    "ialltoallv", "alltoallv",
    "iscatter", "scatter",
    "iscatterv", "scatterv",
    "iallgatherv", "allgatherv",
    "ireduce_scatter", "reduce_scatter",
]


def _endpoint(comm: RbcComm, tag: int) -> TransportEndpoint:
    """Endpoint for one collective instance on an RBC communicator.

    The messages travel in the point-to-point context of the underlying MPI
    communicator (RBC has no context of its own) and are separated from other
    traffic purely by ``tag`` — which is why overlapping RBC communicators
    must use distinct tags for simultaneous collectives.

    The endpoint depends only on the communicator's shared
    :class:`~repro.rbc.comm.RbcRange` and the tag, so it is interned on the
    transport under that pair: the members of the range, and repetition
    loops, look one up instead of rebuilding the adapter (and re-resolving
    the context/rank translation) on every collective call.
    """
    if comm._my_rank is None:
        raise ValueError("calling process is not a member of this RBC communicator")
    described = comm.range
    key = (described, tag)
    transport = comm.mpi_comm._env.transport
    ep = transport._interned.get(key)
    if ep is None:
        world_first = described.world_first
        ep = transport.intern(key, TransportEndpoint(
            transport,
            context=described.context,
            tag=tag,
            size=described.size,
            to_world=None if world_first is not None else described.to_world,
            world_affine=(None if world_first is None
                          else (world_first, described.world_stride)),
            from_world=described.from_world,
        ))
    return ep


def _start(comm: RbcComm, tag: int, name: str, *args,
           **options) -> RbcRequest:
    """Dispatch collective ``name`` on ``comm`` and ``tag``
    (:func:`~repro.collectives.dispatch.start`)."""
    env = comm.mpi_comm._env
    return RbcRequest(env, start(env, _endpoint(comm, tag), name, *args,
                                 **options))


def _request(comm: RbcComm, tag: int, schedule_fn, *args) -> RbcRequest:
    """The request driving ``schedule_fn(port, *args)`` on ``comm`` and ``tag``."""
    env = comm.mpi_comm._env
    return RbcRequest(
        env, CollectiveRequest(env, _endpoint(comm, tag), schedule_fn, *args))


# ---------------------------------------------------------------------------
# Broadcast.
# ---------------------------------------------------------------------------

def ibcast(comm: RbcComm, value: Any, root: int = 0,
           tag: Optional[int] = None, *, algorithm: Optional[str] = None,
           segment_words: int = DEFAULT_SEGMENT_WORDS) -> RbcRequest:
    """``rbc::Ibcast``: nonblocking broadcast from ``root``.

    ``algorithm`` selects the communication pattern: ``"binomial"`` (the
    topology-blind tree, optimal for small inputs on flat machines),
    ``"hierarchical"`` (the node-leader tree), ``"scatter_allgather"`` or
    ``"pipeline"`` for long vectors, or ``"auto"`` to let the root pick based
    on the payload size.  The default None resolves to ``"hierarchical"`` on
    machines whose placement spans several nodes and to ``"binomial"``
    everywhere else (flat machines keep their historical schedules
    bit-identically).
    """
    return _start(comm, _tags.BCAST_TAG if tag is None else tag, "bcast",
                  value, None, root, algorithm=algorithm,
                  segment_words=segment_words)


def bcast(comm: RbcComm, value: Any, root: int = 0, tag: Optional[int] = None,
          *, algorithm: Optional[str] = None,
          segment_words: int = DEFAULT_SEGMENT_WORDS):
    """``rbc::Bcast`` (generator): blocking broadcast; returns the value."""
    result = yield from ibcast(comm, value, root, tag, algorithm=algorithm,
                               segment_words=segment_words).wait()
    return result


# ---------------------------------------------------------------------------
# Reduce.
# ---------------------------------------------------------------------------

def ireduce(comm: RbcComm, value: Any, op=None, root: int = 0,
            tag: Optional[int] = None, *,
            algorithm: Optional[str] = None) -> RbcRequest:
    """``rbc::Ireduce``: nonblocking reduction to ``root``.

    ``algorithm`` is ``"binomial"`` (topology-blind tree),
    ``"hierarchical"`` (node-leader tree) or None — the default, which picks
    the node-leader tree on machines with a non-trivial placement and the
    binomial tree (bit-identically) everywhere else.
    """
    return _start(comm, _tags.REDUCE_TAG if tag is None else tag, "reduce",
                  value, op or SUM, root, algorithm=algorithm)


def reduce(comm: RbcComm, value: Any, op=None, root: int = 0,
           tag: Optional[int] = None, *, algorithm: Optional[str] = None):
    """``rbc::Reduce`` (generator): blocking reduction; root gets the result."""
    result = yield from ireduce(comm, value, op, root, tag,
                                algorithm=algorithm).wait()
    return result


# ---------------------------------------------------------------------------
# Prefix reductions.
# ---------------------------------------------------------------------------

def iscan(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None, *,
          algorithm: Optional[str] = None) -> RbcRequest:
    """``rbc::Iscan``: nonblocking inclusive prefix reduction.

    ``algorithm`` is ``"dissemination"`` (the flat ``log p``-round pattern),
    ``"hierarchical"`` (the segmented node-prefix scan: per-node scans, one
    scan over node totals, one seam message per node) or None — the default,
    which picks the segmented scan on machines with a non-trivial
    *contiguous* placement (node blocks in rank order; the segmented
    recombination needs it) and the dissemination scan everywhere else.
    """
    return _start(comm, _tags.SCAN_TAG if tag is None else tag, "scan",
                  value, op or SUM, algorithm=algorithm)


def scan(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None, *,
         algorithm: Optional[str] = None):
    """``rbc::Scan`` (generator): blocking inclusive prefix reduction."""
    result = yield from iscan(comm, value, op, tag,
                              algorithm=algorithm).wait()
    return result


def iexscan(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking exclusive prefix reduction (rank 0 receives None)."""
    return _request(comm, _tags.EXSCAN_TAG if tag is None else tag,
                    exscan_schedule, value, op or SUM)


def exscan(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None):
    """Blocking exclusive prefix reduction (generator)."""
    result = yield from iexscan(comm, value, op, tag).wait()
    return result


# ---------------------------------------------------------------------------
# Gather / Gatherv.
# ---------------------------------------------------------------------------

def igather(comm: RbcComm, value: Any, root: int = 0,
            tag: Optional[int] = None, *,
            algorithm: Optional[str] = None) -> RbcRequest:
    """``rbc::Igather``: nonblocking gather; root receives a list ordered by rank.

    ``algorithm`` is ``"binomial"`` (topology-blind tree), ``"hierarchical"``
    (node members -> node leader -> island leader -> root, one inter-node
    message per node) or None — the default, which picks the node-leader
    funnel on machines with a non-trivial placement and the binomial tree
    (bit-identically) everywhere else.
    """
    return _start(comm, _tags.GATHER_TAG if tag is None else tag, "gather",
                  value, None, root, algorithm=algorithm)


def gather(comm: RbcComm, value: Any, root: int = 0, tag: Optional[int] = None,
           *, algorithm: Optional[str] = None):
    """``rbc::Gather`` (generator): blocking gather."""
    result = yield from igather(comm, value, root, tag,
                                algorithm=algorithm).wait()
    return result


def igatherv(comm: RbcComm, value: Any, root: int = 0,
             tag: Optional[int] = None, *,
             algorithm: Optional[str] = None) -> RbcRequest:
    """``rbc::Igatherv``: like igather but contributions may differ in size
    (the gather schedules are size-agnostic, so only the tag differs)."""
    return _start(comm, _tags.GATHERV_TAG if tag is None else tag, "gather",
                  value, None, root, algorithm=algorithm)


def gatherv(comm: RbcComm, value: Any, root: int = 0, tag: Optional[int] = None,
            *, algorithm: Optional[str] = None):
    """``rbc::Gatherv`` (generator): blocking variable-size gather."""
    result = yield from igatherv(comm, value, root, tag,
                                 algorithm=algorithm).wait()
    return result


# ---------------------------------------------------------------------------
# Barrier.
# ---------------------------------------------------------------------------

def ibarrier(comm: RbcComm, tag: Optional[int] = None, *,
             algorithm: Optional[str] = None) -> RbcRequest:
    """``rbc::Ibarrier``: nonblocking barrier.

    ``algorithm`` is ``"dissemination"`` (the topology-blind default of flat
    machines), ``"hierarchical"`` (tree barrier along node leaders) or None.
    The default picks the hierarchical barrier only on machines whose nodes
    share NICs (``ports_per_node``): that is where the dissemination
    pattern's all-ranks-send-across-the-machine rounds collapse; with
    private per-rank ports the dissemination barrier's ``log p`` rounds beat
    the tree barrier's ``2 log p`` and remain the default.
    """
    return _start(comm, _tags.BARRIER_TAG if tag is None else tag, "barrier",
                  algorithm=algorithm)


def barrier(comm: RbcComm, tag: Optional[int] = None, *,
            algorithm: Optional[str] = None):
    """``rbc::Barrier`` (generator): blocking barrier."""
    yield from ibarrier(comm, tag, algorithm=algorithm).wait()


# ---------------------------------------------------------------------------
# Extensions used by the sorting algorithms / benchmarks.
# ---------------------------------------------------------------------------

def iallreduce(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None,
               *, algorithm: Optional[str] = None) -> RbcRequest:
    """Nonblocking allreduce.

    ``algorithm="reduce_bcast"`` reduces to rank 0 and broadcasts the result
    (optimal for small inputs on flat machines); ``"hierarchical"`` does the
    same along node leaders; ``"ring"`` uses the bandwidth-optimal ring
    reduce-scatter + allgather for long vectors; ``"auto"`` chooses based on
    the payload size (which every rank knows, because all ranks contribute
    the same amount).  The default None resolves to ``"hierarchical"`` on
    machines with a non-trivial placement and to ``"reduce_bcast"``
    (bit-identically) everywhere else.
    """
    return _start(comm, _tags.ALLREDUCE_TAG if tag is None else tag,
                  "allreduce", value, op or SUM, algorithm=algorithm)


def allreduce(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None,
              *, algorithm: Optional[str] = None):
    """Blocking allreduce (generator)."""
    result = yield from iallreduce(comm, value, op, tag, algorithm=algorithm).wait()
    return result


def iallgather(comm: RbcComm, value: Any, tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking allgather (gather to rank 0 + broadcast of the list)."""
    return _request(comm, _tags.ALLGATHER_TAG if tag is None else tag,
                    allgather_schedule, value)


def allgather(comm: RbcComm, value: Any, tag: Optional[int] = None):
    """Blocking allgather (generator)."""
    result = yield from iallgather(comm, value, tag).wait()
    return result


def ialltoallv(comm: RbcComm, payloads: Sequence[Any],
               tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking direct all-to-all exchange of per-destination payloads."""
    return _request(comm, _tags.ALLTOALLV_TAG if tag is None else tag,
                    alltoallv_schedule, payloads)


def alltoallv(comm: RbcComm, payloads: Sequence[Any], tag: Optional[int] = None):
    """Blocking direct all-to-all exchange (generator)."""
    result = yield from ialltoallv(comm, payloads, tag).wait()
    return result


def iscatter(comm: RbcComm, values: Optional[Sequence[Any]], root: int = 0,
             tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking binomial-tree scatter: ``values[i]`` (on the root) goes to rank ``i``."""
    return _request(comm, _tags.SCATTER_TAG if tag is None else tag,
                    scatter_schedule, values, root)


def scatter(comm: RbcComm, values: Optional[Sequence[Any]], root: int = 0,
            tag: Optional[int] = None):
    """Blocking scatter (generator); every rank returns its element."""
    result = yield from iscatter(comm, values, root, tag).wait()
    return result


def iscatterv(comm: RbcComm, values: Optional[Sequence[Any]], root: int = 0,
              tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking variable-size scatter (payloads may differ in size)."""
    return _request(comm, _tags.SCATTERV_TAG if tag is None else tag,
                    scatter_schedule, values, root)


def scatterv(comm: RbcComm, values: Optional[Sequence[Any]], root: int = 0,
             tag: Optional[int] = None):
    """Blocking variable-size scatter (generator)."""
    result = yield from iscatterv(comm, values, root, tag).wait()
    return result


def iallgatherv(comm: RbcComm, value: Any, tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking ring allgather (bandwidth-optimal for large contributions)."""
    return _request(comm, _tags.ALLGATHERV_TAG if tag is None else tag,
                    ring_allgather_schedule, value)


def allgatherv(comm: RbcComm, value: Any, tag: Optional[int] = None):
    """Blocking ring allgather (generator); returns the list of contributions."""
    result = yield from iallgatherv(comm, value, tag).wait()
    return result


def ireduce_scatter(comm: RbcComm, value: Any, op=None,
                    tag: Optional[int] = None) -> RbcRequest:
    """Nonblocking ring reduce-scatter: rank ``i`` obtains the reduction of block ``i``."""
    return _request(comm, _tags.REDUCE_SCATTER_TAG if tag is None else tag,
                    reduce_scatter_ring_schedule, value, op or SUM)


def reduce_scatter(comm: RbcComm, value: Any, op=None, tag: Optional[int] = None):
    """Blocking ring reduce-scatter (generator)."""
    result = yield from ireduce_scatter(comm, value, op, tag).wait()
    return result
