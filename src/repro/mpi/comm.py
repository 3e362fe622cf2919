"""Simulated MPI communicator: point-to-point, probing and collectives.

This is the "native MPI" layer the paper benchmarks RBC against.  It talks to
the simulated transport directly, separates communication contexts with the
communicator's context ID (plus an internal sub-channel and a synchronous
collective sequence counter, mirroring how real implementations keep
collectives and point-to-point traffic apart), and charges the vendor cost
model for nonblocking collectives and communicator creation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..collectives.dispatch import start
from ..collectives.endpoint import TransportEndpoint
from ..collectives.large import reduce_scatter_ring_schedule, scatter_schedule
from ..collectives.machines import (
    CollectiveRequest,
    allgather_schedule,
    alltoallv_schedule,
    exscan_schedule,
)
from ..simulator.network import ANY_SOURCE, ANY_TAG, payload_words
from ..simulator.process import RankEnv
from .datatypes import PROC_NULL, SUM
from .group import MpiGroup
from .request import CompletedRequest, RecvRequest, Request, SendRequest
from .status import Status
from .vendor import VendorModel

__all__ = ["MpiCommunicator"]


class MpiCommunicator:
    """A simulated MPI communicator (group + context id) as seen by one rank."""

    __slots__ = ("runtime", "group", "context_id", "_env", "_rank", "_size",
                 "_coll_seq", "_p2p_ctx")

    def __init__(self, runtime, group: MpiGroup, context_id):
        self.runtime = runtime
        self.group = group
        self.context_id = context_id
        self._env: RankEnv = runtime.env
        self._rank = group.rank_of(self._env.rank)
        self._size = group.size
        self._coll_seq = 0
        # One point-to-point context tuple per communicator, not per message.
        self._p2p_ctx = (context_id, "pt2pt")

    # ------------------------------------------------------------------ basics

    @property
    def env(self) -> RankEnv:
        return self._env

    @property
    def vendor(self) -> VendorModel:
        return self.runtime.vendor

    @property
    def rank(self) -> int:
        """This process's rank in the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the communicator."""
        return self._size

    def to_world(self, comm_rank: int) -> int:
        """Communicator rank -> world rank."""
        return self.group.translate(comm_rank)

    def from_world(self, world_rank: int) -> int:
        """World rank -> communicator rank (UNDEFINED if not a member)."""
        return self.group.rank_of(world_rank)

    def _p2p_context(self):
        return self._p2p_ctx

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"MpiCommunicator(rank={self._rank}, size={self._size}, "
            f"context={self.context_id!r})"
        )

    # -------------------------------------------------------------------- p2p

    def isend(self, payload: Any, dest: int, tag: int = 0, *,
              words: Optional[int] = None) -> Request:
        """Nonblocking send to communicator rank ``dest``."""
        if dest == PROC_NULL:
            return CompletedRequest(self._env)
        handle = self._env.transport.isend(
            src=self._env.rank,
            dst=self.to_world(dest),
            tag=tag,
            context=self._p2p_context(),
            payload=payload,
            words=words if words is not None else payload_words(payload),
        )
        return SendRequest(self._env, handle)

    def send(self, payload: Any, dest: int, tag: int = 0, *,
             words: Optional[int] = None):
        """Blocking send (generator): returns once the send buffer is free."""
        request = self.isend(payload, dest, tag, words=words)
        yield from request.wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the request's ``result()`` is the payload."""
        if source == PROC_NULL:
            return CompletedRequest(self._env, value=None,
                                    status=Status(source=PROC_NULL, tag=tag, count=0))
        source_world = ANY_SOURCE if source == ANY_SOURCE else self.to_world(source)
        return RecvRequest(
            self._env,
            self._env.transport,
            context=self._p2p_context(),
            source_world=source_world,
            tag=tag,
            translate_source=self.from_world,
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
             return_status: bool = False):
        """Blocking receive (generator). Returns the payload, or
        ``(payload, Status)`` when ``return_status`` is true."""
        request = self.irecv(source, tag)
        payload = yield from request.wait()
        if return_status:
            return payload, request.get_status()
        return payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking probe: ``(flag, Status or None)``."""
        source_world = ANY_SOURCE if source == ANY_SOURCE else self.to_world(source)
        message = self._env.transport.find_match(
            self._env.rank, source_world, tag, self._p2p_context())
        if message is None:
            return False, None
        status = Status(source=self.from_world(message.src), tag=message.tag,
                        count=message.words)
        return True, status

    def iprobe_where(self, tag: int, predicate):
        """Nonblocking probe for the earliest message on ``tag`` whose sender's
        *world rank* satisfies ``predicate``.

        This is the hook RBC uses for wildcard probes restricted to a range of
        processes: it never reports (and never consumes) messages from senders
        outside the range, so traffic of other RBC communicators sharing this
        MPI communicator is not disturbed.
        """
        best = self._env.transport.find_match_where(
            self._env.rank, tag, self._p2p_context(), predicate)
        if best is None:
            return False, None
        return True, Status(source=self.from_world(best.src), tag=best.tag,
                            count=best.words)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking probe (generator): returns the Status of a ready message."""
        result: list[Optional[Status]] = [None]

        def ready() -> bool:
            flag, status = self.iprobe(source, tag)
            if flag:
                result[0] = status
            return flag

        yield from self._env.wait_until(ready)
        return result[0]

    def sendrecv(self, payload: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        """Combined blocking send+receive (generator); returns the received payload."""
        send_request = self.isend(payload, dest, sendtag)
        recv_request = self.irecv(source, recvtag)
        yield from self._env.wait_until(
            lambda: send_request.test() and recv_request.test())
        return recv_request.result()

    # -------------------------------------------------------------- collectives

    def _collective_endpoint(self, operation: str, *,
                             apply_vendor: bool = True) -> TransportEndpoint:
        """Endpoint for one collective invocation.

        Every invocation gets a fresh sequence number in its context so that
        simultaneously outstanding nonblocking collectives on the same
        communicator cannot interfere — the synchronous "tag counter" approach
        the paper cites from Hoefler & Lumsdaine.  It stays synchronous
        because MPI requires every member to call collectives in the same
        order, so the members of one invocation look up — and share — one
        endpoint interned on the transport.
        """
        seq = self._coll_seq
        self._coll_seq += 1
        if apply_vendor:
            vendor = self.runtime.vendor
            word_factor = vendor.word_factor(operation)
            per_message = vendor.collective_message_overhead
        else:
            word_factor, per_message = 1.0, 0.0
        group = self.group
        transport = self._env.transport
        key = ("coll", self.context_id, seq, group.world_key(), word_factor,
               per_message)
        ep = transport._interned.get(key)
        if ep is None:
            # The endpoint's to_world keeps the group alive while the entry
            # exists, which its world_key may require.
            ep = transport.intern(key, TransportEndpoint(
                transport,
                context=(self.context_id, "coll", seq),
                tag=0,
                size=self._size,
                to_world=group.translate,
                word_cost_factor=word_factor,
                per_message_delay=per_message,
                world_affine=group.affine_world_map(),
                from_world=group.rank_of,
            ))
        return ep

    def _start(self, name: str, value: Any = None, op=None,
               root: int = 0) -> Request:
        """Start one of the six dispatched collectives.

        Production MPIs ship SMP-optimised trees, so a topology-blind
        baseline would flatter RBC on hierarchical machines: vendors whose
        model declares ``VendorModel.node_aware`` (Intel, IBM) get the
        node-leader schedules there, the generic vendor never does.
        """
        return start(self._env, self._collective_endpoint(name), name, value,
                     op, root, node_aware=self.vendor.node_aware)

    def _request(self, operation: str, schedule_fn,
                 *args) -> CollectiveRequest:
        """The request driving ``schedule_fn(port, *args)`` for
        ``operation`` event by event (the undispatched collectives)."""
        return CollectiveRequest(self._env,
                                 self._collective_endpoint(operation),
                                 schedule_fn, *args)

    # --- nonblocking ---------------------------------------------------------

    def ibcast(self, value: Any, root: int = 0) -> Request:
        return self._start("bcast", value, None, root)

    def ireduce(self, value: Any, op=SUM, root: int = 0) -> Request:
        return self._start("reduce", value, op, root)

    def iallreduce(self, value: Any, op=SUM) -> Request:
        return self._start("allreduce", value, op)

    def iscan(self, value: Any, op=SUM) -> Request:
        return self._start("scan", value, op)

    def iexscan(self, value: Any, op=SUM) -> CollectiveRequest:
        return self._request("exscan", exscan_schedule, value, op)

    def igather(self, value: Any, root: int = 0) -> Request:
        return self._start("gather", value, None, root)

    def igatherv(self, value: Any, root: int = 0) -> Request:
        # Variable-size gather shares the implementation of igather.
        return self.igather(value, root)

    def iallgather(self, value: Any) -> CollectiveRequest:
        return self._request("allgather", allgather_schedule, value)

    def ialltoallv(self, payloads: Sequence[Any]) -> CollectiveRequest:
        return self._request("alltoallv", alltoallv_schedule, payloads)

    def iscatter(self, values: Optional[Sequence[Any]], root: int = 0) -> CollectiveRequest:
        return self._request("scatter", scatter_schedule, values, root)

    def iscatterv(self, values: Optional[Sequence[Any]], root: int = 0) -> CollectiveRequest:
        # Variable-size scatter shares the implementation of iscatter.
        return self.iscatter(values, root)

    def ireduce_scatter(self, value: Any, op=SUM) -> CollectiveRequest:
        return self._request("reduce_scatter", reduce_scatter_ring_schedule,
                             value, op)

    def ibarrier(self) -> Request:
        return self._start("barrier")

    # --- blocking wrappers ---------------------------------------------------

    def bcast(self, value: Any, root: int = 0):
        result = yield from self.ibcast(value, root).wait()
        return result

    def reduce(self, value: Any, op=SUM, root: int = 0):
        result = yield from self.ireduce(value, op, root).wait()
        return result

    def allreduce(self, value: Any, op=SUM):
        result = yield from self.iallreduce(value, op).wait()
        return result

    def scan(self, value: Any, op=SUM):
        result = yield from self.iscan(value, op).wait()
        return result

    def exscan(self, value: Any, op=SUM):
        result = yield from self.iexscan(value, op).wait()
        return result

    def gather(self, value: Any, root: int = 0):
        result = yield from self.igather(value, root).wait()
        return result

    def gatherv(self, value: Any, root: int = 0):
        result = yield from self.igatherv(value, root).wait()
        return result

    def allgather(self, value: Any):
        result = yield from self.iallgather(value).wait()
        return result

    def alltoallv(self, payloads: Sequence[Any]):
        result = yield from self.ialltoallv(payloads).wait()
        return result

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0):
        result = yield from self.iscatter(values, root).wait()
        return result

    def scatterv(self, values: Optional[Sequence[Any]], root: int = 0):
        result = yield from self.iscatterv(values, root).wait()
        return result

    def reduce_scatter(self, value: Any, op=SUM):
        result = yield from self.ireduce_scatter(value, op).wait()
        return result

    def barrier(self):
        yield from self.ibarrier().wait()

    # ---------------------------------------------------- communicator creation

    def create_group(self, group: MpiGroup, tag: int = 0):
        """Blocking ``MPI_Comm_create_group`` (generator over group members)."""
        from .comm_create import comm_create_group
        comm = yield from comm_create_group(self, group, tag)
        return comm

    def split(self, color: int, key: int = 0):
        """Blocking ``MPI_Comm_split`` (generator over *all* members)."""
        from .comm_create import comm_split
        comm = yield from comm_split(self, color, key)
        return comm

    def dup(self):
        """Blocking communicator duplication (same group, fresh context id)."""
        from .comm_create import comm_dup
        comm = yield from comm_dup(self)
        return comm

    def free(self) -> None:
        """Release this communicator's context id (local bookkeeping)."""
        self.runtime.release_context(self.context_id)
