"""Collective-operation state machines.

Every collective algorithm is written as a *schedule*: a Python generator that
yields lists of pending point-to-point requests ("this state's data
dependencies") and finally returns the collective's local result.  A
:class:`CollectiveRequest` wraps a schedule and advances it whenever
``test()`` is called and all requests of the current state have completed —
this is precisely the progression-by-``Test`` model of Section V-D of the
paper (and of Hoefler & Lumsdaine's NBC library).

All rooted algorithms use binomial trees; scan uses a dissemination
(Hillis-Steele) pattern; barrier uses the dissemination algorithm.  These
patterns are "generic, not optimized for a specific network, but theoretically
optimal for small input sizes" — the same design choice as RBC.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..messaging import Request, RequestSet
from ..simulator.network import freeze_payload, is_frozen_payload, payload_words
from .endpoint import TransportEndpoint
from .topology import (
    binomial_children,
    binomial_parent,
    dissemination_rounds,
)

__all__ = [
    "CollectiveRequest",
    "bcast_schedule",
    "reduce_schedule",
    "scan_schedule",
    "exscan_schedule",
    "gather_schedule",
    "barrier_schedule",
    "allgather_schedule",
    "allreduce_schedule",
    "alltoallv_schedule",
]


class CollectiveRequest(Request):
    """Drives a collective schedule; completes when the schedule returns.

    The first state is executed eagerly on construction (the paper: "RBC
    creates a request object which contains a local state machine, executes
    its first state, and returns the request").  Subsequent states execute
    whenever ``test()`` finds all current data dependencies satisfied.

    ``label`` names the request's span in a traced run; by default it is the
    schedule generator's name without its ``_schedule`` suffix.
    """

    __slots__ = ("env", "_gen", "_pending", "_done", "_value",
                 "_obs", "_obs_t0", "_obs_label")

    def __init__(self, env, schedule, label: Optional[str] = None):
        self.env = env
        self._gen = schedule
        # The current state's completion tester: a single Request, a
        # RequestSet for multi-request states, or None.
        self._pending: Optional[Any] = None
        self._done = False
        self._value: Any = None
        # Tier attribution: this request IS the scalar tier.  The counter
        # is always on (one integer add per collective); the span fields
        # are populated only when the run is traced, and must be set
        # before the eager first state below — it can already complete.
        transport = getattr(env, "transport", None)
        obs = None
        if transport is not None:
            transport.scalar_collectives += 1
            obs = transport._obs
        self._obs = obs
        if obs is not None:
            self._obs_t0 = env.engine._now
            if label is None:
                code = getattr(schedule, "gi_code", None)
                label = code.co_name if code is not None else "collective"
                if label.endswith("_schedule"):
                    label = label[: -len("_schedule")]
            self._obs_label = label
        # Execute the first state eagerly so communication starts immediately.
        self.test()

    def test(self) -> bool:
        if self._done:
            return True
        pending = self._pending
        advance = None
        while True:
            # Re-test only the still-incomplete dependencies of the current
            # state (RequestSet preserves the relative order of pending
            # requests, keeping mailbox side effects deterministic; a
            # single-request state is polled directly, no set wrapper).
            if pending is not None and not pending.test():
                return False
            if advance is None:
                advance = self._gen.send
            try:
                nxt = advance(None)
            except StopIteration as stop:
                self._value = stop.value
                self._done = True
                self._pending = None
                obs = self._obs
                if obs is not None:
                    env = self.env
                    obs.spans.append(
                        (env.rank, self._obs_t0, env.engine._now,
                         "collective", self._obs_label + "@scalar"))
                return True
            if nxt:
                pending = self._pending = (
                    nxt[0] if len(nxt) == 1 else RequestSet(nxt))
            else:
                pending = self._pending = None

    def result(self) -> Any:
        return self._value


# ---------------------------------------------------------------------------
# Rooted collectives: broadcast, reduce, gather.
# ---------------------------------------------------------------------------

def bcast_schedule(ep: TransportEndpoint, value: Any, root: int):
    """Binomial-tree broadcast; every rank returns the broadcast value.

    Forwarding fast path: a non-root rank owns the array it just took off the
    wire outright, so it freezes it (read-only) and hands the *same* buffer to
    all of its children — the transport skips its defensive snapshot for
    frozen payloads.  Array-receiving ranks therefore return a read-only
    view of the single broadcast buffer; the root keeps its own (possibly
    writable) payload and sends one frozen copy down the tree.

    The payload is measured once, by the root; every forwarder passes on the
    count that arrived with the message.
    """
    size = ep.size
    if size == 1:
        return value
    vrank = (ep.rank - root) % size  # to_virtual, inlined (hot)
    parent = binomial_parent(vrank)
    if parent is not None:
        recv = ep.irecv((parent + root) % size)
        yield [recv]
        value = freeze_payload(recv.result())
        wire = value
        words = recv.result_words()
    else:
        wire = None  # snapshot the root payload lazily, once, for all children
    sends = []
    for child in binomial_children(vrank, size):
        if wire is None:
            if isinstance(value, np.ndarray) and not is_frozen_payload(value):
                wire = freeze_payload(value.copy())
            else:
                wire = value
            words = payload_words(value)
        sends.append(ep.isend(wire, (child + root) % size, words=words))
    if sends:
        yield sends
    return value


def reduce_schedule(ep: TransportEndpoint, value: Any, op: Callable[[Any, Any], Any],
                    root: int):
    """Binomial-tree reduction; the root returns the result, others None."""
    size = ep.size
    if size == 1:
        return value
    vrank = (ep.rank - root) % size  # to_virtual, inlined (hot)
    children = binomial_children(vrank, size)
    combine_delay = 0.0
    contributed = value
    if children:
        recvs = [ep.irecv((child + root) % size) for child in children]
        yield recvs
        for recv in recvs:
            contribution = recv.result()
            combine_delay += ep.op_delay(payload_words(contribution))
            value = op(value, contribution)
    parent = binomial_parent(vrank)
    if parent is not None:
        # A combined partial result is a fresh buffer this rank owns, so it
        # can go on the wire frozen (no transport snapshot).  The caller's
        # own contribution is never frozen — the application may reuse it.
        if value is not contributed:
            value = freeze_payload(value)
        send = ep.isend(value, (parent + root) % size,
                        local_delay=combine_delay)
        yield [send]
        return None
    return value


def gather_schedule(ep: TransportEndpoint, value: Any, root: int):
    """Binomial-tree gather; the root returns ``[value_0, ..., value_{p-1}]``.

    Values may have different sizes, so this doubles as gatherv.  The word
    count of the growing list is this rank's own pair plus the counts that
    arrived with the children's messages; no list is walked twice.
    """
    size = ep.size
    if size == 1:
        return [value]
    vrank = (ep.rank - root) % size  # to_virtual, inlined (hot)
    collected: list[tuple[int, Any]] = [(ep.rank, value)]
    children = binomial_children(vrank, size)
    recvs = [ep.irecv((child + root) % size) for child in children]
    if recvs:
        yield recvs
        for recv in recvs:
            collected.extend(recv.result())
    parent = binomial_parent(vrank)
    if parent is not None:
        words = payload_words(collected[0]) \
            + sum(recv.result_words() for recv in recvs)
        send = ep.isend(collected, (parent + root) % size, words=words)
        yield [send]
        return None
    collected.sort(key=lambda pair: pair[0])
    return [item for _, item in collected]


# ---------------------------------------------------------------------------
# Prefix operations.
# ---------------------------------------------------------------------------

def scan_schedule(ep: TransportEndpoint, value: Any, op: Callable[[Any, Any], Any]):
    """Inclusive prefix reduction (dissemination / Hillis-Steele pattern).

    Rank i returns ``op(x_0, ..., x_i)``.  O(alpha log p + beta l log p).
    """
    size = ep.size
    rank = ep.rank
    acc = value
    pending_delay = 0.0
    for distance in dissemination_rounds(size):
        state: list[Request] = []
        recv = None
        if rank + distance < size:
            # Partial prefixes (fresh op results) travel frozen; the caller's
            # own contribution (round 0) still gets the transport snapshot.
            if acc is not value:
                acc = freeze_payload(acc)
            state.append(ep.isend(acc, rank + distance, local_delay=pending_delay))
        if rank - distance >= 0:
            recv = ep.irecv(rank - distance)
            state.append(recv)
        pending_delay = 0.0
        if state:
            yield state
        if recv is not None:
            contribution = recv.result()
            pending_delay = ep.op_delay(payload_words(contribution))
            acc = op(contribution, acc)
    return acc


def exscan_schedule(ep: TransportEndpoint, value: Any, op: Callable[[Any, Any], Any]):
    """Exclusive prefix reduction: rank 0 returns None, rank i>0 returns
    ``op(x_0, ..., x_{i-1})``.

    Implemented as an inclusive scan followed by a shift by one rank, which
    keeps the algorithm correct for non-invertible operators.
    """
    size = ep.size
    rank = ep.rank
    inclusive = yield from scan_schedule(ep, value, op)
    state: list[Request] = []
    recv = None
    if rank + 1 < size:
        state.append(ep.isend(inclusive, rank + 1))
    if rank > 0:
        recv = ep.irecv(rank - 1)
        state.append(recv)
    if state:
        yield state
    if recv is None:
        return None
    return recv.result()


# ---------------------------------------------------------------------------
# Barrier.
# ---------------------------------------------------------------------------

def barrier_schedule(ep: TransportEndpoint):
    """Dissemination barrier: log2(p) rounds of zero-payload token exchange."""
    size = ep.size
    rank = ep.rank
    if size == 1:
        return None
    for distance in dissemination_rounds(size):
        send = ep.isend(None, (rank + distance) % size)
        recv = ep.irecv((rank - distance) % size)
        yield [send, recv]
    return None


# ---------------------------------------------------------------------------
# All-to-all style operations (built from the primitives above).
# ---------------------------------------------------------------------------

def allgather_schedule(ep: TransportEndpoint, value: Any):
    """Allgather = gather to rank 0 followed by a broadcast of the list."""
    gathered = yield from gather_schedule(ep, value, root=0)
    result = yield from bcast_schedule(ep, gathered, root=0)
    return result


def allreduce_schedule(ep: TransportEndpoint, value: Any,
                       op: Callable[[Any, Any], Any]):
    """Allreduce = reduce to rank 0 followed by a broadcast of the result."""
    reduced = yield from reduce_schedule(ep, value, op, root=0)
    result = yield from bcast_schedule(ep, reduced, root=0)
    return result


def alltoallv_schedule(ep: TransportEndpoint, payloads: Sequence[Any]):
    """Direct all-to-all exchange of per-destination payloads.

    ``payloads[j]`` is delivered to rank ``j``; the call returns a list where
    entry ``i`` is the payload received from rank ``i``.  Every rank sends to
    every other rank (possibly an empty payload), i.e. p - 1 message startups
    per rank — the behaviour the paper attributes to single-level sample sort.
    """
    size = ep.size
    rank = ep.rank
    if len(payloads) != size:
        raise ValueError(f"expected {size} payloads, got {len(payloads)}")
    received: list[Any] = [None] * size
    received[rank] = payloads[rank]
    if size == 1:
        return received
    state: list[Request] = []
    recvs: list[tuple[int, Request]] = []
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        state.append(ep.isend(payloads[dest], dest))
        recv = ep.irecv(src)
        recvs.append((src, recv))
        state.append(recv)
    yield state
    for src, recv in recvs:
        received[src] = recv.result()
    return received
