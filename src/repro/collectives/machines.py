"""Collective-operation state machines.

Every collective algorithm is written as a *schedule*: a Python generator
that posts the messages of one state, yields, and is resumed once that
state's data dependencies are satisfied; what it finally returns is the
collective's local result.  A :class:`CollectiveRequest` drives a schedule
and advances it whenever ``test()`` is called and the current state has
completed — this is precisely the progression-by-``Test`` model of Section
V-D of the paper (and of Hoefler & Lumsdaine's NBC library).

The port protocol
-----------------
The request is also the *port* its schedule talks to — the schedule function
is called as ``schedule_fn(port, *args)`` and may use

* ``port.rank`` / ``port.size`` — this process and the group, in the
  group-local ranks the schedule speaks.  The endpoint is rank-free and
  shared by every member, so ``port.rank`` is derived once, when the request
  is built, from the caller's ``env``
  (:meth:`~repro.collectives.endpoint.TransportEndpoint.rank_of`);
* ``port.env`` — the calling rank's environment;
* ``port.isend(payload, dest, local_delay=0.0, words=None)`` — post a message
  to group rank ``dest`` (rank translation and the vendor's word / overhead
  scaling happen here, the message crosses ``Transport.post_send``);
* ``port.irecv(source)`` — register a receive from group rank ``source`` and
  get its slot index, counted from 0 within the state;
* a bare ``yield`` — end the state.  The schedule resumes when every receive
  of the state has matched and every send of the state has left this rank's
  send port;
* ``port.msgs`` — after the resume, the matched
  :class:`~repro.simulator.network.Message` of each slot (``.payload``,
  ``.payload_count``); it stays valid until the schedule resumes from the
  next state that posted receives;
* ``port.op_delay(words)`` — local time of one reduction-operator
  application, to be charged as ``local_delay`` of the next send.

Sends and receives posted since the last ``yield`` form one state, whichever
(sub-)schedule posted them; schedules compose with ``yield from``.  No
request object exists per message: the port keeps the exact ``(context,
source world rank, tag)`` key of every open slot and polls the rank's
mailbox with it in posting order, and of the sends it keeps one number, the
latest time any of them leaves the send port.

The sender wake-up
------------------
Completion of a send is purely time-based, so a rank that has to wait for
one needs an engine event at that time.  The port arms **one** per state, at
the state's latest leave time, the moment the schedule yields (if that time
is still in the future) — the point where the first poll of a send used to
arm it.  Earlier sends of the state need none: a wake-up before the last one
has left finds the state incomplete whatever it polls, and arriving messages
wake the rank on their own.  Deferring the wake-up until the state's
receives are in would save more events but reorders the posts of ranks that
become ready at one timestamp, and simulated times move; it is not done.

All rooted algorithms use binomial trees; scan uses a dissemination
(Hillis-Steele) pattern; barrier uses the dissemination algorithm.  These
patterns are "generic, not optimized for a specific network, but theoretically
optimal for small input sizes" — the same design choice as RBC.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..messaging import Request
from ..simulator.network import freeze_payload, is_frozen_payload, payload_words
from .endpoint import TransportEndpoint
from .topology import (
    binomial_children,
    binomial_parent,
    dissemination_rounds,
)

__all__ = [
    "CollectiveRequest",
    "SCHEDULES",
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
    """Drives ``schedule_fn(self, *args)`` for the rank of ``env`` on ``ep``;
    completes when the schedule returns.

    The first state is executed eagerly on construction (the paper: "RBC
    creates a request object which contains a local state machine, executes
    its first state, and returns the request").  Subsequent states execute
    whenever ``test()`` finds the current one complete.  The module docstring
    describes what the schedule may ask of the request.

    ``label`` names the request's span in a traced run; by default it is the
    schedule function's name without its ``_schedule`` suffix.

    While the schedule is suspended, it and the request refer to each other
    (the generator's frame holds its port); the request drops the generator
    when the schedule returns, so only a request abandoned half-way — a
    failed or deadlocked run — is left to the cyclic collector.
    """

    __slots__ = ("env", "ep", "rank", "size", "msgs", "_gen", "_done",
                 "_value", "_slots", "_waiting", "_leave", "_mailbox",
                 "_obs", "_obs_t0", "_obs_label")

    def __init__(self, env, ep: TransportEndpoint, schedule_fn, *args,
                 label: Optional[str] = None):
        self.env = env
        self.ep = ep
        self.rank = ep.rank_of(env.rank)
        self.size = ep.size
        self.msgs: Optional[list] = None
        self._done = False
        self._value: Any = None
        # The state being posted or waited for: ``_slots`` holds a match key
        # per receive, replaced by its message once matched; ``_waiting`` the
        # indices still holding a key (None: none); ``_leave`` the latest
        # time a send of the state leaves this rank's send port.
        self._slots: list = []
        self._waiting: Optional[list] = None
        self._leave = 0.0
        self._mailbox = None
        # Tier attribution: this request IS the scalar tier.  The counter
        # is always on (one integer add per collective); the span fields
        # are populated only when the run is traced, and must be set
        # before the eager first state below — it can already complete.
        transport = ep.transport
        transport.scalar_collectives += 1
        obs = self._obs = transport._obs
        if obs is not None:
            self._obs_t0 = env.engine._now
            if label is None:
                label = schedule_fn.__name__
                if label.endswith("_schedule"):
                    label = label[: -len("_schedule")]
            self._obs_label = label
        self._gen = schedule_fn(self, *args)
        # Execute the first state eagerly so communication starts immediately.
        self.test()

    # ------------------------------------------------------------- the port

    def isend(self, payload, dest: int, local_delay: float = 0.0,
              words: Optional[int] = None) -> None:
        """Post ``payload`` to group rank ``dest`` as part of this state.

        ``words`` is the payload's word count when the caller already knows
        it (a forwarder read it off the message it received); it travels on
        with the message unscaled, whatever the wire is charged.
        """
        ep = self.ep
        if words is None:
            words = payload_words(payload)
        factor = ep.word_cost_factor
        affine = ep._affine
        # The bounds check keeps the fail-loud behaviour of to_world for
        # out-of-range group ranks (a schedule bug must not silently deliver
        # into an unrelated rank's mailbox).
        leave = ep.transport.post_send(
            self.env.rank,
            (affine[0] + dest * affine[1])
            if affine is not None and 0 <= dest < ep.size
            else ep.to_world(dest),
            ep.tag,
            ep.context,
            payload,
            words if factor == 1.0 else int(round(words * factor)),
            local_delay + ep.per_message_delay,
            words,
        )
        if leave > self._leave:
            self._leave = leave

    def irecv(self, source: int) -> int:
        """Register a receive from group rank ``source``; returns its slot."""
        ep = self.ep
        affine = ep._affine
        slots = self._slots
        slots.append((
            ep.context,
            (affine[0] + source * affine[1])
            if affine is not None and 0 <= source < ep.size
            else ep.to_world(source),
            ep.tag))
        return len(slots) - 1

    def op_delay(self, words: int) -> float:
        """Local time to apply a reduction operator to ``words`` words."""
        return self.env.params.compute_cost(words)

    # ---------------------------------------------------------- the request

    def test(self) -> bool:
        if self._done:
            return True
        now = self.env.engine._now
        waiting = self._waiting
        while True:
            if waiting is not None:
                # Poll the still-empty slots in posting order, compacting
                # the index list in place: a filled slot is never polled
                # again, and mailbox side effects stay deterministic.
                slots = self._slots
                take = self._mailbox.take_exact
                write = 0
                for index in waiting:
                    message = take(slots[index])
                    if message is None:
                        waiting[write] = index
                        write += 1
                    else:
                        slots[index] = message
                if write:
                    del waiting[write:]
                    return False
                waiting = self._waiting = None
                self.msgs = slots
                self._slots = []
            if self._leave > now:
                return False
            self._leave = 0.0
            try:
                self._gen.send(None)
            except StopIteration as stop:
                self._value = stop.value
                self._done = True
                self._gen = self.msgs = None
                obs = self._obs
                if obs is not None:
                    env = self.env
                    obs.spans.append(
                        (env.rank, self._obs_t0, now,
                         "collective", self._obs_label + "@scalar"))
                return True
            # The schedule yielded: a new state.  This is its first poll, so
            # the one sender wake-up of the state is armed here.
            leave = self._leave
            if leave > now:
                transport = self.ep.transport
                transport.engine.schedule_call_at(
                    leave, transport._notify_entry, self.env.rank)
            slots = self._slots
            if slots:
                waiting = self._waiting = list(range(len(slots)))
                if self._mailbox is None:
                    self._mailbox = self.ep.transport.mailbox_of(
                        self.env.rank)

    def peek(self) -> bool:
        return self._done

    def result(self) -> Any:
        return self._value


# ---------------------------------------------------------------------------
# Rooted collectives: broadcast, reduce, gather.
# ---------------------------------------------------------------------------

def bcast_schedule(port, value: Any, root: int):
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
    size = port.size
    if size == 1:
        return value
    vrank = (port.rank - root) % size  # to_virtual, inlined (hot)
    parent = binomial_parent(vrank)
    if parent is not None:
        slot = port.irecv((parent + root) % size)
        yield
        message = port.msgs[slot]
        value = freeze_payload(message.payload)
        wire = value
        words = message.payload_count
    else:
        wire = None  # snapshot the root payload lazily, once, for all children
    children = binomial_children(vrank, size)
    for child in children:
        if wire is None:
            if isinstance(value, np.ndarray) and not is_frozen_payload(value):
                wire = freeze_payload(value.copy())
            else:
                wire = value
            words = payload_words(value)
        port.isend(wire, (child + root) % size, 0.0, words)
    if children:
        yield
    return value


def reduce_schedule(port, value: Any, op: Callable[[Any, Any], Any],
                    root: int):
    """Binomial-tree reduction; the root returns the result, others None."""
    size = port.size
    if size == 1:
        return value
    vrank = (port.rank - root) % size  # to_virtual, inlined (hot)
    children = binomial_children(vrank, size)
    combine_delay = 0.0
    contributed = value
    if children:
        slots = [port.irecv((child + root) % size) for child in children]
        yield
        msgs = port.msgs
        for slot in slots:
            contribution = msgs[slot].payload
            combine_delay += port.op_delay(payload_words(contribution))
            value = op(value, contribution)
    parent = binomial_parent(vrank)
    if parent is not None:
        # A combined partial result is a fresh buffer this rank owns, so it
        # can go on the wire frozen (no transport snapshot).  The caller's
        # own contribution is never frozen — the application may reuse it.
        if value is not contributed:
            value = freeze_payload(value)
        port.isend(value, (parent + root) % size, combine_delay)
        yield
        return None
    return value


def gather_schedule(port, value: Any, root: int):
    """Binomial-tree gather; the root returns ``[value_0, ..., value_{p-1}]``.

    Values may have different sizes, so this doubles as gatherv.  The word
    count of the growing list is this rank's own pair plus the counts that
    arrived with the children's messages; no list is walked twice.
    """
    size = port.size
    if size == 1:
        return [value]
    vrank = (port.rank - root) % size  # to_virtual, inlined (hot)
    collected: list[tuple[int, Any]] = [(port.rank, value)]
    children = binomial_children(vrank, size)
    words = 0
    if children:
        slots = [port.irecv((child + root) % size) for child in children]
        yield
        msgs = port.msgs
        for slot in slots:
            message = msgs[slot]
            collected.extend(message.payload)
            words += message.payload_count
    parent = binomial_parent(vrank)
    if parent is not None:
        port.isend(collected, (parent + root) % size, 0.0,
                   words + payload_words(collected[0]))
        yield
        return None
    collected.sort(key=lambda pair: pair[0])
    return [item for _, item in collected]


# ---------------------------------------------------------------------------
# Prefix operations.
# ---------------------------------------------------------------------------

def scan_schedule(port, value: Any, op: Callable[[Any, Any], Any]):
    """Inclusive prefix reduction (dissemination / Hillis-Steele pattern).

    Rank i returns ``op(x_0, ..., x_i)``.  O(alpha log p + beta l log p).
    """
    size = port.size
    rank = port.rank
    acc = value
    pending_delay = 0.0
    for distance in dissemination_rounds(size):
        sends = rank + distance < size
        if sends:
            # Partial prefixes (fresh op results) travel frozen; the caller's
            # own contribution (round 0) still gets the transport snapshot.
            if acc is not value:
                acc = freeze_payload(acc)
            port.isend(acc, rank + distance, pending_delay)
        pending_delay = 0.0
        if rank >= distance:
            slot = port.irecv(rank - distance)
            yield
            contribution = port.msgs[slot].payload
            pending_delay = port.op_delay(payload_words(contribution))
            acc = op(contribution, acc)
        elif sends:
            yield
    return acc


def exscan_schedule(port, value: Any, op: Callable[[Any, Any], Any]):
    """Exclusive prefix reduction: rank 0 returns None, rank i>0 returns
    ``op(x_0, ..., x_{i-1})``.

    Implemented as an inclusive scan followed by a shift by one rank, which
    keeps the algorithm correct for non-invertible operators.
    """
    size = port.size
    rank = port.rank
    inclusive = yield from scan_schedule(port, value, op)
    sends = rank + 1 < size
    if sends:
        port.isend(inclusive, rank + 1)
    if rank > 0:
        slot = port.irecv(rank - 1)
        yield
        return port.msgs[slot].payload
    if sends:
        yield
    return None


# ---------------------------------------------------------------------------
# Barrier.
# ---------------------------------------------------------------------------

def barrier_schedule(port):
    """Dissemination barrier: log2(p) rounds of zero-payload token exchange."""
    size = port.size
    rank = port.rank
    if size == 1:
        return None
    for distance in dissemination_rounds(size):
        port.isend(None, (rank + distance) % size, 0.0, 0)
        port.irecv((rank - distance) % size)
        yield
    return None


# ---------------------------------------------------------------------------
# All-to-all style operations (built from the primitives above).
# ---------------------------------------------------------------------------

def allgather_schedule(port, value: Any):
    """Allgather = gather to rank 0 followed by a broadcast of the list."""
    gathered = yield from gather_schedule(port, value, root=0)
    result = yield from bcast_schedule(port, gathered, root=0)
    return result


def allreduce_schedule(port, value: Any, op: Callable[[Any, Any], Any]):
    """Allreduce = reduce to rank 0 followed by a broadcast of the result."""
    reduced = yield from reduce_schedule(port, value, op, root=0)
    result = yield from bcast_schedule(port, reduced, root=0)
    return result


def alltoallv_schedule(port, payloads: Sequence[Any]):
    """Direct all-to-all exchange of per-destination payloads.

    ``payloads[j]`` is delivered to rank ``j``; the call returns a list where
    entry ``i`` is the payload received from rank ``i``.  Every rank sends to
    every other rank (possibly an empty payload), i.e. p - 1 message startups
    per rank — the behaviour the paper attributes to single-level sample sort.
    """
    size = port.size
    rank = port.rank
    if len(payloads) != size:
        raise ValueError(f"expected {size} payloads, got {len(payloads)}")
    received: list[Any] = [None] * size
    received[rank] = payloads[rank]
    if size == 1:
        return received
    sources = []
    for offset in range(1, size):
        dest = (rank + offset) % size
        src = (rank - offset) % size
        port.isend(payloads[dest], dest)
        sources.append((src, port.irecv(src)))
    yield
    msgs = port.msgs
    for src, slot in sources:
        received[src] = msgs[slot].payload
    return received


#: Operation (or schedule-IR stage kind) -> its flat schedule behind the
#: uniform ``(port, value, op, root)`` signature: what dispatch runs for a
#: flat operation and the IR interpreter for one stage.
SCHEDULES = {
    "bcast": lambda port, value, op, root: bcast_schedule(port, value, root),
    "reduce": reduce_schedule,
    "allreduce": lambda port, value, op, root:
        allreduce_schedule(port, value, op),
    "scan": lambda port, value, op, root: scan_schedule(port, value, op),
    "gather": lambda port, value, op, root: gather_schedule(port, value, root),
    "barrier": lambda port, value, op, root: barrier_schedule(port),
}
