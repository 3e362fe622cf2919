"""Single-ported network model and message transport.

The model follows Section II of the paper: sending a message of ``l`` machine
words costs ``alpha + l * beta``, where ``(alpha, beta)`` come from the
cluster's pluggable :class:`~repro.simulator.costmodel.CostModel` — flat for
the classic machine, per-link-tier for hierarchical machines.  Every simulated
process owns one send port and one receive port; transfers are serialised on
both, so many-to-one communication patterns (e.g. the worst case of the greedy
message assignment in Janus Quicksort) pay for every startup individually,
just like on a real machine.

Time is measured in microseconds; the default parameters are loosely
calibrated to the SuperMUC thin-node island used in the paper (InfiniBand
FDR10), but only *relative* behaviour matters for the reproduction.

Mailboxes are *indexed*: arrived-but-unreceived messages are kept in FIFO
deques keyed by ``(context, src, tag)``, so exact-envelope matching is O(1)
and wildcard matching is O(active keys) instead of O(pending messages).
:class:`LinearScanMailbox` preserves the original O(pending) implementation:
the oracle cluster runs on it and the transport microbenchmark measures it.

Memory model at scale: per-rank mailboxes are *lazily materialised*
(:class:`LazyMailboxes`) — a rank's mailbox exists only once a message is
delivered to it or a receive is posted on it, so a p=2^15 simulation whose
collectives are priced in lockstep (no per-message traffic at all) allocates
no mailboxes.  :class:`Message` objects are pooled on the transport
(``release_message`` / a free list capped at :data:`MESSAGE_POOL_MAX`), with
:meth:`~repro.messaging.RecvRequest.take` recycling drained messages
automatically.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from .costmodel import CostModel, HierarchicalParams, NetworkParams, Placement
from .engine import Engine
from .trace import Tracer

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CostModel",
    "NetworkParams",
    "HierarchicalParams",
    "Placement",
    "Message",
    "SendHandle",
    "IndexedMailbox",
    "LinearScanMailbox",
    "LazyMailboxes",
    "MESSAGE_POOL_MAX",
    "Transport",
    "freeze_payload",
    "is_frozen_payload",
    "payload_words",
]

#: Wildcard source rank for matching (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard tag for matching (mirrors ``MPI_ANY_TAG``).
ANY_TAG = -1


def payload_words(payload: Any) -> int:
    """Number of machine words a payload occupies on the wire.

    NumPy arrays count their elements (the paper's unit: one element equals
    one machine word), scalars count as one word, and generic containers count
    their length.  ``None`` (e.g. a barrier token) costs zero words.
    """
    if payload is None:
        return 0
    cls = payload.__class__
    if cls is int or cls is float:  # plain scalars, the hottest non-array case
        return 1
    if cls is np.ndarray:
        return int(payload.size)
    if cls is tuple or cls is list:  # e.g. (slot_start, chunk) exchange pairs
        total = 0
        for item in payload:
            total += payload_words(item)
        return total
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (tuple, list)):
        return sum(payload_words(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_words(v) + 1 for v in payload.values())
    return 1


def is_frozen_payload(array: np.ndarray) -> bool:
    """True when no writable alias of ``array``'s memory can exist.

    The transport snapshots mutable ndarray payloads before they go on the
    wire (MPI lets the application reuse its send buffer once the send
    completes locally).  An array is exempt from that snapshot only when its
    whole base chain is read-only NumPy memory: then neither the sender nor
    anyone it shares the buffer with can change the bytes in flight.  A
    read-only *view of a writable base* is not enough — the owner of the base
    could still mutate it — so it reports False.
    """
    while True:
        if array.flags.writeable:
            return False
        base = array.base
        if base is None:
            return True
        if not isinstance(base, np.ndarray):
            return False
        array = base


def freeze_payload(payload: Any) -> Any:
    """Mark an exclusively-owned ndarray read-only; return the payload.

    Collective state machines call this on buffers they own outright — a
    message just taken from the transport, or a freshly computed reduction —
    before forwarding them, so :meth:`Transport.post_send` can skip its
    defensive copy (:func:`is_frozen_payload`).  Arrays that are views
    (``base is not None``) are left untouched: freezing the view would not
    freeze the writable base, so the copy must still happen for them.
    Non-array payloads pass through unchanged.
    """
    if isinstance(payload, np.ndarray) and payload.base is None \
            and payload.flags.writeable:
        payload.flags.writeable = False
    return payload


class Message:
    """A message in flight or waiting in a destination mailbox."""

    __slots__ = (
        "seq",
        "src",
        "dst",
        "tag",
        "context",
        "payload",
        "words",
        "payload_count",
        "send_time",
        "arrival_time",
    )

    def __init__(self, seq, src, dst, tag, context, payload, words,
                 payload_count, send_time, arrival_time):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.tag = tag
        self.context = context
        self.payload = payload
        # ``words`` is what the wire was charged for; ``payload_count`` is
        # the sender's word count of the payload itself (they differ inside
        # vendor collectives, which scale and round wire words).
        self.words = words
        self.payload_count = payload_count
        self.send_time = send_time
        self.arrival_time = arrival_time

    def matches(self, source: int, tag: int, context) -> bool:
        if self.context != context:
            return False
        if source != ANY_SOURCE and self.src != source:
            return False
        if tag != ANY_TAG and self.tag != tag:
            return False
        return True

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.seq} {self.src}->{self.dst} tag={self.tag} "
            f"ctx={self.context} words={self.words})"
        )


class SendHandle:
    """Completion handle of a (non)blocking send.

    The send buffer is considered free (the handle completes) once the message
    has fully left the sender's send port.

    The sender's wake-up event is armed *lazily*: only a handle that is polled
    while still incomplete schedules the engine event that will wake the
    sending rank at ``complete_time``.  A send that is never waited on (or
    first polled after it completed) costs no engine event at all.  This is
    safe because completion is purely time-based: a blocked predicate can only
    start depending on a send by polling it — and that poll arms the wake-up.
    """

    __slots__ = ("complete_time", "_engine", "_wake_fn", "_wake_arg", "_armed")

    def __init__(self, engine: Engine, complete_time: float,
                 wake_fn: Optional[Callable[[Any], None]] = None,
                 wake_arg: Any = None):
        self._engine = engine
        self.complete_time = complete_time
        self._wake_fn = wake_fn
        self._wake_arg = wake_arg
        self._armed = wake_fn is None

    # Request-protocol methods: the handle doubles as the completion request
    # of the collective state machines, which poll sends but never inspect
    # payloads or statuses — no per-send wrapper object needed.  ``done`` is
    # an alias so the single lazy-arm implementation cannot diverge.
    def test(self) -> bool:
        if self._engine._now >= self.complete_time:
            return True
        if not self._armed:
            self._armed = True
            self._engine.schedule_call_at(self.complete_time,
                                          self._wake_fn, self._wake_arg)
        return False

    done = property(test)

    def result(self) -> None:
        return None


# ---------------------------------------------------------------------------
# Mailboxes.
# ---------------------------------------------------------------------------

class IndexedMailbox:
    """Arrived messages of one destination, indexed by ``(context, src, tag)``.

    Each key maps to a FIFO deque.  Deliveries per key happen in ``seq``
    order (per ordered sender/receiver pair both the send port and the
    receive port are drained monotonically, and the engine breaks timestamp
    ties by insertion order), so the head of every deque is that key's
    earliest message and matching never needs to scan past the heads.
    Empty deques are removed, keeping wildcard matching O(active keys).
    """

    __slots__ = ("_queues", "_count")

    def __init__(self):
        self._queues: dict = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, message: Message) -> None:
        key = (message.context, message.src, message.tag)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        queue.append(message)
        self._count += 1

    def _pop_head(self, key) -> Message:
        queue = self._queues[key]
        message = queue.popleft()
        if not queue:
            del self._queues[key]
        self._count -= 1
        return message

    def take_exact(self, key) -> Optional[Message]:
        """Pop the head message of exact envelope ``(context, src, tag)``.

        Wildcard-free fast path used by specific-source receives: one dict
        probe, no envelope normalisation.  Deliberately restates
        :meth:`_pop_head` instead of delegating — ``get`` followed by
        ``_pop_head`` would probe the dict twice on the hottest poll in the
        simulator; keep the two bodies in sync.
        """
        queue = self._queues.get(key)
        if queue is None:
            return None
        message = queue.popleft()
        if not queue:
            del self._queues[key]
        self._count -= 1
        return message

    def _peek_key(self, source: int, tag: int, context):
        """``(key, head message)`` of the earliest match, or ``None``."""
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (context, source, tag)
            queue = self._queues.get(key)
            if queue is None:
                return None
            return key, queue[0]
        best = None
        best_key = None
        for key, queue in self._queues.items():
            ctx, src, tg = key
            if ctx != context:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and tg != tag:
                continue
            head = queue[0]
            if best is None or head.seq < best.seq:
                best = head
                best_key = key
        if best is None:
            return None
        return best_key, best

    def find(self, source: int, tag: int, context) -> Optional[Message]:
        found = self._peek_key(source, tag, context)
        return found[1] if found is not None else None

    def take(self, source: int, tag: int, context) -> Optional[Message]:
        found = self._peek_key(source, tag, context)
        if found is None:
            return None
        return self._pop_head(found[0])

    def _peek_key_where(self, tag: int, context,
                        predicate: Callable[[int], bool]):
        best = None
        best_key = None
        for key, queue in self._queues.items():
            ctx, src, tg = key
            if ctx != context:
                continue
            if tag != ANY_TAG and tg != tag:
                continue
            if not predicate(src):
                continue
            head = queue[0]
            if best is None or head.seq < best.seq:
                best = head
                best_key = key
        if best is None:
            return None
        return best_key, best

    def find_where(self, tag: int, context,
                   predicate: Callable[[int], bool]) -> Optional[Message]:
        found = self._peek_key_where(tag, context, predicate)
        return found[1] if found is not None else None

    def take_where(self, tag: int, context,
                   predicate: Callable[[int], bool]) -> Optional[Message]:
        found = self._peek_key_where(tag, context, predicate)
        if found is None:
            return None
        return self._pop_head(found[0])

    def earliest(self) -> Optional[Message]:
        best = None
        for queue in self._queues.values():
            head = queue[0]
            if best is None or head.seq < best.seq:
                best = head
        return best


class LinearScanMailbox:
    """Reference mailbox: one flat list, every match a full scan.

    This is the original O(pending-messages) implementation.  It is kept as
    the behavioural reference: the oracle cluster
    (``Cluster(reference_engine=True)``) runs on it, and the transport
    microbenchmark measures the speed-up of :class:`IndexedMailbox` over it.
    """

    __slots__ = ("_messages",)

    def __init__(self):
        self._messages: list = []

    def __len__(self) -> int:
        return len(self._messages)

    def append(self, message: Message) -> None:
        self._messages.append(message)

    def find(self, source: int, tag: int, context) -> Optional[Message]:
        best = None
        for message in self._messages:
            if message.matches(source, tag, context):
                if best is None or message.seq < best.seq:
                    best = message
        return best

    def take(self, source: int, tag: int, context) -> Optional[Message]:
        message = self.find(source, tag, context)
        if message is not None:
            self._messages.remove(message)
        return message

    def take_exact(self, key) -> Optional[Message]:
        """Exact-envelope pop (same contract as :meth:`IndexedMailbox.take_exact`)."""
        context, source, tag = key
        return self.take(source, tag, context)

    def find_where(self, tag: int, context,
                   predicate: Callable[[int], bool]) -> Optional[Message]:
        best = None
        for message in self._messages:
            if not message.matches(ANY_SOURCE, tag, context):
                continue
            if not predicate(message.src):
                continue
            if best is None or message.seq < best.seq:
                best = message
        return best

    def take_where(self, tag: int, context,
                   predicate: Callable[[int], bool]) -> Optional[Message]:
        message = self.find_where(tag, context, predicate)
        if message is not None:
            self._messages.remove(message)
        return message

    def earliest(self) -> Optional[Message]:
        if not self._messages:
            return None
        return min(self._messages, key=lambda m: m.seq)


class LazyMailboxes:
    """Rank -> mailbox map materialised on first touch.

    Indexing creates the rank's mailbox on demand (:meth:`peek` never
    does), so ranks that never receive a message or post a receive cost
    nothing: at p=2^15 a lockstep run (no per-message traffic) materialises
    none of the tens of thousands a dense list would allocate up front.

    An existing mailbox must keep its identity forever —
    :class:`~repro.messaging.RecvRequest` caches the object — which the
    backing dict guarantees.
    """

    __slots__ = ("_boxes", "_factory")

    def __init__(self, factory: Callable[[], Any]):
        self._boxes: dict = {}
        self._factory = factory

    def __getitem__(self, rank: int):
        box = self._boxes.get(rank)
        if box is None:
            box = self._boxes[rank] = self._factory()
        return box

    def peek(self, rank: int):
        """The rank's mailbox if it was ever materialised, else None."""
        return self._boxes.get(rank)

    def materialized_count(self) -> int:
        """How many per-rank mailboxes exist (memory introspection)."""
        return len(self._boxes)


# ---------------------------------------------------------------------------
# Transport.
# ---------------------------------------------------------------------------

#: Upper bound of the transport's :class:`Message` free list.  Bounded so a
#: burst of in-flight traffic cannot pin an unbounded object pool; beyond the
#: cap released messages are simply garbage as before.
MESSAGE_POOL_MAX = 4096

#: Upper bound of the transport's table of interned communicator descriptions
#: (:meth:`Transport.intern`), evicted oldest first.  A description is shared
#: by the members of one communicator (or one collective instance) for as long
#: as they use it; an evicted key is simply rebuilt by its next user.  Bounded
#: so tag-per-instance traffic and per-call MPI sequence numbers cannot grow
#: it without limit over a long run.
INTERN_MAX = 4096


class Transport:
    """Routes messages between simulated ranks under a pluggable cost model.

    One :class:`Transport` is shared by all ranks of a cluster.  It maintains
    one mailbox per destination rank holding *arrived but not yet received*
    messages; matching follows MPI semantics (context, source, tag — with
    wildcards for source and tag) and is FIFO per (source, destination,
    context, tag) because arrival times per ordered pair are monotone.

    ``params`` is any :class:`~repro.simulator.costmodel.CostModel`;
    ``placement`` is the cluster-owned rank -> (node, island) map hierarchical
    models price links from (flat models ignore it); ``mailbox_factory``
    builds a rank's mailbox on first touch.
    """

    def __init__(self, engine: Engine, num_ranks: int, params: CostModel,
                 tracer: Optional[Tracer] = None,
                 placement: Optional[Placement] = None,
                 mailbox_factory: Callable[[], Any] = IndexedMailbox):
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.engine = engine
        self.num_ranks = num_ranks
        self.params = params
        self.placement = placement if placement is not None \
            else params.default_placement(num_ranks)
        if self.placement.num_ranks != num_ranks:
            raise ValueError(
                f"placement covers {self.placement.num_ranks} ranks, "
                f"but the transport routes {num_ranks}")
        self.tracer = tracer or Tracer(num_ranks)
        self._mailboxes = LazyMailboxes(mailbox_factory)
        self._send_port_free = [0.0] * num_ranks
        self._recv_port_free = [0.0] * num_ranks
        self._seq = itertools.count()
        # Free list of released Message objects (see release_message).
        self._msg_pool: list = []
        self.pool_hits = 0      # sends served from the free list
        self.pool_recycled = 0  # releases accepted back into the free list
        self.pool_drops = 0     # releases discarded because the pool was full
        # (alpha, beta) when the model prices every pair identically — lets
        # post_send skip one method call per message; None for hierarchical
        # models (getattr: cost models predating uniform_link keep working).
        self._uniform_link = getattr(self.params, "uniform_link", lambda: None)()
        # Shared node NICs: when the cost model declares ports_per_node, all
        # inter-node traffic of a node's ranks serialises on that many shared
        # ports per node (send side on the source node, receive side on the
        # destination node) instead of on the per-rank endpoints above.
        # Intra-node transfers are shared-memory copies and keep using the
        # per-rank ports.  None (the default) is bit-identical to the
        # historical per-rank-only model.
        ports = getattr(self.params, "ports_per_node", None)
        if ports:
            node_index: dict = {}
            for node in self.placement.nodes:
                if node not in node_index:
                    node_index[node] = len(node_index)
            self._node_of = tuple(node_index[node]
                                  for node in self.placement.nodes)
            # Flat affine pools: node n's ports occupy the slice
            # [n * ports, (n + 1) * ports) of one list each, instead of one
            # list per node.  Same port-selection order (earliest free,
            # lowest index on ties), two allocations total.
            self._nic_ports = ports
            self._nic_send_free = [0.0] * (len(node_index) * ports)
            self._nic_recv_free = [0.0] * (len(node_index) * ports)
            self._tier_link = getattr(self.params, "tier_link", None)
        else:
            self._node_of = None
            self._nic_ports = 0
            self._nic_send_free = None
            self._nic_recv_free = None
            self._tier_link = None
        # Per-communicator Hierarchy views, filled by
        # repro.collectives.hierarchical.hierarchy_of (keyed by the group's
        # affine world map or member tuple; the placement is fixed per
        # transport, so it is not part of the key).
        self._hierarchy_cache: dict = {}
        # Per-color groups of the MPI_Comm_split calls in flight, filled and
        # emptied by repro.mpi.comm_create._split_group.
        self._split_tables: dict = {}
        # Rank-invariant descriptions shared by all members of a
        # communicator (the world group, RBC ranges, collective endpoints);
        # see intern.
        self._interned: dict = {}
        # Lockstep phase coordinator, created on first use by
        # repro.core.spmd.coordinator_of.
        self._spmd_coordinator = None
        # Per-round data plan of a batched Janus Quicksort, created on first
        # use by repro.sorting.jquick (repro.sorting.batched.SortPlan).
        self._sort_plan = None
        # Optional observability sink (repro.obs.TraceRecorder), installed
        # by Cluster(trace=...); post_send appends one message edge per
        # send when it is set.
        self._obs = None
        # Always-on tier-attribution counter: collectives priced by the
        # scalar state machines (CollectiveRequest) on this transport.
        self.scalar_collectives = 0
        # {reason: count}, see decline_tier.
        self.tier_declined: dict = {}
        # Callbacks used to wake rank processes; installed by the cluster.
        hooks = self._notify_hooks = [None] * num_ranks
        # Targets of the engine's allocation-free scheduled entries, built
        # once per transport.  They close over the three containers they
        # touch and not over the transport: a pending event (or a stored
        # bound method) must not tie the transport into a reference cycle.
        mailboxes = self._mailboxes
        stats = self.tracer.stats

        def deliver(message: Message) -> None:
            """Message reaches its destination mailbox; wake the receiver."""
            dst = message.dst
            mailboxes[dst].append(message)
            stats.per_rank_messages_received[dst] += 1
            stats.per_rank_words_received[dst] += message.words
            hook = hooks[dst]
            if hook is not None:
                hook()

        def notify(rank: int) -> None:
            """Sender-free wake-up armed by whoever polls an unfinished send
            (a :class:`SendHandle`, a collective request)."""
            hook = hooks[rank]
            if hook is not None:
                hook()

        self._deliver_entry = deliver
        self._notify_entry = notify

    # ----------------------------------------------------------------- wiring

    def set_notify_hook(self, rank: int, hook) -> None:
        """Install the callable invoked whenever rank ``rank`` should wake up."""
        self._notify_hooks[rank] = hook

    def close(self) -> None:
        """Drop what only a running simulation needs.

        Wake-up hooks, the lockstep coordinator's phases and port logs, the
        sort plan, the hierarchy views, the split tables and the interned
        descriptions go; port state, counters and mailboxes stay readable.
        Called by :meth:`Cluster.run` once the run is over.  Interned
        endpoints refer to this transport, so a table that outlived the run
        would tie the cluster into a reference cycle.
        """
        hooks = self._notify_hooks
        hooks[:] = [None] * len(hooks)
        if self._spmd_coordinator is not None:
            self._spmd_coordinator.close()
        if self._sort_plan is not None:
            self._sort_plan.close()
            self._sort_plan = None
        self._hierarchy_cache.clear()
        self._split_tables.clear()
        self._interned.clear()

    def intern(self, key, value):
        """Store the description ``value`` under ``key``; returns ``value``.

        Readers look descriptions up in ``_interned`` directly (one dict
        probe) and call this only on a miss.  The table keeps at most
        :data:`INTERN_MAX` entries: the oldest one makes room.  A key may
        name an object by ``id`` only if ``value`` keeps that object alive.
        """
        table = self._interned
        if len(table) >= INTERN_MAX:
            del table[next(iter(table))]
        table[key] = value
        return value

    def decline_tier(self, reason: str) -> None:
        """Count one faster tier that was asked for and did not run (an
        opted-in collective that is not lockstep-eligible, a sort left on the
        per-rank frontier): ``ClusterResult.obs["tier_declined"]``."""
        declined = self.tier_declined
        declined[reason] = declined.get(reason, 0) + 1

    # ---------------------------------------------------------------- sending

    def isend(self, src: int, dst: int, tag: int, context, payload,
              words: Optional[int] = None, local_delay: float = 0.0,
              payload_count: Optional[int] = None) -> SendHandle:
        """:meth:`post_send` plus the pollable :class:`SendHandle` of the
        send — what the point-to-point layer hands to its callers."""
        return SendHandle(
            self.engine,
            self.post_send(src, dst, tag, context, payload, words,
                           local_delay, payload_count),
            self._notify_entry, src)

    def post_send(self, src: int, dst: int, tag: int, context, payload,
                  words: Optional[int] = None, local_delay: float = 0.0,
                  payload_count: Optional[int] = None) -> float:
        """Hand a message to the network; returns the time it has fully left
        the sender's send port (the send buffer is free from then on).

        ``local_delay`` models local work the sender performs before the
        message can be injected (used by collective state machines to charge
        e.g. the application of a reduction operator without blocking the
        caller).  ``words`` is what the wire is charged for;
        ``payload_count`` is the word count of the payload itself where the
        two differ (default: they do not).  The receiver reads it off the
        message instead of walking the payload again.
        """
        num_ranks = self.num_ranks
        if src < 0 or src >= num_ranks:
            self._check_rank(src, "source")
        if dst < 0 or dst >= num_ranks:
            self._check_rank(dst, "destination")
        if words is None:
            words = payload_words(payload)
        if payload_count is None:
            payload_count = words
        # Snapshot array payloads: MPI allows the application to reuse its send
        # buffer once the send completes locally, and the collective state
        # machines reuse buffers freely, so the wire copy must be immutable.
        # Payloads whose memory is already immutable (read-only arrays owning
        # their data — see :func:`is_frozen_payload`) go on the wire as-is;
        # the forwarding hot paths of the collective state machines rely on
        # this to hand one frozen buffer down a whole tree without copies.
        if isinstance(payload, np.ndarray) and not is_frozen_payload(payload):
            payload = payload.copy()
        now = self.engine._now
        start = now + local_delay
        nic_send = self._nic_send_free
        tier = 0 if nic_send is None else self.placement.tier_of(src, dst)
        if tier == 0:
            if nic_send is None:
                uniform = self._uniform_link
                alpha, beta = uniform if uniform is not None \
                    else self.params.link(src, dst, self.placement)
            else:
                # Intra-node transfer on a shared-NIC machine: shared-memory
                # copy, serialised on the per-rank ports as always.
                alpha, beta = self._tier_link(0) if self._tier_link is not None \
                    else self.params.link(src, dst, self.placement)
            port_free = self._send_port_free[src]
            if port_free > start:
                start = port_free
            leave_sender = start + alpha + words * beta
            self._send_port_free[src] = leave_sender
            # The receive port is occupied for the data transfer part only; if
            # it is busy, delivery is delayed (incast serialisation).
            arrival = self._recv_port_free[dst] + words * beta
            if leave_sender > arrival:
                arrival = leave_sender
            self._recv_port_free[dst] = arrival
        else:
            # Inter-node (or inter-island) transfer on a shared-NIC machine:
            # the message occupies one of the source node's send ports and one
            # of the destination node's receive ports — every rank of a node
            # competes for the same NICs.  Each side picks the earliest-free
            # port (first index on ties, deterministic).
            alpha, beta = self._tier_link(tier) if self._tier_link is not None \
                else self.params.link(src, dst, self.placement)
            node_of = self._node_of
            ports = self._nic_ports
            base = node_of[src] * ports
            port = min(range(base, base + ports), key=nic_send.__getitem__)
            if nic_send[port] > start:
                start = nic_send[port]
            leave_sender = start + alpha + words * beta
            nic_send[port] = leave_sender
            recvs = self._nic_recv_free
            base = node_of[dst] * ports
            port = min(range(base, base + ports), key=recvs.__getitem__)
            arrival = recvs[port] + words * beta
            if leave_sender > arrival:
                arrival = leave_sender
            recvs[port] = arrival

        obs = self._obs
        if obs is not None:
            obs.edges.append((src, dst, now, local_delay, start,
                              leave_sender, arrival, words))

        pool = self._msg_pool
        if pool:
            message = pool.pop()
            self.pool_hits += 1
            message.seq = next(self._seq)
            message.src = src
            message.dst = dst
            message.tag = tag
            message.context = context
            message.payload = payload
            message.words = words
            message.payload_count = payload_count
            message.send_time = now
            message.arrival_time = arrival
        else:
            message = Message(next(self._seq), src, dst, tag, context,
                              payload, words, payload_count, now, arrival)
        # Tracer counters, inlined (one send per simulated message — the
        # method call was measurable).
        stats = self.tracer.stats
        stats.per_rank_messages_sent[src] += 1
        stats.per_rank_words_sent[src] += words

        # Allocation-free scheduled entries: the delivery is a (fn, arg) event
        # tuple, not a per-send closure.  The sender-free wake-up is *not*
        # scheduled here — whoever waits on the send (a SendHandle, a
        # collective request) arms it lazily on the first incomplete poll,
        # so sends nobody waits on cost no engine event (the trailing
        # delivery event at ``arrival >= leave_sender`` keeps the simulation's
        # final time unchanged).
        self.engine.schedule_call_at(arrival, self._deliver_entry, message)
        return leave_sender

    # -------------------------------------------------------------- receiving

    def find_match(self, dst: int, source: int, tag: int, context) -> Optional[Message]:
        """Return the earliest arrived message matching the given envelope.

        Does not remove the message (probe semantics).
        """
        self._check_rank(dst, "destination")
        return self._mailboxes[dst].find(source, tag, context)

    def take_match(self, dst: int, source: int, tag: int, context) -> Optional[Message]:
        """Like :meth:`find_match` but removes and returns the message."""
        self._check_rank(dst, "destination")
        return self._mailboxes[dst].take(source, tag, context)

    def find_match_where(self, dst: int, tag: int, context,
                         predicate: Callable[[int], bool]) -> Optional[Message]:
        """Earliest arrived message on ``tag``/``context`` whose *sender's
        world rank* satisfies ``predicate`` (RBC's range-restricted wildcard).

        Does not remove the message.
        """
        self._check_rank(dst, "destination")
        return self._mailboxes[dst].find_where(tag, context, predicate)

    def take_match_where(self, dst: int, tag: int, context,
                         predicate: Callable[[int], bool]) -> Optional[Message]:
        """Like :meth:`find_match_where` but removes and returns the message."""
        self._check_rank(dst, "destination")
        return self._mailboxes[dst].take_where(tag, context, predicate)

    def mailbox_of(self, dst: int):
        """The mailbox of rank ``dst`` (receive-side fast-path accessor).

        :class:`~repro.messaging.RecvRequest` and the collective requests
        cache this together with their exact match keys so each completion
        poll is a single dict probe instead of a call chain through the
        transport.
        """
        self._check_rank(dst, "destination")
        return self._mailboxes[dst]

    def any_arrived(self, dst: int) -> Optional[Message]:
        """Earliest arrived message for ``dst`` regardless of envelope
        (read-only: asking never materialises the rank's mailbox)."""
        self._check_rank(dst, "destination")
        mailbox = self._mailboxes.peek(dst)
        return None if mailbox is None else mailbox.earliest()

    def pending_count(self, dst: int) -> int:
        """Arrived-but-unreceived messages of ``dst`` (read-only)."""
        self._check_rank(dst, "destination")
        mailbox = self._mailboxes.peek(dst)
        return 0 if mailbox is None else len(mailbox)

    # ---------------------------------------------------------------- pooling

    def release_message(self, message: Message) -> None:
        """Return a *dead* message object to the transport's free list.

        Safe only when the caller owns the last reference: the message has
        been matched out of its mailbox and its payload extracted
        (:meth:`~repro.messaging.RecvRequest.take` is the canonical call
        site — the hot drain loops of the sorters' data exchanges).  The
        payload reference is dropped here so pooled objects never pin
        application buffers.
        """
        message.payload = None
        message.context = None
        pool = self._msg_pool
        if len(pool) < MESSAGE_POOL_MAX:
            pool.append(message)
            self.pool_recycled += 1
        else:
            self.pool_drops += 1

    def message_pool_stats(self) -> dict:
        """Free-list effectiveness counters (``ClusterResult.message_pool``)."""
        return {
            "message_pool_max": MESSAGE_POOL_MAX,
            "message_pool_hits": self.pool_hits,
            "message_pool_recycled": self.pool_recycled,
            "message_pool_drops": self.pool_drops,
            "message_pool_idle": len(self._msg_pool),
        }

    def mailboxes_materialized(self) -> int:
        """Number of per-rank mailboxes that exist (memory introspection)."""
        return self._mailboxes.materialized_count()

    # ------------------------------------------------------------------ misc

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"{what} rank {rank} out of range [0, {self.num_ranks})")
