"""SPMD lockstep execution of flat collective phases.

The simulator's collectives are *state machines*: every rank walks a
generator that posts point-to-point sends/receives and re-polls them on each
notification.  That is faithful, but for the homogeneous phases of the fig
benches (every rank of a communicator inside the same bcast/reduce/
allreduce/scan/gather/barrier) it burns the wall clock on per-rank generator
resumes, mailbox traffic, and wake-up polling whose *outcome* is completely
determined by the join times of the participants.

This module prices such a phase in one pass instead.  Each rank calls
:func:`join_lockstep` at the moment it would have constructed the native
``CollectiveRequest``; the coordinator records the join time and resolves a
rank as soon as its *dependency cone* (the set of ranks whose joins can
influence it) has joined:

* scan — cone of rank ``i`` is ``{0..i}``: ranks resolve as a growing
  consecutive prefix;
* bcast — cone is the rank's tree ancestors: ranks resolve top-down;
* reduce / gather — cone is the rank's subtree: ranks resolve bottom-up;
* allreduce / barrier — cone is everyone: priced at the last join.

Resolution replays the *exact* float arithmetic of
``Transport.post_send`` — same operand order, same port bookkeeping, same
payload-snapshot and freeze semantics, same tracer counters (the port log,
:mod:`repro.core.portlog`, is that mirror) — so every
timestamp, result value, and statistic is bit-identical to the native state
machines.  Only the event count drops: each rank gets exactly one wake-up at
its native finish time, posted through :meth:`Engine.charge_batch` (one
event per distinct finish time on the batched core) instead of one event per
message hop.

The contract
------------
Lockstep pricing writes a rank's send/receive port state *before* that rank
wakes, which is only sound when nothing else touches the member ports
between the collective's first join and its last wake.  Programs therefore
opt in explicitly (``env.lockstep_collectives = True``) and must keep member
ports quiet between lockstep collectives — a barrier-separated collective is
always fine, and so are repetition loops whose phases do not overlap in time
on any receive port.  Unsynchronised back-to-back repetitions *can* overlap
when transfer times outlast a leaf's turnaround (a fast rank's next-phase
send reaches a parent port before the previous phase's deeper-subtree
traffic): the coordinator tracks receive-port post times globally across
phases and raises :class:`LockstepError` instead of diverging silently.
Interleaving point-to-point traffic with a skewed collective is likewise
out of contract.  :func:`lockstep_eligible` additionally
requires per-rank ports (shared-NIC pools serialise traffic on node-level
resources the pricer does not mirror), a group of more than one rank, and
runtime checks (:class:`LockstepError`) reject phase shapes whose native
port-write order cannot be reproduced.  Machines with *tiered* link prices
(hierarchical/fat-tree/dragonfly cost models without NIC pools) are priced
per edge: the port log resolves each send's link exactly as
``Transport.post_send`` does, so the float expressions stay bit-identical
to the event engine on non-flat machines too.

There is one phase kind per operation.  A join carries the schedule
:func:`repro.collectives.dispatch.start` selected: None for the flat
schedule, which the op's phase class prices, or the node-leader
:class:`~repro.collectives.ir.Schedule`, which :class:`_SchedulePhase`
replays stage by stage through the same phase classes — each member enters
a stage at its finish time from the previous one, exactly when the scalar
interpreter's generator would have issued the stage's schedule.

The fast-forward tier
---------------------
Scan and barrier are one schedule — dissemination rounds at distances 1, 2,
4, ..., with or without wraparound — and one phase class prices both
(:class:`_DisseminationPhase`) with one vector and one scalar round pass.
The *vector* pass computes a whole round's sender and receiver halves as
NumPy float64 array expressions whose per-element operand order mirrors the
scalar pass exactly — elementwise IEEE-754 arithmetic over independent ranks
is bit-identical to the per-rank Python loops.  It covers the in-order
receive-port fold and the one out-of-order case a single phase produces on
tiered links (:meth:`PortLog.absorb <repro.core.portlog.PortLog.absorb>`);
before committing anything it checks, round by round, that every port write
takes one of those two branches, and otherwise falls back to the scalar pass
wholesale.  Its writes go to the port log as one round block of arrays,
unpacked into a port's list the first time another write touches it.  One
rule picks the pass, for joined and fed phases alike: the vector pass when
every member has joined and the group has at least :data:`VECTOR_CUTOFF`
members, the scalar pass otherwise.  A scan that can vectorise defers
member 0's join to a zero-delay flush event at the join instant, so joins
landing in one timestamp batch (barrier-separated phases) become visible at
once; the flush costs one engine event per phase and resolves at the same
virtual time the scalar frontier would have.  The tier's reference is the
oracle cluster's event-by-event run, where no phase is priced here at all.

One pricer per phase
--------------------
Each phase class has exactly one pass, which says which messages its
schedule sends and when; the coordinator's
:class:`~repro.core.portlog.PortLog` prices them.  A pass hands it the
ready time of each send and reads back leaves and arrivals: the bcast and
the exchange price a message whole (``message``); reduce, gather and the
scalar dissemination rounds price a send when its member is priced and
its receive later, in the receiver's post order (``send``, then
``receive``).  ``receive`` and ``message`` return the receive's entry,
whose cap the pass sets where it commits the arrival.  No pass touches a
port, a link price or a tracer counter itself.  The pass stores finish
times and results in the phase's ``finish`` / ``results`` lists.  A join
prices a worklist, a driver prices everyone: a member joining through the
engine hands the pass the members its join made resolvable (a bcast's
joined descendants, a reduce/gather's ready chain toward the root, a
scan's prefix) and ``_publish`` gives each its request and wake-up; a
driver that knows every join up front (``_feed_all``: the
allreduce composition, the jquick level phase — its data exchange is only
ever priced this way) runs the same pass over all members and reads the
lists, without requests or wake events.  The dissemination phase's vector
pass is the one exception, a fast path for the whole phase: which pass
applies follows from what the phase observes (every member joined, group
size, in-order port writes, value dtype), not from who called.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..collectives.endpoint import TransportEndpoint
from ..collectives.topology import binomial_children, dissemination_rounds
from ..messaging import Request
from ..simulator.errors import RankFailedError
from ..simulator.network import freeze_payload, is_frozen_payload, payload_words
from .portlog import POST, LockstepError, PortLog

__all__ = [
    "LockstepError",
    "LockstepRequest",
    "lockstep_eligible",
    "join_lockstep",
    "SpmdCoordinator",
    "coordinator_of",
    "VECTOR_CUTOFF",
]


#: Smallest group the dissemination phases (scan, barrier) price with the
#: vector pass, joined or fed; smaller groups take the scalar round pass.  The
#: two are pinned bit-identical, so this is the measured crossover, not a
#: knob — per phase, scalar vs vector on a 2-core Xeon, two-word SUM scan:
#: 60 vs 108 us at 8 members, 112 vs 153 at 12, 171 vs 180 at 16, 520 vs 283
#: at 32; barrier: 42 vs 100 at 8, 80 vs 140 at 12, 106 vs 149 at 16, 230 vs
#: 232 at 24, 334 vs 254 at 32 (its crossover sits near 24).
VECTOR_CUTOFF = 16

_ARRAY_UFUNCS: Optional[dict] = None
_FLOAT_UFUNCS: Optional[dict] = None


def _vector_ufuncs() -> tuple[dict, dict]:
    """Lazily built ``id(op) -> binary ufunc`` maps for the scan pricer.

    Array accumulators vectorise for SUM/PROD/MIN/MAX: their scalar ``fn``
    already routes through the matching NumPy elementwise operation
    (``+``/``*`` on ndarrays are ``np.add``/``np.multiply``).  Python-float
    accumulators vectorise for SUM/PROD only — ``min``/``max`` on floats and
    ``np.minimum``/``np.maximum`` disagree on signed zeros and NaN
    propagation, so MIN/MAX scans over plain floats stay scalar.  Keyed by
    identity: only the canonical operator objects are known-vectorisable.
    (Imported lazily — :mod:`repro.mpi` pulls in the full MPI layer, which
    this low-level module must not require at import time.)
    """
    global _ARRAY_UFUNCS, _FLOAT_UFUNCS
    if _ARRAY_UFUNCS is None:
        from ..mpi.datatypes import MAX, MIN, PROD, SUM
        _ARRAY_UFUNCS = {id(SUM): np.add, id(PROD): np.multiply,
                         id(MIN): np.minimum, id(MAX): np.maximum}
        _FLOAT_UFUNCS = {id(SUM): np.add, id(PROD): np.multiply}
    return _ARRAY_UFUNCS, _FLOAT_UFUNCS


def _scan_vector_plan(op, values) -> Optional[tuple[str, Any]]:
    """``(mode, ufunc)`` when a scan's values admit matrix folding, else None.

    Eligible shapes: every value the same-(shape, dtype) numeric ndarray
    (mode ``"array"``) or every value a plain float (mode ``"float"``), with
    ``op`` in the corresponding known-vectorisable set.
    """
    array_ufuncs, float_ufuncs = _vector_ufuncs()
    first = values[0]
    if first.__class__ is np.ndarray:
        if first.ndim == 0 or first.dtype.kind not in "fiu":
            return None
        ufunc = array_ufuncs.get(id(op))
        if ufunc is None:
            return None
        shape = first.shape
        dtype = first.dtype
        for value in values:
            if value.__class__ is not np.ndarray or value.shape != shape \
                    or value.dtype != dtype:
                return None
        return "array", ufunc
    if first.__class__ is float:
        ufunc = float_ufuncs.get(id(op))
        if ufunc is None:
            return None
        for value in values:
            if value.__class__ is not float:
                return None
        return "float", ufunc
    return None


class LockstepRequest(Request):
    """Request-protocol handle for one rank's share of a lockstep phase.

    ``test()`` stays false until the phase has priced this rank *and* virtual
    time has reached the rank's native finish time; the coordinator schedules
    a wake-up at exactly that time, so a rank blocked in ``wait_until`` on
    this request resumes precisely when the native state machine would have.
    """

    __slots__ = ("env", "_engine", "finish_time", "_value", "_ready")

    def __init__(self, env):
        self.env = env
        self._engine = env.engine
        self.finish_time = 0.0
        self._value: Any = None
        self._ready = False

    def test(self) -> bool:
        return self._ready and self._engine._now >= self.finish_time

    peek = test  # reads two fields and the clock, nothing else

    def result(self) -> Any:
        return self._value


def lockstep_eligible(env, ep) -> bool:
    """True when ``env``'s collectives on ``ep`` may be priced in lockstep.

    Requires the program's explicit opt-in (``env.lockstep_collectives``), a
    non-trivial group, the default cluster (the oracle,
    ``Cluster(reference_engine=True)``, prices every collective event by
    event) and per-rank ports (shared-NIC models serialise traffic on
    node-level resources the lockstep pricer does not mirror).  Tiered link
    prices are fine: the port log resolves each edge's link exactly as
    ``Transport.post_send`` does.
    """
    if not getattr(env, "lockstep_collectives", False):
        return False
    if ep.size <= 1:
        return False
    if env.engine.reference:
        reason = "the reference engine prices collectives event by event"
    elif ep.transport._node_of is not None:
        reason = "shared NIC ports are not mirrored by the pricer"
    else:
        return True
    ep.transport.decline_tier(f"lockstep: {reason}")
    return False


def join_lockstep(env, ep, kind: str, value: Any = None,
                  op: Optional[Callable[[Any, Any], Any]] = None,
                  root: int = 0, schedule=None) -> LockstepRequest:
    """Enter the rank of ``env`` into the lockstep phase ``kind`` on
    ``ep``'s group.

    ``schedule`` is the node-leader :class:`~repro.collectives.ir.Schedule`
    the call runs, None for the op's flat schedule.  Must be called at the
    instant the native schedule would have been constructed.  Returns a
    request completing at the rank's native finish time with the native
    result value.
    """
    return coordinator_of(ep.transport).join(ep, kind, env, value, op, root,
                                             schedule)


def coordinator_of(transport) -> "SpmdCoordinator":
    """The transport's phase coordinator, created on first use.

    The transport owns it; :meth:`Transport.close` empties it when the
    run is over (:meth:`SpmdCoordinator.close`).
    """
    coordinator = transport._spmd_coordinator
    if coordinator is None:
        coordinator = transport._spmd_coordinator = SpmdCoordinator(transport)
    return coordinator


class SpmdCoordinator:
    """Tracks in-flight lockstep phases of one transport.

    Phases are keyed by ``(context, tag, kind, root)``.  MPI collectives get
    a fresh context per invocation; RBC collectives reuse a per-operation tag
    across repetitions, and ranks priced early (e.g. leaves of a reduce) may
    start the next repetition before the current phase has resolved every
    member.  Each key therefore holds a list of live *generations* in start
    order: a joining rank enters the first generation it has not joined yet
    among those opened for its schedule, matching the SPMD property that
    every rank passes through repetitions in the same order.  A fully
    resolved generation is retired during its last join, before any member
    wakes.
    """

    __slots__ = ("_phases", "ports", "tier_phases", "refusals",
                 "fastforward_fallbacks")

    #: Phase kind -> phase class (or factory) of the flat schedule: one per
    #: operation, filled in below the classes, plus externally registered
    #: kinds.  :class:`_SchedulePhase` prices its stages through it too.
    _KINDS: dict = {}

    @classmethod
    def register_kind(cls, kind: str, factory) -> None:
        """Register an externally defined phase kind.

        Used by :mod:`repro.sorting.batched` for the fused jquick level
        phase, which composes the phase classes of this module but lives
        with the sorting code that knows the level's structure.
        """
        cls._KINDS[kind] = factory

    def __init__(self, transport):
        self._phases: dict = {}
        # The receive-port log every phase of this transport folds its
        # writes through, with the live phases' first joins that bound its
        # prune (see repro.core.portlog).
        self.ports = PortLog(transport)
        # Always-on tier-attribution counters, surfaced through
        # ClusterResult.obs: how many phases each execution tier priced
        # (counted at retirement, once per real phase — driver-owned
        # sub-phases never retire), how many joins the lockstep tier
        # refused (LockstepError), and how many armed fast-forwards fell
        # back to the scalar lockstep pricer.
        self.tier_phases: dict = {}
        self.refusals = 0
        self.fastforward_fallbacks = 0

    def close(self) -> None:
        """Drop live phases and port logs; the tier counters stay readable.

        Phases reference their members' environments, and through them the
        transport that owns this coordinator: a run that failed mid-phase
        would otherwise leave that loop to the cyclic collector.
        """
        self._phases.clear()
        self.ports.clear()

    def join(self, ep, kind: str, env, value, op, root,
             schedule=None) -> LockstepRequest:
        """Enter the rank of ``env`` into phase ``kind`` on the (rank-free)
        endpoint ``ep``; its group rank follows from the endpoint."""
        try:
            return self._join(ep, kind, env, value, op, root, schedule)
        except LockstepError as exc:
            self.record_refusal(
                exc, ep.transport, env.engine._now, env.rank,
                f"{kind} p={ep.size} root={root}: {exc}")
            raise

    def record_refusal(self, exc: LockstepError, transport, now: float,
                       rank: int, shape: str) -> None:
        """Count a refusal once and, when tracing, record its phase shape.

        One ``LockstepError`` can unwind through several recording sites
        (a fused driver resolving a sub-phase inside a join); the marker
        attribute keeps the count and the trace event single.
        """
        if getattr(exc, "_obs_recorded", False):
            return
        exc._obs_recorded = True
        self.refusals += 1
        obs = transport._obs
        if obs is not None:
            obs.events.append((now, rank, "refusal", shape))

    def _join(self, ep, kind: str, env, value, op, root,
              schedule) -> LockstepRequest:
        rank = ep.rank_of(env.rank)
        key = (ep.context, ep.tag, kind, root)
        generations = self._phases.get(key)
        if generations is None:
            generations = self._phases[key] = []
        phase = None
        for live in generations:
            if live.schedule is schedule and rank < live.size \
                    and live.joined[rank] is None:
                phase = live
                break
        if phase is None:
            if schedule is not None:
                phase = _SchedulePhase(ep, op, root, self, schedule)
            else:
                try:
                    factory = self._KINDS[kind]
                except KeyError:
                    raise LockstepError(
                        f"unknown lockstep kind: {kind!r}") from None
                phase = factory(ep, op, root, self)
            phase.first_join = env.engine._now
            phase._gen_key = key
            self.ports.live.append(phase.first_join)
            generations.append(phase)
        request = phase.join(env, rank, ep, value, op)
        if phase.resolved_count == phase.size:
            self.retire(phase)
        return request

    def retire(self, phase) -> None:
        """Drop a fully resolved generation (idempotent).

        Scalar phases resolve — and retire — inside their last member's
        ``join``; a scan fast-forward resolves inside its deferred flush
        event instead and retires itself from there.
        """
        if phase._retired:
            return
        phase._retired = True
        tier = phase.tier
        self.tier_phases[tier] = self.tier_phases.get(tier, 0) + 1
        self.ports.live.remove(phase.first_join)
        generations = self._phases.get(phase._gen_key)
        if generations is not None:
            generations.remove(phase)
            if not generations:
                del self._phases[phase._gen_key]


# ---------------------------------------------------------------------------
# Phase machinery.
# ---------------------------------------------------------------------------

class _PhaseBase:
    """Shared state of a phase: joins and wakes; every message is priced
    through ``self.ports``, the coordinator's :class:`PortLog`.

    All pricing happens in *group* ranks; ``self.world`` maps them to the
    world ranks the port log takes.
    """

    kind = "?"

    #: The node-leader schedule a :class:`_SchedulePhase` replays; None on
    #: the flat phases.  A join only enters a generation of its own schedule.
    schedule = None

    #: Execution tier this phase's pricing ran on, for the retirement
    #: counters and traced span labels.  The dissemination vector pass
    #: overwrites it with "fastforward" on commit; the batched sorting
    #: tier's fused level phase declares "batched".
    tier = "lockstep"

    #: True on schedule-IR replay phases and the sub-phases they drive.
    #: Their stages interleave across generations, so a same-instant tie
    #: against another phase's port write must prove it commutes
    #: (:meth:`PortLog._prove_tie <repro.core.portlog.PortLog._prove_tie>`);
    #: flat phases post in generation order, which matches the engine's tie
    #: order (pinned by the differential seed suite).
    _hier_sub = False

    def __init__(self, ep, op, root, coordinator):
        if isinstance(ep, _PhaseBase):
            # A sub-phase on its driver's own group (see _sub_phase) shares
            # the driver's derived group context — world list, port log,
            # vendor costs — instead of re-deriving it.
            self.__dict__.update(ep._group)
            self._group = ep._group
        else:
            self._derive_group(ep, coordinator)
        self.root = root
        self.op = op
        self.obs_label = self.kind
        self._owner = object()
        self._retired = False
        size = self.size
        self.joined: list = [None] * size
        # _span_starts aliases `joined` — drivers that charge per-member
        # entry work (the jquick level phase) rebind it to the
        # post-charge start times for a granular decomposition.
        self._span_starts = self.joined
        self.values: list = [None] * size
        # The one result sink: a pricer stores a member's finish time and
        # result here (finish None = unpriced).  Requests exist only for
        # members that joined through the engine.
        self.finish: list = [None] * size
        self.results: list = [None] * size
        self.requests: list = [None] * size
        self.joined_count = 0
        self.resolved_count = 0
        self._wakes: list = []

    def _derive_group(self, ep, coordinator) -> None:
        """Bind what depends only on the group and its machine; the
        attributes are snapshotted into ``_group`` for sub-phases to adopt."""
        transport = ep.transport
        self.engine = transport.engine
        self.transport = transport
        self.context = ep.context
        self.tag = ep.tag
        self.size = ep.size
        self.factor = ep.word_cost_factor
        self.pmd = ep.per_message_delay
        self.compute_cost = transport.params.compute_cost
        affine = ep._affine
        self.affine = affine
        if affine is not None:
            first, stride = affine
            self.world = list(range(first, first + ep.size * stride, stride))
        else:
            self.world = [ep.to_world(i) for i in range(ep.size)]
        # Observability: spans are emitted from _publish when a recorder is
        # installed (Cluster(trace=...)); driver-owned sub-phases get
        # _obs nulled by _sub_phase so only the outer phase's span counts.
        self._obs = transport._obs
        self.coordinator = coordinator
        self.ports = coordinator.ports
        self._group = dict(self.__dict__)

    # ------------------------------------------------------------------ joins

    def join(self, env, rank: int, ep, value, op) -> LockstepRequest:
        """Record the join of ``env``'s rank, group rank ``rank`` of ``ep``."""
        if ep.size != self.size:
            raise LockstepError(
                f"lockstep {self.kind}: rank {rank} joined with group size "
                f"{ep.size}, phase opened with {self.size}")
        if op is not self.op:
            raise LockstepError(
                f"lockstep {self.kind}: rank {rank} joined with a different "
                f"reduction operator")
        if ep.word_cost_factor != self.factor or ep.per_message_delay != self.pmd:
            raise LockstepError(
                f"lockstep {self.kind}: rank {rank} joined with different "
                f"vendor cost parameters")
        if env.rank != self.world[rank]:
            raise LockstepError(
                f"lockstep {self.kind}: world rank {env.rank} joined as "
                f"group rank {rank}, but the phase maps it to world rank "
                f"{self.world[rank]} — two groups are sharing one "
                f"(context, tag)")
        if self.joined[rank] is not None:
            raise LockstepError(
                f"lockstep {self.kind}: rank {rank} joined twice — interleaved "
                f"collectives on one (context, tag) are not lockstep-safe")
        return self._join_at(rank, value, self.engine._now, env)

    def _join_at(self, rank: int, value, now: float,
                 env=None) -> Optional[LockstepRequest]:
        """Record a member's join at virtual time ``now``; run the phase hook.

        ``join`` delegates here with the live engine clock and the member's
        environment.  A streaming driver (the schedule-IR replay) instead
        feeds a sub-phase directly with the member's *synthetic* join time
        and no environment: such members get no request and no wake-up
        event — the driver reads their finish times and results from the
        ``finish`` / ``results`` lists.
        """
        self.joined[rank] = now
        self.joined_count += 1
        self.values[rank] = value
        request = None
        if env is not None:
            request = self.requests[rank] = LockstepRequest(env)
        self.on_join(rank)
        self._flush_wakes()
        return request

    def _feed_all(self, times: list, values: list) -> tuple[list, list]:
        """Feed every member synthetically at once; returns finishes/results.

        For drivers that know the whole phase up front (the allreduce
        composition, the jquick level phase): one list assignment replaces
        per-join bookkeeping, and the phase's pricer runs once over every
        member in its natural order instead of over one join's worklist.
        No wake events or request objects are involved — the driver reads
        the returned ``(finish, results)`` lists directly.  The input lists
        are adopted as they are; no pricer writes to them.
        """
        self.joined = times
        self.values = values
        self.joined_count = self.size
        self._price_all()
        return self.finish, self.results

    def _price_all(self) -> None:  # pragma: no cover - interface
        """Price every member; all of them have joined."""
        raise NotImplementedError

    def on_join(self, rank: int) -> None:  # pragma: no cover - interface
        """Price and ``_publish`` what ``rank``'s join made resolvable."""
        raise NotImplementedError

    # --------------------------------------------------------------- plumbing

    def _finish(self, rank: int, finish: float, value) -> None:
        """Store ``rank``'s finish time and result, and publish them."""
        self.finish[rank] = finish
        self.results[rank] = value
        self._publish(rank)

    def _publish(self, rank: int) -> None:
        """Announce a member a pricer just stored in ``finish``/``results``.

        Emits the member's span when tracing and, for a member that joined
        through the engine, completes its request and queues its wake-up
        at the finish time; a synthetically joined member has neither.
        """
        finish = self.finish[rank]
        self.resolved_count += 1
        obs = self._obs
        if obs is not None:
            start = self._span_starts[rank]
            obs.spans.append((self.world[rank],
                              finish if start is None else start, finish,
                              "collective", f"{self.obs_label}@{self.tier}"))
        request = self.requests[rank]
        if request is not None:
            request.finish_time = finish
            request._value = self.results[rank]
            request._ready = True
            proc = request.env._proc
            if proc is not None:
                self._wakes.append((finish, proc))

    def _flush_wakes(self) -> None:
        wakes = self._wakes
        if wakes:
            self._wakes = []
            self.engine.charge_batch(
                [w[0] for w in wakes], [w[1] for w in wakes])

    def _sub_phase(self, factory, op, root, ep=None):
        """A sub-phase owned and driven by this phase, on ``ep``'s group.

        Never coordinator-registered: ``_retired`` is pre-set so a scan's
        deferred-flush retirement is a no-op, and ``first_join`` is inherited
        so the receive-port prune bound stays conservative for every
        synthetic write (they all post at or after it).  ``ep`` defaults to
        this phase itself, which quacks like an endpoint for its own group
        (:class:`_SchedulePhase` narrows it to a stage's members).
        """
        phase = factory(self if ep is None else ep, op, root, self.coordinator)
        phase._retired = True
        phase._gen_key = None
        phase.first_join = self.first_join
        phase._hier_sub = self._hier_sub
        # The driving phase's _finish emits the member spans; a sub-phase
        # emitting too would double-cover the same window.
        phase._obs = None
        return phase

    def _record_refusal(self, exc: LockstepError) -> None:
        """Refusal bookkeeping for raises outside a join (engine events)."""
        self.coordinator.record_refusal(
            exc, self.transport, self.engine._now, self.world[0],
            f"{self.kind} p={self.size}: {exc}")

    # Endpoint-protocol views: a phase can stand in as the endpoint of its
    # own group when composing sub-phases (see _sub_phase).
    @property
    def word_cost_factor(self) -> float:
        return self.factor

    @property
    def per_message_delay(self) -> float:
        return self.pmd

    @property
    def _affine(self):
        return self.affine

    def to_world(self, rank: int) -> int:
        return self.world[rank]


# ---------------------------------------------------------------------------
# Scan and barrier: the dissemination schedule.
# ---------------------------------------------------------------------------

class _DisseminationPhase(_PhaseBase):
    """Scan and barrier: ``log p`` rounds at distances 1, 2, 4, ...

    In round ``d`` member ``i`` sends to ``i + d``.  The scan (Hillis-Steele)
    has no wraparound: member ``i``'s cone is ``{0..i}``, so members resolve
    as a growing consecutive prefix, and each receive folds
    ``op(received, acc)`` after the operator's compute delay.  The barrier
    (:class:`_DisseminationBarrier`, ``wrap``) sends to ``(i + d) mod p``,
    carries no values, sends 0 words and has no operator delay; its cone is
    everyone, so it is priced at the last join.

    Two passes price it, bit-identical to each other: the vector pass when
    every member has joined and the group has at least
    :data:`VECTOR_CUTOFF` members, the scalar pass otherwise — over the
    members a join made resolvable, or over everyone when fed.  A scan that
    can vectorise defers member 0's join (before it nothing is resolvable)
    to a flush event at the same instant, so joins landing in one timestamp
    batch all become visible first.
    """

    kind = "scan"
    wrap = False
    #: ``world`` as an index array, built on first use by
    #: :meth:`_world_array`.
    _world_arr = None

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        self.rounds = dissemination_rounds(self.size)
        # The scalar pass's round table, built by its first call: per round
        # the distance, senders below ``limit``, receivers from ``floor``,
        # and member -> its priced (leave, wire, payload, post, transfer)
        # send, read by the receivers.
        self.sends: Optional[list] = None
        self.frontier = 0
        self._flush_armed = False

    def on_join(self, rank: int) -> None:
        if self._flush_armed:
            return
        if self.wrap:
            if self.joined_count == self.size:
                self._price_all()
        elif rank == 0 and self.size >= VECTOR_CUTOFF:
            # Defer the prefix advance to a flush event at this same
            # instant: joins landing in member 0's timestamp batch (lockstep
            # phases enter from a common barrier) all become visible before
            # any pricing runs, so the whole phase vectorises instead of
            # resolving rank-by-rank as the joins stream in.  The flush
            # fires before virtual time moves, so every rank still resolves
            # at the exact time the scalar frontier would have reached it;
            # the cost is one extra engine event per phase.
            self._flush_armed = True
            self.engine.schedule_call_at(self.engine._now, self._flush_event,
                                         None)
        else:
            self._advance()

    def _flush_event(self, _arg) -> None:
        """Engine-event entry of :meth:`_flush`.

        A refusal raised here unwinds through ``Engine.run`` directly —
        no rank generator is on the stack to wrap it — so this shim
        restores the honest-refusal contract (``RankFailedError`` with
        the :class:`LockstepError` as ``__cause__``) that every
        join-path refusal already satisfies via ``Engine._step``.
        """
        try:
            self._flush(None)
        except LockstepError as exc:
            raise RankFailedError(self.world[0], exc) from exc

    def _flush(self, _arg) -> None:
        self._flush_armed = False
        try:
            self._advance()
        except LockstepError as exc:
            self._record_refusal(exc)
            raise
        self._flush_wakes()
        if self.resolved_count == self.size:
            self.coordinator.retire(self)

    def _advance(self) -> None:
        # Messages only flow from lower to higher members, so the scan's
        # resolvable set is the joined prefix beyond the frontier.
        lo = hi = self.frontier
        joined = self.joined
        while hi < self.size and joined[hi] is not None:
            hi += 1
        if hi > lo:
            self._price(lo, hi)
            self.frontier = hi

    def _price_all(self) -> None:
        self._price(0, self.size)

    def _price(self, lo: int, hi: int) -> None:
        """Price members ``[lo, hi)``; every member below ``lo`` is priced.

        The one selection rule: the vector pass for the whole phase of a
        group of at least :data:`VECTOR_CUTOFF` members, else the scalar
        pass.  A vector attempt that declines (non-vectorisable values, an
        out-of-order port write) counts as a fast-forward fallback.
        """
        size = self.size
        if lo == 0 and hi == size >= VECTOR_CUTOFF:
            if self._vector_pass():
                return
            self.coordinator.fastforward_fallbacks += 1
            obs = self._obs
            if obs is not None:
                obs.events.append((self.engine._now, self.world[0],
                                   "fallback", f"{self.kind} p={size}"))
        self._scalar_pass(lo, hi)

    def _scalar_pass(self, lo: int, hi: int) -> None:
        """Price the rounds one by one over members ``[lo, hi)``.

        Round-major: all of a round's sends, then all of its receives.  Each
        send port is written by its own member and each receive port by its
        one source per round, both in round order — the per-port write
        sequences of the native schedule.  A receiver whose source lies
        below ``lo`` reads that source's send from an earlier pass.
        """
        size = self.size
        wrap = self.wrap
        op = self.op
        pmd = self.pmd
        factor = self.factor
        world = self.world
        send = self.ports.send
        receive = self.ports.receive
        owner = self._owner
        hier = self._hier_sub
        compute_cost = self.compute_cost
        table = self.sends
        if table is None:
            table = self.sends = [
                (d, size, 0, [None] * size) if wrap
                else (d, size - d, d, [None] * size) for d in self.rounds]
        values = self.values
        resume = self.joined[lo:hi]
        acc = values[lo:hi]
        pending = [0.0] * (hi - lo)
        payload = None  # the barrier's: no value, 0 words
        wire = 0
        for distance, limit, floor, sent in table:
            for member in range(lo, limit if limit < hi else hi):
                k = member - lo
                if not wrap:
                    payload = acc[k]
                    if payload is not values[member]:
                        payload = acc[k] = freeze_payload(payload)
                    words = payload_words(payload)
                    wire = words if factor == 1.0 \
                        else int(round(words * factor))
                post = resume[k]
                leave, transfer = send(
                    world[member], world[(member + distance) % size],
                    post + (pending[k] + pmd), wire)
                # Consumed: without a receive this round, the member's next
                # send has no operator delay.
                pending[k] = 0.0
                sent[member] = (leave, wire, payload, post, transfer)
                if leave > post:
                    resume[k] = leave
            for member in range(floor if floor > lo else lo, hi):
                k = member - lo
                # A negative index is the barrier's wraparound source.
                s_leave, s_wire, s_value, s_post, s_transfer = \
                    sent[member - distance]
                entry = receive(world[member], s_post, s_leave, s_transfer,
                                s_wire, owner, hier)
                arrival = entry[4]
                if arrival > resume[k]:
                    resume[k] = arrival
                if not wrap:
                    pending[k] = compute_cost(payload_words(s_value))
                    acc[k] = op(s_value, acc[k])
                entry[5] = resume[k]
        finish = self._finish
        for member, at, result in zip(range(lo, hi), resume,
                                      [None] * (hi - lo) if wrap else acc):
            finish(member, at, result)

    def _vector_pass(self) -> bool:
        """Price every round as float64 array expressions; all have joined.

        One row of the round table per distance: ``senders[k]`` sends to
        ``dests[k]`` and ``receivers[k]`` hears ``sources[k]``.  The scan's
        rows are basic slices; the barrier's destinations and sources are
        index arrays (read only — ``senders`` and ``receivers`` are slices
        the pass writes through).  Senders start at member 0, so a
        sender-indexed array read at ``sources`` lines up with the
        receivers.  Per-member float operand order is the scalar pass's and
        member ports are disjoint within a round, so elementwise IEEE-754
        arithmetic reproduces it bit for bit.  The scan's accumulator matrix
        folds ``op(row[source], row[receiver])`` for a whole round at once
        (senders are read before receivers are written, as values only flow
        upward within a round).  Port writes fold in order, or — on tiered
        links a round's write can post before the port's previous-round
        write — one entry back (:meth:`PortLog.absorb`); the writes go to
        the port log as one round block.  Returns False — before touching
        any transport or engine state — when the values do not vectorise or
        a port write would take a branch of the fold this pass does not
        mirror.
        """
        size = self.size
        values = self.values
        fold = not self.wrap
        wire = 0
        cost = 0.0
        if fold:
            plan = _scan_vector_plan(self.op, values)
            if plan is None:
                return False
            mode, ufunc = plan
            if mode == "array":
                matrix = np.stack(values)
                words = int(matrix[0].size)
            else:
                matrix = np.array(values, dtype=np.float64)
                words = 1
            factor = self.factor
            wire = words if factor == 1.0 else int(round(words * factor))
            cost = self.compute_cost(words)
        ports = self.ports
        links = ports.member_links(self._world_array())
        if links is None:
            return False
        edge_links = ports.edge_links
        if fold:
            table = ((slice(0, size - d), slice(d, size), slice(d, size),
                      slice(0, size - d)) for d in self.rounds)
        else:
            index = np.arange(size)
            everyone = slice(0, size)
            table = ((everyone, (index + d) % size, everyone,
                      (index - d) % size) for d in self.rounds)
        send_free, recv_free = ports.port_arrays(self.world, self.affine)
        tails, hazards, listed = ports.tails(self.world, self._world_array(),
                                             self._hier_sub)
        resume = np.array(self.joined, dtype=np.float64)
        pending = np.zeros(size)
        pmd = self.pmd
        nsent = np.zeros(size, dtype=np.intp)
        nrecv = np.zeros(size, dtype=np.intp)
        # The round block: member x round x log-entry field (post, leave,
        # transfer, free before, arrival, cap), filled through one
        # round x member view per field.
        block = np.empty((size, len(self.rounds), 6))
        posts_t, leaves_t, transfers_t, frees_t, arrivals_t, caps_t = block.T
        posts_t.fill(-np.inf)
        # Per port: post time of its last write in log order.
        last = tails.copy()
        reordered = False
        for row, (senders, dests, receivers, sources) in enumerate(table):
            # Sender half (scalar: start = post + (pending + pmd), max
            # port, + alpha + wire*beta).
            start = resume[senders] + (pending[senders] + pmd)
            np.maximum(start, send_free[senders], out=start)
            e_alpha, e_wb, r_wb = edge_links(links, senders, dests, sources,
                                              wire)
            leaves = start + e_alpha + e_wb
            send_free[senders] = leaves
            nsent[senders] += 1
            # Receiver half: the in-order fold onto every port.
            posts = resume[sources]
            if np.any(posts == hazards[receivers]):
                return False
            r_leaves = leaves[sources]
            posts_t[row, receivers] = posts
            leaves_t[row, receivers] = r_leaves
            transfers_t[row, receivers] = r_wb
            frees = frees_t[row, receivers]
            frees[:] = recv_free[receivers]
            arrival = frees + r_wb
            np.maximum(arrival, r_leaves, out=arrival)
            port = arrival
            tail = last[receivers]   # a view: receivers is a slice
            late = np.flatnonzero(posts < tail)
            if late.size:
                port = ports.absorb(block, row, receivers, late, posts,
                                    r_leaves, r_wb, frees, arrival, tails,
                                    tail)
                if port is None:
                    return False
                reordered = True
            arrivals_t[row, receivers] = arrival
            recv_free[receivers] = port
            np.maximum(tail, posts, out=tail)
            nrecv[receivers] += 1
            if fold:
                matrix[receivers] = ufunc(matrix[sources], matrix[receivers])
                pending = np.zeros(size)
                pending[receivers] = cost
            new_resume = resume.copy()
            segment = new_resume[senders]
            np.maximum(segment, leaves, out=segment)
            segment = new_resume[receivers]
            np.maximum(segment, arrival, out=segment)
            caps_t[row, receivers] = segment
            resume = new_resume
        # ---- every write folds as the scalar fold would: commit. --------
        self.tier = "fastforward"
        ports.set_port_arrays(self.world, self.affine, send_free, recv_free)
        ports.add_block(block, [0] * len(self.rounds) if self.wrap
                        else self.rounds, self.world, self._world_array(),
                        self._owner, self._hier_sub, reordered, listed)
        ports.count(self.world, nsent.tolist(), nrecv.tolist(), wire)
        finish = self._finish
        times = resume.tolist()
        if not fold:
            for member, time in enumerate(times):
                finish(member, time, None)
            return True
        # ---- scan results: object/freeze parity with the scalar pass. ----
        # Rank 0 never receives, so its accumulator stays the original
        # value object.  A rank > 0 returns a frozen accumulator iff it
        # sends again after its last receive (the scalar freezes on such
        # sends); its last receive is at the largest round <= member, so it
        # freezes iff the next round still has a peer: member + 2L < size.
        finish(0, times[0], values[0])
        if mode == "float":
            results = matrix.tolist()
            for member in range(1, size):
                finish(member, times[member], results[member])
        else:
            matrix.flags.writeable = False
            for member in range(1, size):
                result = matrix[member]
                if member + (2 << (member.bit_length() - 1)) >= size:
                    result = result.copy()
                finish(member, times[member], result)
        return True

    def _world_array(self) -> np.ndarray:
        """The member -> world rank map as an index array (built once)."""
        worlds = self._world_arr
        if worlds is None:
            worlds = self._world_arr = np.asarray(self.world, dtype=np.intp)
        return worlds


class _DisseminationBarrier(_DisseminationPhase):
    kind = "barrier"
    wrap = True


# ---------------------------------------------------------------------------
# Broadcast (binomial tree): resolve top-down.
# ---------------------------------------------------------------------------

class _BcastPhase(_PhaseBase):
    kind = "bcast"

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        # vrank -> arrival of the message from its parent; set when the
        # parent is priced.
        self.arrivals: list = [None] * self.size
        self.wire_value: Any = None
        self.wire_words_cached: Optional[int] = None

    def on_join(self, rank: int) -> None:
        """Price the joined part of the subtree this join unblocks.

        Nothing unless the member is the root or its parent's message is
        priced; else the member and its joined descendants, depth first off
        a stack (children pushed largest subtree first, so the smallest is
        priced first).  That order is the wake order of members finishing
        at one instant, which the event counts pin.
        """
        size = self.size
        root = self.root
        joined = self.joined
        vrank = (rank - root) % size
        if vrank and self.arrivals[vrank] is None:
            return
        worklist = []
        stack = [vrank]
        while stack:
            vrank = stack.pop()
            worklist.append(vrank)
            for child in binomial_children(vrank, size):
                if joined[(child + root) % size] is not None:
                    stack.append(child)
        self._price(worklist)
        for vrank in worklist:
            self._publish((vrank + root) % size)

    def _price_all(self) -> None:
        # A binomial parent carries a smaller vrank than its children, so
        # ascending vrank order prices parents before children.
        self._price(range(self.size))

    def _price(self, vranks) -> None:
        """Price the members ``vranks``, each after its parent.

        Parents before children is the only ordering the per-port write
        sequences depend on: every send port is written by its own member
        alone and every receive port by the member's one parent.  Children
        are enumerated inline, largest subtree first (a memoised child
        table thrashes once a run's (vrank, size) pairs outgrow it).  A
        child's arrival is consumed verbatim as its entry floor, so it is
        its write's cap.
        """
        size = self.size
        root = self.root
        joined = self.joined
        world = self.world
        pmd = self.pmd
        hier = self._hier_sub
        finishes = self.finish
        results = self.results
        arrivals = self.arrivals
        message = self.ports.message
        owner = self._owner
        root_value = self.values[root]
        if self.wire_words_cached is None:
            # Snapshot of the root payload, once for the whole tree
            # (mirrors bcast_schedule's `wire` fast path).
            if isinstance(root_value, np.ndarray) and \
                    not is_frozen_payload(root_value):
                self.wire_value = freeze_payload(root_value.copy())
            else:
                self.wire_value = root_value
            words = payload_words(self.wire_value)
            self.wire_words_cached = words if self.factor == 1.0 \
                else int(round(words * self.factor))
        wire_value = self.wire_value
        wire = self.wire_words_cached
        for vrank in vranks:
            rank = vrank + root
            if rank >= size:
                rank -= size
            entry = joined[rank]
            if vrank:
                arrival = arrivals[vrank]
                if arrival > entry:
                    entry = arrival
                mask = (vrank & -vrank) >> 1
            else:
                mask = (1 << (size - 1).bit_length()) >> 1
            finish = entry
            src = world[rank]
            while mask:
                child_vrank = vrank | mask
                mask >>= 1
                if child_vrank >= size:
                    continue
                child = child_vrank + root
                if child >= size:
                    child -= size
                row = message(src, world[child], entry, entry + pmd, wire,
                              owner, hier)
                arrival = row[5] = row[4]
                arrivals[child_vrank] = arrival
                leave = row[1]
                if leave > finish:
                    finish = leave
            finishes[rank] = finish
            results[rank] = wire_value if vrank else root_value


# ---------------------------------------------------------------------------
# Reduce / gather (binomial tree): resolve bottom-up.
# ---------------------------------------------------------------------------

class _TreeUpPhase(_PhaseBase):
    """Bottom-up resolution shared by reduce and gather.

    A rank is priced once it has joined and all of its children are priced;
    pricing applies the children's receive-port writes in native post order
    (sorted by post time — out-of-resolution-order posts are the norm here,
    since subtrees resolve independently).
    """

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        # rank -> (post_time, leave, wire, payload-ish, transfer) of its
        # send to the parent; shape of the payload field differs per
        # subclass.  Set when the rank is priced (the root's stays None).
        self.up_send: list = [None] * self.size

    def on_join(self, rank: int) -> None:
        priced: list = []
        self._price(self._ready_chain((rank - self.root) % self.size, priced))
        for member in priced:
            self._publish(member)

    def _ready_chain(self, vrank: int, priced: list):
        """Lazy worklist of a join: the ready members from ``vrank`` rootward.

        A member is ready once it has joined and all of its children are
        priced.  For a parent that hinges on the member priced just before
        it, so readiness is tested when the pricer pulls the next vrank.
        Yielded members are noted in ``priced`` for the caller to publish.
        The generator lives in its caller's frame, never on the phase (a
        phase must not reference itself).
        """
        size = self.size
        root = self.root
        up_send = self.up_send
        while True:
            member = (vrank + root) % size
            if self.joined[member] is None:
                return
            for child in binomial_children(vrank, size):
                if up_send[(child + root) % size] is None:
                    return
            priced.append(member)
            yield vrank
            if not vrank:
                return
            vrank &= vrank - 1

    def _price_all(self) -> None:
        # A binomial child carries a larger vrank than its parent, so
        # descending vrank order prices every member after its children.
        self._price(range(self.size - 1, -1, -1))

    def _price(self, vranks) -> None:
        """Price the members ``vranks``, each after all of its children.

        Children before parents is the only ordering the per-port write
        sequences depend on (each member's pricing touches only its own
        ports).  A member's receives fold in post order, and only the max
        of its join and their arrivals is committed (their cap).
        """
        size = self.size
        root = self.root
        joined = self.joined
        up_send = self.up_send
        world = self.world
        factor = self.factor
        hier = self._hier_sub
        finishes = self.finish
        results = self.results
        send = self.ports.send
        receive = self.ports.receive
        owner = self._owner
        up_payload = self._up_payload
        for vrank in vranks:
            rank = vrank + root
            if rank >= size:
                rank -= size
            # The rank's children, largest subtree first, enumerated
            # inline (see the bcast pass).
            children = []
            if not vrank & 1:
                mask = ((vrank & -vrank) if vrank
                        else 1 << (size - 1).bit_length()) >> 1
                while mask:
                    child = (vrank | mask) + root
                    mask >>= 1
                    if child - root < size:
                        children.append(child if child < size
                                        else child - size)
            entry = joined[rank]
            if children:
                edges = [up_send[child] for child in children]
                if len(edges) > 1:
                    edges.sort(key=POST)
                dst = world[rank]
                rows = []
                for post_time, leave, wire, _payload, transfer in edges:
                    row = receive(dst, post_time, leave, transfer, wire,
                                  owner, hier)
                    rows.append(row)
                    arrival = row[4]
                    if arrival > entry:
                        entry = arrival
                for row in rows:
                    row[5] = entry
            if vrank == 0:
                finishes[rank] = entry
                results[rank] = self._root_result(rank, children)
                continue
            payload, local_delay, words = up_payload(rank, children)
            wire = words if factor == 1.0 else int(round(words * factor))
            parent = (vrank & (vrank - 1)) + root
            leave, transfer = send(
                world[rank], world[parent if parent < size else parent - size],
                entry + local_delay, wire)
            up_send[rank] = (entry, leave, wire, payload, transfer)
            finishes[rank] = leave

    def _up_payload(self, rank: int,
                    children: list[int]) -> tuple:  # pragma: no cover
        """(payload, local send delay, payload words) of the up-tree send."""
        raise NotImplementedError

    def _root_result(self, rank: int,
                     children: list[int]):  # pragma: no cover - interface
        raise NotImplementedError


class _ReducePhase(_TreeUpPhase):
    kind = "reduce"

    def _up_payload(self, rank: int, children: list[int]) -> tuple:
        value = self.values[rank]
        contributed = value
        combine_delay = 0.0
        op = self.op
        up_send = self.up_send
        compute_cost = self.compute_cost
        for child in children:
            contribution = up_send[child][3]
            combine_delay += compute_cost(payload_words(contribution))
            value = op(value, contribution)
        if value is not contributed:
            value = freeze_payload(value)
        return value, combine_delay + self.pmd, payload_words(value)

    def _root_result(self, rank: int, children: list[int]):
        # The root consumes the combined value locally; its combine delay is
        # not on any send path, so only the entry time gates its finish.
        value = self.values[rank]
        op = self.op
        up_send = self.up_send
        for child in children:
            value = op(value, up_send[child][3])
        return value


class _GatherPhase(_TreeUpPhase):
    kind = "gather"

    def _up_payload(self, rank: int, children: list[int]) -> tuple:
        # Native payload is a list of (group_rank, value) pairs; only its
        # word count matters for pricing, and only the root materialises the
        # final list.  payload_words(list of pairs) = sum(1 + words(value)).
        words = 1 + payload_words(self.values[rank])
        up_send = self.up_send
        for child in children:
            words += up_send[child][3]
        return words, self.pmd, words

    def _root_result(self, rank: int, children: list[int]):
        return list(self.values)


# ---------------------------------------------------------------------------
# Allreduce: reduce to vrank 0 then bcast, composed on one endpoint.
# ---------------------------------------------------------------------------

class _AllreducePhase(_PhaseBase):
    """Reduce to vrank 0 then bcast, composed from the tree phase classes.

    The halves are fed *synthetically* (``_feed_all``): every member enters
    the reduce at its real join time and the bcast at the instant its
    reduce part ended — the root's entry time, a non-root's up-send leave —
    exactly when the native state machine would have posted the next half's
    schedule.  Per-port write sequences equal the historical inlined pass:
    each send port is written only by its own rank's resolve (children in
    tree order) and each receive port folds its children sorted by post
    time, so the composition is bit-identical to pricing both halves in
    one loop.
    """

    kind = "allreduce"

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, 0, coordinator)

    def on_join(self, rank: int) -> None:
        # The bcast half needs every rank's reduce completion, and the
        # reduce root's cone is everyone — price the whole phase at the last
        # join (cheaper than cascading, identical outcome).
        if self.joined_count < self.size:
            return
        self._resolve_all()

    def _resolve_all(self) -> None:
        size = self.size
        reduce_phase = self._sub_phase(_ReducePhase, self.op, 0)
        reduce_finish, reduce_values = reduce_phase._feed_all(
            self.joined, self.values)
        bcast_phase = self._sub_phase(_BcastPhase, None, 0)
        bcast_finish, bcast_values = bcast_phase._feed_all(
            reduce_finish, [reduce_values[0]] + [None] * (size - 1))
        # Wake in the historical top-down order (root, then reverse-DFS):
        # simultaneous finishes share one engine event whose intra-batch
        # order is insertion order.
        finish = self._finish
        stack = [0]
        while stack:
            member = stack.pop()
            finish(member, bcast_finish[member], bcast_values[member])
            stack.extend(binomial_children(member, size))


# ---------------------------------------------------------------------------
# Exchange: analytic pricing of an irregular point-to-point data exchange.
# ---------------------------------------------------------------------------

_INF = float("inf")


class _ExchangePhase(_PhaseBase):
    """Mirror of the native drain-then-charge-then-wait exchange loop.

    Only ever *fed* (the jquick level phase knows every member's pieces):
    no registered kind, no join path.  A member's value is ``(pieces,
    expected, cap_words, charge)``: its outgoing remote messages ``(dest
    member, words)`` in native posting order (self-copies excluded), the
    number of remote messages it will receive, the slot words it drains
    (the local-work charge argument) and whether that drain charges
    compute.  Its join time is the instant the native code would have
    posted its sends; its result is its inbound message count.

    Each member posts its remote sends back-to-back at its join instant
    (serialised on the send port exactly like the native sequential
    ``isend`` calls), and every send folds into its destination port at the
    sender's join — the native virtual post instant.  A member finishes at

        drain  = max(join, inbound arrivals)
        finish = max(drain + compute(cap_words) if charge else drain,
                     max own-send leave)

    which replays the native ``while received < cap: yield window`` loop,
    the optional ``Blocking(compute(cap))`` charge, and the trailing
    ``Pending(send_requests)`` wait.  Inbound entries keep an infinite cap
    until their consumer's drain is known — their arrivals are still
    re-foldable by out-of-order inserts, and the re-folded value is re-read
    when the drain is computed — then the drain is committed as the cap.
    """

    kind = "exchange"

    def _price_all(self) -> None:
        """Fold all sends in native post order, then drain every member.

        Each receive port must fold the phase's writes sorted by post time,
        ties in member order.  Visiting the members in that order (stable
        sort by join time) folds every write in order, unless another phase
        already wrote the port at a later or order-ambiguous post.  Inbound
        counts are checked once, after all sends are folded, and arrivals
        are read then (a re-insertion may have re-folded them upward).
        """
        size = self.size
        joined = self.joined
        values = self.values
        world = self.world
        factor = self.factor
        hier = self._hier_sub
        message = self.ports.message
        owner = self._owner
        inbound: list = [[] for _ in range(size)]
        max_leave = [0.0] * size
        for rank in sorted(range(size), key=joined.__getitem__):
            pieces = values[rank][0]
            if not pieces:
                continue
            post = joined[rank]
            src = world[rank]
            best_leave = 0.0
            for dest, words in pieces:
                wire = words if factor == 1.0 else int(round(words * factor))
                entry = message(src, world[dest], post, post + 0.0, wire,
                                owner, hier)
                if entry[1] > best_leave:
                    best_leave = entry[1]
                # Re-foldable at will until the drain is known.
                entry[5] = _INF
                inbound[dest].append(entry)
            max_leave[rank] = best_leave
        compute_cost = self.compute_cost
        finishes = self.finish
        results = self.results
        for member in range(size):
            _pieces, expected, cap_words, charge = values[member]
            entries = inbound[member]
            arrived = len(entries)
            if arrived != expected:
                raise LockstepError(
                    f"lockstep exchange: member {member} expected {expected} "
                    f"inbound message(s) but {arrived} were posted — the "
                    f"participants disagree on the assignment")
            drain = joined[member]
            for entry in entries:
                arrival = entry[4]
                if arrival > drain:
                    drain = arrival
            for entry in entries:
                entry[5] = drain
            finish = drain + compute_cost(cap_words) if charge else drain
            leave = max_leave[member]
            if leave > finish:
                finish = leave
            finishes[member] = finish
            results[member] = arrived


# ---------------------------------------------------------------------------
# Hierarchical collectives: one generic phase replaying the schedule IR.
# ---------------------------------------------------------------------------

class _SchedulePhase(_PhaseBase):
    """Lockstep replay of a node-leader schedule-IR program.

    The generic sibling of :class:`_AllreducePhase`'s two-stage composition:
    each IR stage becomes one flat sub-phase over the stage's members (the
    coordinator's phase class of the stage's kind), fed synthetically with
    every member's finish time from the previous stage it participated in —
    exactly the instant the scalar interpreter
    (:func:`repro.collectives.hierarchical.run_schedule`) would have issued
    the stage's flat schedule.  Both executors walk a member through the
    same :meth:`~repro.collectives.ir.Schedule.stages_of` index and route
    values through the IR's carry/prefix registers verbatim, and
    :meth:`~repro.collectives.ir.Schedule.finalize` assembles the results,
    so they are bit-identical by construction.

    Members advance *eagerly*: a member is fed to its next stage the moment
    its previous stage prices it, so the sub-phases resolve incrementally
    exactly as they do under real joins.  That preserves the flat phases'
    invariant — every finish computed during an engine event is at or after
    that event's time — which matters for back-to-back repetitions, where a
    fast member (a reduce leaf, the first node's scan prefix) must wake at
    a finish time that predates slower members' joins; deferring the whole
    program to the last join would try to schedule those wakes in the past.
    Scan stages of at least :data:`VECTOR_CUTOFF` members keep their
    deferred vectorised fast-forward: the sub-scan arms its flush event on
    member 0's join, and the parent schedules a drain event right behind it
    to harvest the vectorised finishes and continue the cascade.
    """

    _hier_sub = True

    def __init__(self, ep, op, root, coordinator, schedule):
        super().__init__(ep, op, root, coordinator)
        self.kind = schedule.op_name
        self.obs_label = schedule.ir_token()
        if schedule.size != self.size:
            raise LockstepError(
                f"lockstep {self.kind}: schedule built for group size "
                f"{schedule.size}, phase opened with {self.size}")
        self.schedule = schedule
        self._stage_op = schedule.stage_op(op)
        self._pos = [0] * self.size
        self._times: list = [None] * self.size
        self._carry: list = [None] * self.size
        self._prefix: list = [None] * self.size
        # stage -> its sub-phase, and which of its members were harvested.
        self._stage_phases: dict = {}
        self._harvested: dict = {}
        self._drain_pending: set = set()

    def on_join(self, rank: int) -> None:
        self._times[rank] = self.joined[rank]
        self._carry[rank] = self.values[rank]
        self._run([rank])

    def _stage_phase(self, stage):
        phase = self._stage_phases.get(stage)
        if phase is None:
            world = self.world
            phase = self._stage_phases[stage] = self._sub_phase(
                self.coordinator._KINDS[stage.kind], self._stage_op,
                stage.root,
                TransportEndpoint(
                    self.transport, context=self.context, tag=self.tag,
                    size=len(stage.members),
                    to_world=[world[g] for g in stage.members].__getitem__,
                    word_cost_factor=self.factor,
                    per_message_delay=self.pmd))
            self._harvested[stage] = [False] * len(stage.members)
        return phase

    def _run(self, worklist: list) -> None:
        """Drain the cascade: feed ready members, harvest, repeat."""
        schedule = self.schedule
        pos = self._pos
        times = self._times
        carry = self._carry
        prefix = self._prefix
        while worklist:
            g = worklist.pop()
            steps = schedule.stages_of(g)
            at = pos[g]
            if at == len(steps):
                self._finish(g, times[g],
                             schedule.finalize(g, carry[g], prefix[g],
                                               self.op))
                continue
            stage, i = steps[at]
            phase = self._stage_phase(stage)
            phase._join_at(i, (prefix if stage.src == "prefix" else carry)[g],
                           times[g])
            if stage.kind == "scan" and phase._flush_armed:
                # The sub-scan deferred its vectorised flush to an engine
                # event at this instant; harvest right behind it.  Same-time
                # joins still pending in the queue were scheduled earlier,
                # so they all feed before the flush fires and the whole
                # stage vectorises.
                if stage not in self._drain_pending:
                    self._drain_pending.add(stage)
                    self.engine.schedule_call_at(
                        self.engine._now, self._drain, stage)
                continue
            self._harvest(stage, worklist)

    def _harvest(self, stage, worklist: list) -> None:
        """Advance every member the stage's sub-phase has newly priced."""
        phase = self._stage_phases[stage]
        if phase.resolved_count == 0:
            return
        harvested = self._harvested[stage]
        finish = phase.finish
        results = phase.results
        to_prefix = stage.dst == "prefix"
        root = stage.root
        times = self._times
        carry = self._carry
        prefix = self._prefix
        pos = self._pos
        for i, g in enumerate(stage.members):
            if harvested[i] or finish[i] is None:
                continue
            harvested[i] = True
            times[g] = finish[i]
            if to_prefix:
                # Prefix delivery: the stage root's registers survive (its
                # carry is already its final scan value).
                if i != root:
                    prefix[g] = results[i]
            else:
                carry[g] = results[i]
            pos[g] += 1
            worklist.append(g)

    def _drain(self, stage) -> None:
        """Engine-event continuation behind a sub-scan's deferred flush."""
        self._drain_pending.discard(stage)
        worklist: list = []
        try:
            self._harvest(stage, worklist)
            self._run(worklist)
        except LockstepError as exc:
            # Engine-event context (scheduled behind a sub-scan's flush):
            # record and wrap like _flush_event does, honouring the
            # honest-refusal contract.
            self._record_refusal(exc)
            raise RankFailedError(self.world[0], exc) from exc
        self._flush_wakes()
        if self.resolved_count == self.size:
            self.coordinator.retire(self)


SpmdCoordinator._KINDS.update(
    bcast=_BcastPhase, reduce=_ReducePhase, allreduce=_AllreducePhase,
    scan=_DisseminationPhase, gather=_GatherPhase,
    barrier=_DisseminationBarrier)
