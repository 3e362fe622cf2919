"""Janus Quicksort (JQuick) — Section VII of the paper.

JQuick is a recursive distributed quicksort with *perfect data balance*: after
every level of recursion each process holds exactly its share (⌊n/p⌋ or
⌈n/p⌉) of the data.  Process groups therefore split at arbitrary element
boundaries, and the process whose slots straddle the boundary — the *janus
process* — belongs to both subtasks and works on them simultaneously using
nonblocking operations.

One distributed level of recursion (Fig. 3) consists of

1. pivot selection (median of random samples, gathered at the group's first
   process and broadcast back),
2. local partitioning into small and large elements (with tie-breaking on the
   elements' current global slots, so duplicate keys behave like unique keys),
3. data assignment: an exclusive prefix sum of the small/large counts followed
   by the greedy assignment that fills target processes from left to right,
4. data exchange: nonblocking sends to the (at most four) targets, receives
   until the own capacity is reached.

Subtasks covering only one or two processes become *base cases* and are
deferred to a second phase so that a janus process never delays a larger
subtask (Section VII).

The algorithm is expressed over an abstract :class:`~repro.sorting.backends.JQuickBackend`;
with :class:`~repro.sorting.backends.RbcBackend` the per-level group
communicators are RBC splits (local, constant time), with
:class:`~repro.sorting.backends.NativeMpiBackend` they are blocking
``MPI_Comm_create_group`` calls — reproducing the comparison of Fig. 8.

Compute path
------------
All per-level local work runs through the fused kernels of
:mod:`repro.sorting.kernels` and the stateless sampler of
:mod:`repro.core.rand`: partitioning produces ``(small, large, count)`` in
one kernel call (no mask / arange materialisation), pivot samples are drawn
by counter-based hashing with zero per-task generator construction, and the
exchange buffer is handed to the two child tasks as a pair of frozen
(read-only) views — no copies, and base-case messages sent from those views
(bare arrays on the wire) skip the transport's defensive snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..collectives.endpoint import TransportEndpoint
from ..core import rand
from ..messaging import RequestSet
from ..mpi.datatypes import SUM
from ..rbc.tags import RESERVED_TAG_BASE
from ..simulator.process import RankEnv
from .assignment import greedy_assignment
from .backends import GroupComm, JQuickBackend, NativeMpiBackend, RbcBackend
from .batched import SortPlan, join_jq_level
from .basecase import (
    BaseCaseTask,
    local_sort_cost,
    quickselect_cost,
    select_left_part,
    select_right_part,
    sort_local,
)
from .intervals import capacity, layout_constants
from .kernels import fused_partition
from .pivot import PivotConfig, median_of_samples, sample_count
from .tasks import Blocking, Pending, Spawn, run_task_scheduler

__all__ = ["JQUICK_BATCH_MIN_RANKS", "JQuickConfig", "JQuickStats", "jquick",
           "jquick_rbc", "jquick_native_mpi"]

#: Smallest world size at which the cross-rank batched tier engages: below
#: this the per-record bookkeeping costs more than the per-rank Python it
#: replaces.
JQUICK_BATCH_MIN_RANKS = 64


# Purposes of the per-task tags (kept disjoint from RBC's reserved tag space).
_PURPOSE_SAMPLE = 0
_PURPOSE_PIVOT = 1
_PURPOSE_SCAN = 2
_PURPOSE_TOTAL = 3
_PURPOSE_DATA = 4
_PURPOSE_BASECASE = 5
_NUM_PURPOSES = 6
_TAG_BASE = 1024


@dataclass(frozen=True)
class JQuickConfig:
    """Tunable parameters of Janus Quicksort.

    Attributes
    ----------
    pivot:
        Pivot-selection strategy and constants (Section VIII-A).
    seed:
        Base seed of the (deterministic, per-task) sampling stream: the
        stateless counter-based hash of :mod:`repro.core.rand` — no per-task
        generator construction, restart-deterministic.
    tie_breaking:
        Handle duplicate keys by comparing (value, global slot) pairs.
    schedule:
        Order in which a janus process enters its two subtasks — relevant for
        the blocking communicator creations of the native backend:
        ``"alternating"`` (every other janus creates the left group first) or
        ``"cascaded"`` (every janus creates the left group first).
    charge_local_work:
        Charge the simulated time of partitioning / sorting / copying; disable
        to time only the communication.  The charges of one level are fused
        into fewer engine events (identical totals).
    max_levels:
        Safety bound on the recursion depth per task.

    None of these selects an execution tier.  The cross-rank batched tier
    (:mod:`repro.sorting.batched`: a level's sampling / partition /
    assignment stacked into ragged NumPy sweeps over every group of a
    recursion round, its collectives priced in SPMD lockstep, its exchange
    analytically) engages by itself where it applies — the RBC backend, a
    flat machine with a uniform link, the communicator-bound layout
    ``n == p`` of the paper's Fig. 8 (no janus ranks, every split on a rank
    boundary) and ``p >= JQUICK_BATCH_MIN_RANKS`` on the default cluster; the
    sort runs on the per-rank frontier otherwise (always on the oracle) and
    ``ClusterResult.obs["tier_declined"]`` names the reason.  Results, stats
    (modulo the ``batched_levels`` counter) and simulated times are
    bit-identical either way.
    """

    pivot: PivotConfig = field(default_factory=PivotConfig)
    seed: int = 0
    tie_breaking: bool = True
    schedule: str = "alternating"
    charge_local_work: bool = True
    max_levels: int = 300

    def __post_init__(self):
        if self.schedule not in ("alternating", "cascaded"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class JQuickStats:
    """Per-process execution statistics of one JQuick run."""

    levels: int = 0
    distributed_steps: int = 0
    degenerate_splits: int = 0
    janus_episodes: int = 0
    base_cases_one: int = 0
    base_cases_two: int = 0
    exchange_messages_received: int = 0
    max_exchange_messages_per_step: int = 0
    comm_creations: int = 0
    #: Distributed levels executed on the cross-rank batched tier.  The only
    #: stats field allowed to differ between a batched run and its scalar
    #: reference.
    batched_levels: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def jquick(env: RankEnv, backend: JQuickBackend, local_data: np.ndarray,
           config: Optional[JQuickConfig] = None):
    """Sort ``local_data`` across all processes (env-level generator).

    ``local_data`` must already be laid out in the balanced global slot layout
    (rank ``i`` holds ``capacity(i, n, p)`` elements); the workload generators
    in :mod:`repro.bench.workloads` produce exactly this layout.  Returns
    ``(sorted_local_array, JQuickStats)``: afterwards the concatenation of the
    per-rank arrays in rank order is globally sorted and every rank holds
    exactly its capacity.

    Returns the run's generator directly (rather than delegating with
    ``yield from``): callers drive it identically, and every engine resume
    traverses one stack frame less.
    """
    config = config or JQuickConfig()
    run = _JQuickRun(env, backend, config)
    return run.execute(np.asarray(local_data))


def jquick_rbc(env: RankEnv, world, local_data, config: Optional[JQuickConfig] = None):
    """Convenience wrapper: JQuick over an :class:`RbcComm` (env generator)."""
    return jquick(env, RbcBackend(world), local_data, config)


def jquick_native_mpi(env: RankEnv, world, local_data,
                      config: Optional[JQuickConfig] = None):
    """Convenience wrapper: JQuick over a native :class:`MpiCommunicator`."""
    return jquick(env, NativeMpiBackend(world), local_data, config)


class _JQuickRun:
    """State of one JQuick execution on one simulated process."""

    def __init__(self, env: RankEnv, backend: JQuickBackend, config: JQuickConfig):
        self.env = env
        self.backend = backend
        self.config = config
        self.rank = backend.sort_rank
        self.p = backend.sort_size
        self.n = 0
        self.dtype = np.float64
        self.stats = JQuickStats()
        self.base_cases: list[BaseCaseTask] = []
        self.fragments: dict[int, np.ndarray] = {}
        # Cross-rank batched tier (decided in execute() once n is known).
        self._batched = False
        self._plan: Optional[SortPlan] = None
        # Slot-layout constants, filled in by execute() once n is known.
        self._my_start = 0
        self._my_end = 0
        self._q = 0
        self._r = 0
        self._owner_boundary = 0

    # ------------------------------------------------------------------ entry

    def execute(self, data: np.ndarray):
        """Env-level generator running both phases; returns (array, stats)."""
        self.dtype = data.dtype
        world = self.backend.world_channel()

        # Agree on the global input size and validate the balanced layout.
        # This is the one world-level collective every rank reaches in the
        # same phase, so it opts in to SPMD lockstep pricing; the group-level
        # collectives deeper in the recursion must not (a janus rank serves
        # two groups at once and interleaves exchange point-to-point traffic
        # with them, violating the quiet-ports lockstep contract).
        saved_lockstep = self.env.lockstep_collectives
        self.env.lockstep_collectives = True
        try:
            request = world.iallreduce(int(data.size), SUM, tag=_TAG_BASE - 1)
            yield from self.env.wait_until(request.test)
        finally:
            self.env.lockstep_collectives = saved_lockstep
        self.n = int(request.result())
        expected = capacity(self.rank, self.n, self.p) if self.n else 0
        if data.size != expected:
            raise ValueError(
                f"rank {self.rank}: expected {expected} elements in the balanced "
                f"layout for n={self.n}, p={self.p}, got {data.size}")

        if self.n == 0:
            return data.copy(), self.stats

        # Fixed slot-layout arithmetic of this run
        # (intervals.layout_constants semantics, inlined below in _owner:
        # these run on every level of every task).
        q, r, boundary = layout_constants(self.n, self.p)
        self._q, self._r = q, r
        self._owner_boundary = boundary
        self._my_start = self.rank * q + min(self.rank, r)
        self._my_end = self._my_start + (q + 1 if self.rank < r else q)

        self._decide_batched()

        if self._batched:
            yield from self._batched_sort(data)
        elif self._my_end > self._my_start:
            yield from run_task_scheduler(
                self.env, [self.distributed_task(0, self.n, data, depth=0)])
        yield from self.run_base_cases()
        result = self.finalize()
        return result, self.stats

    def _batch_ineligibility(self) -> Optional[str]:
        """Why the batched tier does not engage (``None`` when it does)."""
        if self.env.engine.reference:
            return "the reference engine runs every level event by event"
        if not isinstance(self.backend, RbcBackend):
            return "it requires the RBC backend"
        world = self.backend.world
        if world.range.world_first is None:
            return "it requires a rank-affine world communicator"
        transport = self.env.transport
        if transport._uniform_link is None or transport._node_of is not None:
            return "it requires a flat machine with a uniform link model"
        if self.n != self.p:
            return ("it requires the communicator-bound layout n == p "
                    f"(got n={self.n}, p={self.p})")
        if self.p < JQUICK_BATCH_MIN_RANKS:
            return (f"it pays off from {JQUICK_BATCH_MIN_RANKS} ranks "
                    f"(got p={self.p})")
        return None

    def _decide_batched(self) -> None:
        """Engage the cross-rank batched tier where it applies; otherwise
        leave the reason on the transport (``obs["tier_declined"]``)."""
        transport = self.env.transport
        reason = self._batch_ineligibility()
        if reason is not None:
            transport.decline_tier(f"batched sort: {reason}")
            return
        self._batched = True
        if transport._sort_plan is None:
            transport._sort_plan = SortPlan()
        self._plan = transport._sort_plan

    # ------------------------------------------------------- slot arithmetic

    def _owner(self, slot: int) -> int:
        """Rank owning global slot ``slot`` (owner_of, without revalidation)."""
        if slot < self._owner_boundary:
            return slot // (self._q + 1)
        return self._r + (slot - self._owner_boundary) // self._q

    # -------------------------------------------------------- distributed phase

    def _batched_sort(self, data: np.ndarray):
        """Env-level generator: the distributed phase on the batched tier.

        One join for the whole sort: the rank enters the root level with
        its row and wakes once, at its native finish time of its last
        distributed level, with what the per-rank loop would hold then —
        the task it enters next, its slot view there and its counters over
        the levels it ran (:meth:`.batched.SortPlan.price`) — and replays
        its stats and that loop's entry checks from them.  No group
        communicator is materialised (the plan prices the creation charge
        of every fresh interval), and at ``n == p`` every split lands on a
        rank boundary: no janus rank, no second task.
        """
        request = join_jq_level(self.env, self._plan.root(self), data)
        yield from self.env.wait_until(request.test)
        lo, hi, level, data, degenerate, creations, messages, most = \
            request.result()
        stats = self.stats
        stats.levels = stats.distributed_steps = stats.batched_levels = level
        stats.degenerate_splits = degenerate
        stats.comm_creations = creations
        stats.exchange_messages_received = messages
        stats.max_exchange_messages_per_step = most
        first, last = self._owner(lo), self._owner(hi - 1)
        if last - first > 1:
            raise RuntimeError(
                f"rank {self.rank}: exceeded {self.config.max_levels} levels "
                f"on task [{lo}, {hi})")
        self._defer_base_case(lo, hi, data, first, last)

    def distributed_task(self, lo: int, hi: int, data: np.ndarray, depth: int):
        """Task coroutine for one subtask over global slots ``[lo, hi)``.

        Yields Pending / Blocking / Spawn.  The task interval is carried as
        two plain ints — this loop body runs once per level of every task on
        every rank, and a frozen-dataclass interval per level was measurable.
        """
        config = self.config
        comm: Optional[GroupComm] = None
        # Communicator reuse is keyed on the *task interval*: a degenerate
        # split retries the same interval, so every member takes the same
        # reuse decision; after a real split the interval always changes and a
        # fresh communicator is created on every level — the behaviour the
        # paper attributes to recursive algorithms on native MPI.
        comm_interval: Optional[tuple[int, int]] = None
        level = depth

        while True:
            first, last = self._owner(lo), self._owner(hi - 1)
            span = last - first + 1
            if span <= 2:
                self._defer_base_case(lo, hi, data, first, last)
                return None
            if level - depth > config.max_levels:
                raise RuntimeError(
                    f"rank {self.rank}: exceeded {config.max_levels} levels on task "
                    f"[{lo}, {hi})")

            if level >= self.stats.levels:
                self.stats.levels = level + 1
            self.stats.distributed_steps += 1

            group_rank = self.rank - first
            group_size = span
            my_lo = lo if lo > self._my_start else self._my_start
            my_hi = hi if hi < self._my_end else self._my_end

            if comm_interval != (lo, hi):
                comm = yield Blocking(
                    self.backend.make_group_comm(first, last))
                comm_interval = (lo, hi)
                self.stats.comm_creations += 1

            # --- 1. pivot selection ------------------------------------------
            pivot_value, pivot_slot = yield from self._select_pivot(
                comm, lo, hi, data, my_lo, level, group_rank, group_size)

            # --- 2. local partitioning (charged with the sampling) -----------
            small_vals, large_vals, small_n = fused_partition(
                data, my_lo, pivot_value, pivot_slot,
                tie_breaking=config.tie_breaking)
            counts = np.array([small_n, data.size - small_n], dtype=np.int64)

            # --- 3. prefix sums and totals -----------------------------------
            request = comm.iscan(counts, SUM,
                                 tag=self._tag(lo, _PURPOSE_SCAN))
            yield request
            inclusive = request.result()
            small_prefix = int(inclusive[0]) - small_n
            large_prefix = int(inclusive[1]) - (data.size - small_n)

            totals_payload = (inclusive if group_rank == group_size - 1
                              else None)
            request = comm.ibcast(totals_payload, root=group_size - 1,
                                  tag=self._tag(lo, _PURPOSE_TOTAL))
            yield request
            total_small = int(request.result()[0])

            if total_small == 0 or total_small == hi - lo:
                # Degenerate split (pivot was an extreme element): retry the
                # level with fresh samples; the group stays the same, so the
                # communicator is reused.
                self.stats.degenerate_splits += 1
                level += 1
                continue

            # --- 4./5. data assignment and exchange --------------------------
            left_data, right_data, messages = yield from self._exchange(
                comm, lo, my_lo, my_hi, total_small, small_prefix,
                large_prefix, small_vals, large_vals)

            self.stats.exchange_messages_received += messages
            if messages > self.stats.max_exchange_messages_per_step:
                self.stats.max_exchange_messages_per_step = messages

            # --- 6. recurse ----------------------------------------------------
            split = lo + total_small
            level += 1
            in_left = my_lo < split
            in_right = my_hi > split

            if in_left and in_right:
                self.stats.janus_episodes += 1
                if self._left_first():
                    other_lo, other_hi, other_data = split, hi, right_data
                    hi, data = split, left_data
                else:
                    other_lo, other_hi, other_data = lo, split, left_data
                    lo, data = split, right_data
                yield Spawn(self.distributed_task(other_lo, other_hi,
                                                  other_data, depth=level))
                continue
            if in_left:
                hi, data = split, left_data
            elif in_right:
                lo, data = split, right_data
            else:  # pragma: no cover - impossible: my slots lie in one side
                return None

    def _left_first(self) -> bool:
        if self.config.schedule == "cascaded":
            return True
        return self.rank % 2 == 0

    # ----------------------------------------------------------- pivot selection

    def _select_pivot(self, comm: GroupComm, lo: int, hi: int, data: np.ndarray,
                      my_lo: int, level: int, group_rank: int, group_size: int):
        """Sub-coroutine: sampled-median pivot selection on the task's group.

        Returns ``(pivot_value, pivot_slot)``.
        """
        config = self.config
        size = data.size
        total = hi - lo
        sigma = sample_count(config.pivot, group_size, total / group_size)
        local_count = max(1, math.ceil(sigma * size / total)) if size else 0
        indices = rand.sample_indices(
            rand.sample_key(config.seed, lo, hi, level, self.rank),
            local_count, size)
        if indices.size:
            values = data[indices]
            sample_slots = my_lo + indices
        else:
            values = data[:0]
            sample_slots = indices

        if config.charge_local_work:
            # One engine event for this level's sampling + partitioning (the
            # partition size is already known).
            yield Blocking(self.env.compute(local_count + size))

        request = comm.igatherv((values, sample_slots), root=0,
                                tag=self._tag(lo, _PURPOSE_SAMPLE))
        yield request
        if group_rank == 0:
            pivot = median_of_samples(request.result())
            payload = (pivot.value, pivot.slot)
        else:
            payload = None
        request = comm.ibcast(payload, root=0,
                              tag=self._tag(lo, _PURPOSE_PIVOT))
        yield request
        value, slot = request.result()
        return float(value), int(slot)

    # ---------------------------------------------------------------- exchange

    def _exchange(self, comm: GroupComm, lo: int, my_lo: int,
                  my_hi: int, total_small: int, small_prefix: int,
                  large_prefix: int, small_vals: np.ndarray,
                  large_vals: np.ndarray):
        """Sub-coroutine: greedy assignment + nonblocking data exchange.

        Returns ``(left_part, right_part, remote_messages_received)`` where the
        two parts are this process's portions of the left and right subtasks —
        frozen views of one freshly filled buffer (no copies; ownership of the
        buffer passes to the two subtasks, which never write to their data).
        """
        cap = my_hi - my_lo
        buffer = np.empty(cap, dtype=self.dtype)
        received = 0

        small_pieces, large_pieces = greedy_assignment(
            lo=lo, total_small=total_small, small_prefix=small_prefix,
            large_prefix=large_prefix, small_count=small_vals.size,
            large_count=large_vals.size, n=self.n, p=self.p)

        tag = self._tag(lo, _PURPOSE_DATA)
        group_first = comm.group_first
        send_requests = []
        for pieces, source in ((small_pieces, small_vals), (large_pieces, large_vals)):
            for piece in pieces:
                chunk = source[piece.local_start:piece.local_start + piece.length]
                if piece.dest == self.rank:
                    offset = piece.slot_start - my_lo
                    buffer[offset:offset + piece.length] = chunk
                    received += piece.length
                else:
                    send_requests.append(
                        comm.isend((piece.slot_start, chunk),
                                   piece.dest - group_first, tag))

        messages = 0
        if received < cap:
            # One multi-shot wildcard receive drains the whole exchange: every
            # completion is consumed with ``take()``, re-arming the same
            # request for the next fragment (same matching order as a fresh
            # request per message, without the per-message allocations).  The
            # Pending window is reused for the same reason.
            request = comm.irecv_any(tag)
            window = Pending((request,))
            while received < cap:
                yield window
                slot_start, chunk = request.take()
                offset = slot_start - my_lo
                buffer[offset:offset + len(chunk)] = chunk
                received += len(chunk)
                messages += 1

        if self.config.charge_local_work:
            yield Blocking(self.env.compute(cap))
        if send_requests:
            yield Pending(send_requests)

        cut = min(max(lo + total_small, my_lo), my_hi) - my_lo
        # The buffer is an owned, fully filled array; freeze it (direct flag
        # write) so the two views handed to the child tasks — and every
        # base-case message sent from them — skip the transport snapshot.
        buffer.flags.writeable = False
        return buffer[:cut], buffer[cut:], messages

    def _root_endpoint(self) -> TransportEndpoint:
        """Group endpoint of the batched sort's root level (see
        :mod:`.batched`): the whole world, keyed by its context and the root
        task, so one generation ever exists per sort."""
        world = self.backend.world
        return TransportEndpoint(
            self.env.transport,
            context=("jql", world.mpi_context(), 0, self.n, 0),
            tag=self._tag(0, _PURPOSE_DATA), size=self.p,
            world_affine=(world.range.world_first, world.range.world_stride))

    # -------------------------------------------------------------- base cases

    def _defer_base_case(self, lo: int, hi: int, data: np.ndarray,
                         first: int, last: int) -> None:
        task = BaseCaseTask(lo=lo, hi=hi, data=data,
                            first_rank=first, last_rank=last)
        self.base_cases.append(task)
        if task.two_process:
            self.stats.base_cases_two += 1
        else:
            self.stats.base_cases_one += 1

    def run_base_cases(self):
        """Env-level generator: second phase, after all distributed tasks."""
        channel = self.backend.world_channel()
        charge = self.config.charge_local_work

        # Post every outgoing base-case message first so no partner ever waits
        # on this process's internal ordering.
        send_requests = []
        for task in self.base_cases:
            if not task.two_process:
                continue
            partner = task.last_rank if task.first_rank == self.rank else task.first_rank
            send_requests.append(channel.isend(
                task.data, channel.to_group(partner),
                self._tag(task.lo, _PURPOSE_BASECASE)))

        # All single-process local sorts are charged as one engine event up
        # front.
        if charge:
            local_ops = sum(local_sort_cost(task.data.size)
                            for task in self.base_cases if not task.two_process)
            if local_ops:
                yield from self.env.compute(local_ops)

        for task in self.base_cases:
            if not task.two_process:
                self.fragments[task.lo] = sort_local(task.data)
                continue
            partner = task.last_rank if task.first_rank == self.rank else task.first_rank
            request = channel.irecv(channel.to_group(partner),
                                    self._tag(task.lo, _PURPOSE_BASECASE))
            yield from self.env.wait_until(request.test)
            their_data = request.result()
            combined = np.concatenate([task.data, np.asarray(their_data)])
            if charge:
                yield from self.env.compute(
                    quickselect_cost(combined.size) + local_sort_cost(task.data.size))
            if self.rank == task.first_rank:
                kept = select_left_part(combined, task.data.size)
            else:
                kept = select_right_part(combined, task.data.size)
            self.fragments[task.lo] = kept

        if send_requests:
            # Incremental completion: each wake-up re-tests only the sends
            # that are still pending (O(N) across the window, not O(N²)).
            tracker = RequestSet(send_requests)
            yield from self.env.wait_until(tracker.test)

    # ------------------------------------------------------------------ output

    def finalize(self) -> np.ndarray:
        """Concatenate the sorted fragments of this process in slot order."""
        if not self.fragments:
            return np.empty(0, dtype=self.dtype)
        if len(self.fragments) == 1:
            result = next(iter(self.fragments.values()))
        else:
            keys = sorted(self.fragments)
            result = np.concatenate([self.fragments[key] for key in keys])
        expected = self._my_end - self._my_start
        if result.size != expected:
            raise AssertionError(
                f"rank {self.rank}: produced {result.size} elements, expected "
                f"{expected} — perfect balance violated")
        return result

    # -------------------------------------------------------------------- tags

    def _tag(self, lo: int, purpose: int) -> int:
        """Per-task, per-purpose tag.

        ``lo`` uniquely identifies a task among all *simultaneously active*
        tasks (their slot intervals are disjoint), which is all that tag
        separation needs; FIFO ordering of the transport covers reuse of the
        same ``lo`` by a later child task.  The tag stays below RBC's reserved
        tag space.
        """
        tag = _TAG_BASE + (lo * _NUM_PURPOSES + purpose)
        return tag % (RESERVED_TAG_BASE - _TAG_BASE) + _TAG_BASE
