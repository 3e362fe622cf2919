"""Cross-rank batching of JQuick distributed levels (the paper-scale tier).

At paper scale (p = 2^15) the per-rank Python work of one distributed level —
a counter-key hash, a handful of sample draws, a partition of a few elements,
a two-piece greedy assignment — is pure dispatch overhead: every rank of
every group performs the *same* sequence on different rows.  This module
splits a level into what depends on simulated time and what does not:

* **Data, once per recursion round** (:class:`SortPlan`, :class:`_Round`).
  Sample streams are keyed by ``(seed, lo, hi, level, rank)``, the pivot
  follows from the samples, the partition from the pivot, the assignment
  from the counts — none of it from *when* a group gets there.  When the
  sort's root level resolves, the plan owns the n values in slot order and
  the list of active task intervals, and from then on computes each round
  for all of its groups at once: one sampling grid, one segmented median,
  one partition and one greedy assignment (the ``*_rows`` kernels of
  :mod:`repro.core.rand`, :mod:`repro.sorting.kernels` and
  :mod:`repro.sorting.assignment`, with one pivot, tie cut and task
  interval per group), then derives the next round's tasks and values.  It
  holds one round at a time, O(p).
* **Pricing, once per group, round by round** (:class:`_JQLevelPhase`).
  Each rank joins the sort once (:func:`join_jq_level`, on entering the
  root level, with its row).  When the root level's last member has joined,
  :meth:`SortPlan.price` prices every round right there, breadth-first: at
  ``n == p`` a round's groups are disjoint rank sets, and a group's level
  depends only on its members' finish times of the previous round (plus
  the creation and sampling charges), so round ``r`` is fed round
  ``r - 1``'s finish times.  One level phase per (group, task interval,
  level) prices the level's charges, its five collective sub-steps and the
  exchange at once, from the group's rows ``[start, start + size)`` of the
  round's arrays.  Every rank is then woken once, at its last level's
  finish, with its outcome (:meth:`SortPlan.price`): the task it enters
  next, its slot view and its level counters, from which it replays its
  :class:`~repro.sorting.jquick.JQuickStats`: one join per rank per sort.
  A p = 1024 sort processes 7 650 engine events instead of the 17 159 of
  one join and one wake per rank and level.

The plan lives on the simulation's transport (all simulated ranks share one
interpreter; :meth:`~repro.simulator.network.Transport.close` empties it) and
serves one sort at a time.  Pricing runs ahead of the engine clock, so the
receive-port logs are pruned against the plan's frontier instead
(:attr:`PortLog.frontier <repro.core.portlog.PortLog>`): the earliest
instant any write still to come can post — the earliest entry into the round being priced, or the
earliest finish of a rank that already left the sort (it may join other
phases from then on), whichever is first.

Bit-identity: every batched kernel is the bit-exact row-stacked form of the
scalar call it replaces (pinned segment by segment in
``tests/sorting/test_batched_tiers.py``), and every sub-step is priced by the
phase class of :mod:`repro.core.spmd` that prices the unfused collective, fed
whole.  The tier therefore reproduces the scalar frontier's results and
simulated times exactly; the differential suite in
``tests/sorting/test_jquick_batched.py`` pins this end to end, and
``tests/core/test_fastforward.py`` pins fed against member-by-member pricing
of the scan and exchange phases.
"""

from __future__ import annotations

import numpy as np

from ..collectives.endpoint import TransportEndpoint
from ..core import rand
from ..core.spmd import (
    LockstepError,
    SpmdCoordinator,
    _BcastPhase,
    _ExchangePhase,
    _GatherPhase,
    _DisseminationPhase,
    _PhaseBase,
    coordinator_of,
)
from ..mpi.datatypes import SUM
from ..rbc.comm import RBC_CREATE_OPS
from .assignment import greedy_assignment_rows
from .intervals import layout_constants, owners_of
from .kernels import fused_partition_rows
from .pivot import sample_count

__all__ = ["SortPlan", "join_jq_level"]


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, counts[0], counts[0] + counts[1], ...]`` (exclusive prefix sums
    with the total appended)."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class _Round:
    """The data work of one recursion round, for all of its groups at once.

    The round's tasks are the disjoint slot intervals ``[lo[g], hi[g])`` in
    slot order; task ``g``'s group is the ranks ``first[g]`` onwards owning
    those slots, and the round's *rows* are the groups' members back to
    back — group ``g`` is the rows ``row_bounds[g]:row_bounds[g + 1]``, a row
    holding its rank's slots inside the task.  Everything a level phase
    feeds its sub-steps with is kept per row (plain lists where the phase
    reads scalars), so a group's share is a slice.  ``fresh[g]`` is false
    on a task that retries its predecessor's degenerate split (the group
    keeps its communicator).
    """

    __slots__ = (
        "level", "lo", "hi", "first", "fresh", "ranks", "group_of",
        "row_bounds",
        "row_sizes", "local_counts", "sample_values", "sample_slots",
        "sample_bounds", "pivots", "counts", "buffer", "pieces",
        "piece_bounds", "expected", "retry", "next_lo", "next_hi",
        "continuing", "successor",
    )

    def __init__(self, config, n: int, p: int, level: int, lo: np.ndarray,
                 hi: np.ndarray, values: np.ndarray, fresh: np.ndarray):
        self.level = level
        num_groups = lo.size
        q, r, _boundary = layout_constants(n, p)

        # Row layout (owner intervals clipped to the task interval) — same
        # arithmetic as the members' my_lo / my_hi.
        first = owners_of(lo, n, p)
        sizes = owners_of(hi - 1, n, p) - first + 1
        row_bounds = _offsets(sizes)
        group_of = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
        # Row i of group g is rank first[g] + (i - row_bounds[g]).
        row_shift = (row_bounds[:-1] - first)[group_of]
        ranks = np.arange(group_of.size, dtype=np.int64) - row_shift
        starts = ranks * q + np.minimum(ranks, r)
        row_lo = np.maximum(lo[group_of], starts)
        row_sizes = np.minimum(hi[group_of], starts + q + (ranks < r)) - row_lo
        offsets = _offsets(row_sizes)

        # The sampling grid.  Mirrors the scalar per-rank expression
        # ``max(1, ceil(sigma * size / total)) if size else 0`` bit for bit
        # (same float operand order elementwise).
        total = hi - lo
        sigma = np.array(
            [sample_count(config.pivot, size, span / size)
             for size, span in zip(sizes.tolist(), total.tolist())],
            dtype=np.int64)
        local_counts = np.where(
            row_sizes > 0,
            np.maximum(1, np.ceil(sigma[group_of] * row_sizes
                                  / total[group_of])).astype(np.int64),
            0)
        keys = rand.sample_keys(config.seed, lo[group_of], hi[group_of],
                                level, ranks)
        indices, sample_offsets = rand.sample_indices_rows(
            keys, local_counts, row_sizes)
        # Row i drew values/slots[sample_offsets[i]:sample_offsets[i + 1]] —
        # the row-stacked form of its native (row[picks], row_lo + picks).
        sample_values = values[indices + np.repeat(offsets[:-1],
                                                   local_counts)]
        sample_slots = indices + np.repeat(row_lo, local_counts)

        # Every group's pivot: the median of its samples by (value, slot),
        # as median_of_samples picks it from the root's gathered chunks.
        group_samples = sample_offsets[row_bounds]
        sample_counts = np.diff(group_samples)
        order = np.lexsort((sample_slots, sample_values,
                            np.repeat(np.arange(num_groups), sample_counts)))
        middle = order[group_samples[:-1] + (sample_counts - 1) // 2]
        pivot_values = sample_values[middle].astype(np.float64)
        pivot_slots = sample_slots[middle]

        # The fused partition, every group around its own pivot.
        if config.tie_breaking:
            cuts = np.clip(pivot_slots[group_of] - row_lo, 0, row_sizes)
        else:
            cuts = np.zeros(row_sizes.size, dtype=np.int64)
        buffer, small_counts = fused_partition_rows(
            values, offsets, cuts, pivot_values, row_bounds)
        # A group's range of the buffer *is* its task's slot region after
        # the exchange; freeze it so the views handed to child tasks (and
        # base-case messages sent from them) skip the transport snapshot.
        buffer.flags.writeable = False

        # Greedy assignment from the counts' prefix sums within each group.
        large_counts = row_sizes - small_counts
        small_sums = _offsets(small_counts)
        large_sums = _offsets(large_counts)
        group_rows = row_bounds[:-1][group_of]
        total_small = np.diff(small_sums[row_bounds])
        dest, _slot_start, length, piece_offsets = greedy_assignment_rows(
            lo=lo[group_of], total_small=total_small[group_of],
            small_prefixes=small_sums[:-1] - small_sums[group_rows],
            small_counts=small_counts,
            large_prefixes=large_sums[:-1] - large_sums[group_rows],
            large_counts=large_counts, n=n, p=p)
        # As the exchange phase's values: a row's outgoing remote messages
        # ``(dest_member, words)`` in native posting order (small pieces
        # then large pieces, each in slot order; self-copies excluded;
        # ``words`` counts the native ``(slot_start, chunk)`` payload) and
        # its count of inbound remote messages.
        piece_counts = np.diff(piece_offsets)
        source_row = np.repeat(np.arange(ranks.size, dtype=np.int64),
                               piece_counts)
        dest_row = dest + np.repeat(row_shift, piece_counts)
        remote = dest_row != source_row
        dest_row = dest_row[remote]
        source_row = source_row[remote]
        num_rows = ranks.size

        self.lo = lo.tolist()
        self.hi = hi.tolist()
        self.first = first.tolist()
        self.fresh = fresh
        self.ranks = ranks
        self.group_of = group_of
        self.row_bounds = row_bounds.tolist()
        self.row_sizes = row_sizes.tolist()
        self.local_counts = local_counts.tolist()
        self.sample_values = sample_values
        self.sample_slots = sample_slots
        self.sample_bounds = sample_offsets.tolist()
        self.pivots = list(zip(pivot_values.tolist(), pivot_slots.tolist()))
        self.counts = np.stack((small_counts, large_counts), axis=1)
        self.buffer = buffer
        self.pieces = list(zip((dest_row - group_rows[source_row]).tolist(),
                               (length[remote] + 1).tolist()))
        self.piece_bounds = _offsets(
            np.bincount(source_row, minlength=num_rows)).tolist()
        self.expected = np.bincount(dest_row, minlength=num_rows).tolist()

        # Each row's next task: a degenerate split (an empty side) retries
        # its interval with fresh samples, any other leaves the row in the
        # side holding its slots; a task spanning at most two ranks is a
        # base case, which the row continues in outside the plan.
        split = lo + total_small
        retry = self.retry = (total_small == 0) | (split == hi)
        stays = retry[group_of] | (row_lo < split[group_of])
        goes = retry[group_of] | (row_lo >= split[group_of])
        self.next_lo = np.where(stays, lo[group_of], split[group_of])
        self.next_hi = np.where(goes, hi[group_of], split[group_of])
        self.continuing = owners_of(self.next_hi - 1, n, p) - \
            owners_of(self.next_lo, n, p) > 1

        # The next round's tasks, in slot order.
        next_lo = np.stack((lo, split), axis=1).ravel()
        next_hi = np.stack((np.where(retry, hi, split), hi), axis=1).ravel()
        keep = owners_of(next_hi - 1, n, p) - owners_of(next_lo, n, p) > 1
        keep[1::2] &= ~retry
        if keep.any():
            # A task's values are its slot range of this round's buffer.
            to_buffer = np.repeat(offsets[row_bounds[:-1]] - lo, 2)[keep]
            next_lo = next_lo[keep]
            next_hi = next_hi[keep]
            lengths = next_hi - next_lo
            position = _offsets(lengths)
            self.successor = (
                level + 1, next_lo, next_hi,
                buffer[np.arange(position[-1], dtype=np.int64) + np.repeat(
                    next_lo + to_buffer - position[:-1], lengths)],
                np.stack((~retry, np.ones_like(retry)), axis=1).ravel()[keep])
        else:
            self.successor = None

    def sample_chunks(self, start: int, size: int) -> list:
        """Every member's drawn ``(values, slots)`` of the group at rows
        ``[start, start + size)``, the gather's values."""
        values, slots = self.sample_values, self.sample_slots
        bounds = self.sample_bounds[start:start + size + 1]
        return [(values[a:b], slots[a:b]) for a, b in zip(bounds, bounds[1:])]

    def exchange_feed(self, start: int, size: int, charge: bool) -> list:
        """Every member's ``(pieces, expected, cap_words, charge)`` of the
        group at rows ``[start, start + size)`` (see
        :class:`repro.core.spmd._ExchangePhase`)."""
        pieces, bounds = self.pieces, self.piece_bounds
        expected, row_sizes = self.expected, self.row_sizes
        return [(pieces[bounds[row]:bounds[row + 1]], expected[row],
                 row_sizes[row], charge)
                for row in range(start, start + size)]


class _RootRecord:
    """The sort's root level as its members reach it: the world group's
    endpoint, the members' rows (the plan's input) and the sort's layout.

    Created by the first member that reaches the root level
    (:meth:`SortPlan.root`); every member joins the root level phase with
    it, and the phase hands it to :meth:`SortPlan.price` once all rows are
    in.
    """

    __slots__ = ("plan", "endpoint", "rows", "sort")

    def __init__(self, plan, run):
        self.plan = plan
        # The (rank-free) group endpoint every member joins the root level
        # phase through.
        self.endpoint = run._root_endpoint()
        self.rows: list = [None] * run.p
        self.sort = (run.config, run.n, run.p)

    def deposit(self, group_rank: int, data: np.ndarray) -> None:
        """Store a member's row; a second deposit into one row refuses."""
        rows = self.rows
        if rows is None or rows[group_rank] is not None:
            raise LockstepError(
                f"jquick batched root level: member {group_rank} deposited "
                f"its row twice — concurrent sorts on one cluster cannot "
                f"share the batched tier")
        rows[group_rank] = data


class SortPlan:
    """The per-round data plan of one batched sort.

    Holds the root record while the sort's members reach the root level,
    then — inside the root level's last join — computes and prices the
    rounds in level order (:meth:`price`), each from the tasks and values
    its predecessor left in ``_pending``, holding one round at a time.  One
    plan serves one sort at a time per transport; a second sort running
    concurrently on the cluster is refused
    (:class:`~repro.core.spmd.LockstepError`) when its members reach the
    first one's root record or its root level resolves while the plan holds
    another sort's rounds.
    """

    __slots__ = ("_root", "_pending")

    def __init__(self):
        self._root = None
        # (level, lo, hi, values, fresh) of the round to compute next.
        self._pending = None

    def close(self) -> None:
        """Drop everything a sort that did not finish left behind (the
        root record references its members' rows and the run's endpoint)."""
        self._root = None
        self._pending = None

    def root(self, run) -> _RootRecord:
        """The sort's root record (created by the first caller)."""
        record = self._root
        if record is None:
            record = self._root = _RootRecord(self, run)
        return record

    def open(self, record: _RootRecord) -> None:
        """Start the sort from its root level's rows (the n values in slot
        order); refuses while another sort's rounds are live."""
        if self._pending is not None:
            raise LockstepError(
                "jquick batched tier: a sort's root level resolved while "
                "the plan holds another sort's rounds — concurrent sorts on "
                "one cluster cannot share the batched tier")
        if self._root is record:
            self._root = None
        _config, n, _p = record.sort
        self._pending = (0, np.zeros(1, dtype=np.int64),
                         np.full(1, n, dtype=np.int64),
                         np.concatenate(record.rows), np.ones(1, dtype=bool))
        record.rows = None

    def price(self, root: "_JQLevelPhase") -> list:
        """Price the whole sort whose root level ``root`` just resolved.

        Rounds are computed and priced in level order up to the sort's
        ``max_levels`` bound, each group of round ``r`` entered at its
        members' finish times of round ``r - 1`` (the root level at its
        members' joins).  Returns every member's ``(finish, outcome)``:
        the finish time of its last level and ``(lo, hi, level, data,
        degenerate_splits, comm_creations, messages, max_messages)`` — the
        task it enters next (a base case, or a task past ``max_levels``),
        its slot view there, and its counters over the levels it ran.

        ``root`` is retired first: every later write belongs to the plan,
        whose frontier bounds the port-log prune while it prices ahead of
        the engine clock.
        """
        record = root.record
        self.open(record)
        config, n, p = record.sort
        max_levels = config.max_levels
        charge = config.charge_local_work
        coordinator = root.coordinator
        coordinator.retire(root)
        transport, context, tag, world = \
            root.transport, root.context, root.tag, root.world
        stride = root.affine[1]
        # Per member: the entry time of its next level (its last finish).
        clock = list(root.joined)
        # Ranks outside the sort can open phases at any instant from now.
        ended = root.engine._now if root.transport.num_ranks > p \
            else float("inf")
        data = self._pending[3].copy()
        next_lo = np.empty(p, dtype=np.int64)
        next_hi = np.empty(p, dtype=np.int64)
        next_level = np.empty(p, dtype=np.int64)
        degenerate = np.zeros(p, dtype=np.int64)
        creations = np.zeros(p, dtype=np.int64)
        messages = np.zeros(p, dtype=np.int64)
        most = np.zeros(p, dtype=np.int64)
        try:
            while self._pending is not None and \
                    self._pending[0] <= max_levels:
                current = _Round(config, n, p, *self._pending)
                self._pending = current.successor
                level = current.level
                bounds = current.row_bounds
                groups = list(zip(current.first, current.fresh.tolist(),
                                  bounds, bounds[1:]))
                frontier = min(min(clock[first:first + end - start])
                               for first, _, start, end in groups)
                coordinator.ports.frontier = min(frontier, ended)
                inbound = [0] * bounds[-1]
                for group, (first, fresh, start, end) in enumerate(groups):
                    size = end - start
                    if level:
                        phase = _JQLevelPhase(
                            TransportEndpoint(
                                transport, context=context, tag=tag,
                                size=size,
                                world_affine=(world[first], stride)),
                            None, 0, coordinator)
                        # Never registered; its sub-phases inherit this.
                        phase.first_join = frontier
                    else:
                        phase = root
                    # The whole-world group reuses the backend's prebuilt
                    # world channel: no creation charge.
                    times, received = phase.price(
                        current, group, clock[first:first + size],
                        fresh and (first > 0 or first + size < p), charge)
                    clock[first:first + size] = times
                    if received is not None:
                        inbound[start:end] = received
                if level:
                    coordinator.tier_phases["batched"] += len(groups)

                ranks = current.ranks
                group_of = current.group_of
                retry = current.retry[group_of]
                inbound = np.array(inbound, dtype=np.int64)
                next_lo[ranks] = current.next_lo
                next_hi[ranks] = current.next_hi
                next_level[ranks] = level + 1
                degenerate[ranks] += retry
                creations[ranks] += current.fresh[group_of]
                messages[ranks] += inbound
                most[ranks] = np.maximum(most[ranks], inbound)
                # At n == p a row is one slot, so row i of the buffer is
                # the value its rank holds after the exchange.
                moved = ~retry
                data[ranks[moved]] = current.buffer[moved]
                leaving = ranks[~current.continuing].tolist()
                if leaving:
                    ended = min(ended, min(clock[rank] for rank in leaving))
        finally:
            coordinator.ports.frontier = None
            self._pending = None
        # Frozen, so base-case messages sent from a member's view skip the
        # transport snapshot.
        data.flags.writeable = False
        views = [data[rank:rank + 1] for rank in range(p)]
        return list(zip(clock, zip(
            next_lo.tolist(), next_hi.tolist(), next_level.tolist(), views,
            degenerate.tolist(), creations.tolist(), messages.tolist(),
            most.tolist())))


# ---------------------------------------------------------------------------
# The fused level phase: one lockstep join per rank prices the whole sort.
# ---------------------------------------------------------------------------

def join_jq_level(env, record: _RootRecord, data: np.ndarray):
    """Enter this rank, with its row ``data``, into the sort's root level.

    Must be called at the instant the member enters the root level (where
    the native frontier would have started its first level).  The request
    completes at the member's native finish time of its *last* distributed
    level, with the outcome :meth:`SortPlan.price` describes as its result.
    """
    # One endpoint (and coordinator key) per record, shared by the members.
    return coordinator_of(env.transport).join(
        record.endpoint, "jqlevel", env, (record, data), None, 0)


class _JQLevelPhase(_PhaseBase):
    """One distributed level of one group, priced at once; the registered
    instance (the root level) also drives the whole sort.

    The native batched frontier suspends each member several times per
    level: the communicator-creation charge, the fused sample/partition
    charge, and the five lockstep joins (sample gather, pivot bcast, count
    scan, totals bcast, data exchange), and once more per level to enter
    the next one.  Every one of those resumes carries a full engine wake-up
    and a generator chain — pure dispatch at paper scale.  This phase
    collapses them: each member joins the root level once, and its last
    join hands the record to :meth:`SortPlan.price`, which prices every
    level of every group with :meth:`price` — on this phase for the root
    level, on an unregistered instance per later (group, level) — and
    wakes each member once, at its last level's finish.  One level:

    * the two compute charges are added onto the member's entry time (with
      the tracer updated exactly as ``env.compute`` would);
    * the five sub-steps run as the *existing* phase classes of
      :mod:`repro.core.spmd` over this phase's own group context, each
      *fed* whole (``_feed_all``): the members' entry times are the
      finish-time list of the previous sub-step — precisely when the engine
      would have resumed each member to issue the next call — and each
      sub-step's pricer (the pass a join would hand a worklist) runs once
      over all members, leaving plain finish/result lists.  No per-member
      joins, request objects, readiness re-tests or wake flushes are
      involved, and the scan takes its vector or scalar round pass by group
      size (``VECTOR_CUTOFF``) without arming a flush event.  Port folds,
      payload snapshots, tracer counters and float operand order are those
      of the unfused tier, bit for bit;
    * the level's members end at their native end-of-level times, which
      are their entry times into their next level.

    Sub-phases are never registered with the coordinator (their generation
    is this phase).  A member's final finish always trails the root level's
    last join — the gather funnels every join into member 0, whose
    broadcast feeds every later sub-step — so the wake batch never
    schedules into the past.
    """

    kind = "jqlevel"
    tier = "batched"

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        self.record: _RootRecord = None

    def on_join(self, rank: int) -> None:
        record, data = self.values[rank]
        self.values[rank] = None
        if self.record is None:
            self.record = record
        elif record is not self.record:
            raise LockstepError(
                f"jquick batched level: member {rank} joined with a "
                f"different level record than the phase holds — concurrent "
                f"sorts on one cluster cannot share the batched tier")
        record.deposit(rank, data)
        if self.joined_count == self.size:
            outcomes = record.plan.price(self)
            # Every level's span is out already; the wake-up adds none.
            self._obs = None
            finish = self._finish
            for m, (time, outcome) in enumerate(outcomes):
                finish(m, time, outcome)

    def price(self, current: _Round, group: int, times: list, create: bool,
              charge: bool) -> tuple:
        """Price this group's level of ``current`` (its task ``group``)
        from the members' entry ``times``; ``create`` says whether the
        level creates a fresh communicator.  Returns the members' finish
        times and inbound message counts (None on a degenerate split)."""
        size = self.size
        start = current.row_bounds[group]
        rows = slice(start, start + size)
        compute_cost = self.compute_cost
        compute_time = self.transport.tracer.stats.compute_time
        world = self.world
        local_counts = current.local_counts[rows]
        row_sizes = current.row_sizes[rows]

        # Entry times: the communicator-creation charge and the fused
        # sampling + partitioning charge, added in the order the native
        # frontier sleeps through them (floats add left to right).
        create_cost = compute_cost(RBC_CREATE_OPS)
        starts = []
        obs = self._obs
        for m in range(size):
            t = times[m]
            w = world[m]
            if create:
                compute_time[w] += create_cost
                if obs is not None and create_cost > 0:
                    obs.spans.append((w, t, t + create_cost,
                                      "comm_create", "jq_group_comm"))
                t += create_cost
            if charge:
                cost = compute_cost(local_counts[m] + row_sizes[m])
                compute_time[w] += cost
                if obs is not None and cost > 0:
                    obs.spans.append((w, t, t + cost, "compute",
                                      "jq_sample_partition"))
                t += cost
            starts.append(t)
        sub = self._sub_phase

        # --- 1. sample gather to member 0 --------------------------------
        times, _ = sub(_GatherPhase, None, 0)._feed_all(
            starts, current.sample_chunks(start, size))

        # --- 2. pivot broadcast from member 0 ----------------------------
        # (The median of the root's gathered list, the members' chunks in
        # member order; the partition around it costs no simulated time.)
        values = [None] * size
        values[0] = current.pivots[group]
        times, _ = sub(_BcastPhase, None, 0)._feed_all(times, values)

        # --- 3. prefix scan of the (small, large) counts ------------------
        times, values = sub(_DisseminationPhase, SUM, 0)._feed_all(
            times, list(current.counts[rows]))

        # --- 4. totals broadcast from the last member ---------------------
        inclusive = values[size - 1]
        values = [None] * size
        values[size - 1] = inclusive
        times, _ = sub(_BcastPhase, None, size - 1)._feed_all(times, values)
        total_small = int(inclusive[0])

        if total_small == 0 or \
                total_small == current.hi[group] - current.lo[group]:
            # Degenerate split: the level ends at the totals broadcast and
            # the members retry with fresh samples.
            received = None
        else:
            # --- 5. analytic data exchange --------------------------------
            times, received = sub(_ExchangePhase, None, 0)._feed_all(
                times, current.exchange_feed(start, size, charge))
        if obs is not None:
            # The level's collective span starts after the entry charges,
            # so a traced timeline shows creation/partition work separately
            # from the five fused collective sub-steps.
            label = f"{self.obs_label}@{self.tier}"
            spans = obs.spans
            for m in range(size):
                spans.append((world[m], starts[m], times[m], "collective",
                              label))
        return times, received


SpmdCoordinator.register_kind("jqlevel", lambda *args: _JQLevelPhase(*args))
