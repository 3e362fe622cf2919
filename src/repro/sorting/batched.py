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
  interval per group), then derives the next round's tasks and values.  A
  round is computed when its first group resolves and dropped when its last
  group has been consumed, so the plan holds O(p) per live round.
* **Pricing, once per group** (:class:`_JQLevelPhase`).  One lockstep phase
  per (group, task interval, level) prices the level's charges, its five
  collective sub-steps and the exchange at once, when the group's last
  member has joined.  Its :class:`_LevelRecord` is a window onto the round:
  the group's rows ``[start, start + size)`` of the round's arrays feed the
  gather, scan and exchange sub-steps and hand the members their slot views.

The plan lives on the simulation's transport (all simulated ranks share one
interpreter; :meth:`~repro.simulator.network.Transport.close` empties it) and
serves one sort at a time.  Each member joins its level once
(:func:`join_jq_level`); only the members of the root level deposit a row.

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
    slot order; task ``g``'s group is the ranks owning those slots, and the
    round's *rows* are the groups' members back to back — group ``g`` is the
    rows ``row_bounds[g]:row_bounds[g + 1]``, a row holding its rank's slots
    inside the task.  Everything a level phase feeds its sub-steps with is
    kept per row (plain lists where the phase reads scalars), so a group's
    share is a slice.
    """

    __slots__ = (
        "level", "live", "index", "hi", "row_bounds", "row_sizes",
        "view_bounds", "local_counts", "sample_values", "sample_slots",
        "sample_bounds", "pivots", "counts", "buffer", "pieces",
        "piece_bounds", "expected", "successor",
    )

    def __init__(self, config, n: int, p: int, level: int, lo: np.ndarray,
                 hi: np.ndarray, values: np.ndarray):
        self.level = level
        num_groups = self.live = lo.size
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

        self.index = {task_lo: g for g, task_lo in enumerate(lo.tolist())}
        self.hi = hi.tolist()
        self.row_bounds = row_bounds.tolist()
        self.row_sizes = row_sizes.tolist()
        self.view_bounds = offsets.tolist()
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

        # The next round's tasks: a degenerate split (an empty side) retries
        # its interval with fresh samples, any other leaves its two sides;
        # a side spanning at most two ranks is a base case and drops out.
        split = lo + total_small
        retry = (total_small == 0) | (split == hi)
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
                    next_lo + to_buffer - position[:-1], lengths)])
        else:
            self.successor = None


class _LevelRecord:
    """One group's window onto its round: what a level phase reads.

    Created by the first member that reaches the level (before the round's
    data need exist) with what the join needs — the group and its endpoint.
    The sort's root level additionally collects its members' rows, the
    plan's input.  :meth:`bind` attaches the round when the phase resolves.
    """

    __slots__ = ("plan", "size", "lo", "hi", "level", "endpoint", "rows",
                 "sort", "round", "group", "start", "consumed")

    def __init__(self, plan, run, first: int, last: int, lo: int, hi: int,
                 level: int):
        self.plan = plan
        self.lo = lo
        self.hi = hi
        self.level = level
        size = self.size = last - first + 1
        # The group endpoint every member joins the fused level phase
        # through (join_jq_level stamps the joining member onto it).
        self.endpoint = run._level_endpoint(first, size, lo, hi, level)
        if level == 0:
            self.rows: list = [None] * size
            self.sort = (run.config, run.n, run.p)
        else:
            self.rows = self.sort = None
        self.round = None
        self.group = self.start = 0
        self.consumed = 0

    def deposit(self, group_rank: int, data: np.ndarray) -> None:
        """Store a root member's row; a second deposit into one row refuses."""
        rows = self.rows
        if rows is None or rows[group_rank] is not None:
            raise LockstepError(
                f"jquick batched level [{self.lo}, {self.hi}) at level "
                f"{self.level}: member {group_rank} deposited its row "
                f"twice — concurrent sorts on one cluster cannot share the "
                f"batched tier")
        rows[group_rank] = data

    def bind(self) -> _Round:
        """Attach the round (computed now if this is its first group)."""
        plan = self.plan
        if self.rows is not None:
            plan.open(*self.sort, self.rows)
            self.rows = None
        current = self.round = plan.round(self.level)
        group = self.group = current.index.get(self.lo, -1)
        bounds = current.row_bounds
        if group < 0 or current.hi[group] != self.hi or \
                bounds[group + 1] - bounds[group] != self.size:
            raise LockstepError(
                f"jquick batched level [{self.lo}, {self.hi}) at level "
                f"{self.level} is no task of the sort the plan holds — "
                f"concurrent sorts on one cluster cannot share the batched "
                f"tier")
        self.start = bounds[group]
        return current

    def sample_chunks(self) -> list:
        """Every member's drawn ``(values, slots)``, the gather's values."""
        current = self.round
        values, slots = current.sample_values, current.sample_slots
        bounds = current.sample_bounds[self.start:self.start + self.size + 1]
        return [(values[a:b], slots[a:b]) for a, b in zip(bounds, bounds[1:])]

    def exchange_feed(self, cap_words: list, charge: bool) -> list:
        """Every member's ``(pieces, expected, cap_words[g], charge)`` (see
        :class:`repro.core.spmd._ExchangePhase`)."""
        current = self.round
        pieces, bounds = current.pieces, current.piece_bounds
        expected = current.expected
        start = self.start
        return [(pieces[bounds[row]:bounds[row + 1]], expected[row],
                 cap_words[row - start], charge)
                for row in range(start, start + self.size)]


class SortPlan:
    """The per-round data plan of one batched sort, and its live records.

    Records are keyed by ``(lo, hi, level)`` — unique among simultaneously
    active levels (task intervals of concurrent tasks are disjoint, and a
    group retries a degenerate interval at ``level + 1``) — and dropped as
    soon as the last member consumes them; a round is dropped with its last
    record, so neither registry grows with the recursion depth.  Rounds are
    computed in level order, each from the tasks and values its predecessor
    left in ``_pending``.  One plan serves one sort at a time per transport;
    a second sort running concurrently on the cluster is refused
    (:class:`~repro.core.spmd.LockstepError`) when its root level reaches a
    record or a plan the first one holds.
    """

    __slots__ = ("_records", "_rounds", "_pending", "config", "n", "p")

    def __init__(self):
        self._records: dict = {}
        self._rounds: dict = {}
        # (level, lo, hi, values) of the round to compute next.
        self._pending = None
        # The live sort's configuration and layout, set by open().
        self.config = None
        self.n = self.p = 0

    def close(self) -> None:
        """Drop everything a sort that did not finish left behind (records
        reference their members' environments, and through them the
        transport that owns this plan)."""
        self._records.clear()
        self._rounds.clear()
        self._pending = None

    def level(self, run, first: int, last: int, lo: int, hi: int,
              level: int) -> _LevelRecord:
        """The group's shared record for this level (created by first caller)."""
        key = (lo, hi, level)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _LevelRecord(
                self, run, first, last, lo, hi, level)
        return record

    def open(self, config, n: int, p: int, rows: list) -> None:
        """Start a sort from its root level's rows (the n values in slot
        order); refuses while another sort's rounds are live."""
        if self._rounds or self._pending is not None:
            raise LockstepError(
                "jquick batched tier: a sort's root level resolved while "
                "the plan holds another sort's rounds — concurrent sorts on "
                "one cluster cannot share the batched tier")
        self.config = config
        self.n = n
        self.p = p
        self._pending = (0, np.zeros(1, dtype=np.int64),
                         np.full(1, n, dtype=np.int64), np.concatenate(rows))

    def round(self, level: int) -> _Round:
        """The round of ``level``, computed from its predecessor's leavings
        when its first group asks."""
        current = self._rounds.get(level)
        if current is None:
            pending = self._pending
            if pending is None or pending[0] != level:
                raise LockstepError(
                    f"jquick batched tier: round {level} is neither live "
                    f"nor next in the plan — concurrent sorts on one "
                    f"cluster cannot share the batched tier")
            current = self._rounds[level] = _Round(
                self.config, self.n, self.p, *pending)
            self._pending = current.successor
        return current

    def take_view(self, record: _LevelRecord, group_rank: int) -> np.ndarray:
        """The member's post-exchange slot region (a frozen view of the
        round's buffer); consumes the member's claim on the record."""
        current = record.round
        row = record.start + group_rank
        bounds = current.view_bounds
        view = current.buffer[bounds[row]:bounds[row + 1]]
        self.release(record)
        return view

    def release(self, record: _LevelRecord) -> None:
        """Drop a member's claim on the record (after its view is taken, or
        without an exchange on a degenerate split)."""
        record.consumed += 1
        if record.consumed == record.size:
            del self._records[(record.lo, record.hi, record.level)]
            current = record.round
            current.live -= 1
            if not current.live:
                del self._rounds[current.level]


# ---------------------------------------------------------------------------
# The fused level phase: one lockstep join prices a whole distributed level.
# ---------------------------------------------------------------------------

def join_jq_level(env, record: _LevelRecord, group_rank: int,
                  data: np.ndarray, create: bool):
    """Enter this rank, with its row ``data``, into ``record``'s level phase.

    Must be called at the instant the member enters the level (where the
    native frontier would have started the group-communicator creation).
    ``data`` is the member's row, which only the sort's root level reads
    (below it the plan already holds every value).  ``create`` says whether
    this level creates a fresh communicator (false on a degenerate retry,
    which reuses the group's communicator).  The request completes at the
    member's native end-of-level time with ``(total_small, messages)`` as
    its result — everything else the member needs (its slot view, the
    degenerate verdict) derives from those via the plan.
    """
    coordinator = coordinator_of(env.transport)
    # One endpoint (and coordinator key) per record: the coordinator only
    # reads the member fields during the join call itself.
    endpoint = record.endpoint
    endpoint.env = env
    endpoint.rank = group_rank
    return coordinator.join(endpoint, "jqlevel", (record, data, create),
                            None, 0)


class _JQLevelPhase(_PhaseBase):
    """One lockstep join per member prices an entire distributed level.

    The native batched frontier suspends each member several times per
    level: the communicator-creation charge, the fused sample/partition
    charge, and the five lockstep joins (sample gather, pivot bcast, count
    scan, totals bcast, data exchange).  Every one of those resumes carries
    a full engine wake-up and a generator chain — pure dispatch at paper
    scale.  This phase collapses them: each member joins once on entering
    the level and the last join prices the whole level at once, from the
    group's window onto the round's data (:meth:`_LevelRecord.bind`) —

    * the two compute charges are added onto the member's join time (with
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
      size (``VECTOR_CUTOFF``) without arming a flush event.  Port
      folds, payload snapshots, tracer counters and float operand order
      are those of the unfused tier, bit for bit;
    * the member wakes once, at its native end-of-level time, with
      ``(total_small, messages)``.

    Sub-phases are never registered with the coordinator (their generation
    is this phase); the level's own ``first_join`` keeps the receive-port
    prune bound conservative for every synthetic write, which all post at or
    after it.  A member's final finish always trails the last join — the
    gather funnels every join into member 0, whose broadcast feeds every
    later sub-step — so the wake batch never schedules into the past.
    """

    kind = "jqlevel"
    tier = "batched"

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        self.record: _LevelRecord = None
        self.creates: list = [False] * self.size

    def on_join(self, rank: int) -> None:
        record, data, create = self.values[rank]
        self.values[rank] = None
        if self.record is None:
            self.record = record
        elif record is not self.record:
            raise LockstepError(
                f"jquick batched level: member {rank} joined with a "
                f"different level record than the phase holds — concurrent "
                f"sorts on one cluster cannot share the batched tier")
        if record.rows is not None:
            record.deposit(rank, data)
        self.creates[rank] = create
        if self.joined_count == self.size:
            self._resolve_all()

    def _resolve_all(self) -> None:
        record = self.record
        current = record.bind()
        size = self.size
        rows = slice(record.start, record.start + size)
        compute_cost = self.compute_cost
        compute_time = self.stats.compute_time
        world = self.world
        charge = record.plan.config.charge_local_work
        local_counts = current.local_counts[rows]
        row_sizes = current.row_sizes[rows]

        # Entry times: the communicator-creation charge and the fused
        # sampling + partitioning charge, added in the order the native
        # frontier sleeps through them (floats add left to right).
        create_cost = compute_cost(RBC_CREATE_OPS)
        times = []
        joined = self.joined
        obs = self._obs
        for m in range(size):
            t = joined[m]
            w = world[m]
            if self.creates[m]:
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
            times.append(t)
        # The level's collective span starts after the entry charges, so a
        # traced timeline shows creation/partition work separately from
        # the five fused collective sub-steps.
        self._span_starts = times
        sub = self._sub_phase

        # --- 1. sample gather to member 0 --------------------------------
        times, _ = sub(_GatherPhase, None, 0)._feed_all(
            times, record.sample_chunks())

        # --- 2. pivot broadcast from member 0 ----------------------------
        # (The median of the root's gathered list, the members' chunks in
        # member order; the partition around it costs no simulated time.)
        values = [None] * size
        values[0] = current.pivots[record.group]
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

        finish = self._finish
        if total_small == 0 or total_small == record.hi - record.lo:
            # Degenerate split: the level ends at the totals broadcast and
            # the members retry with fresh samples.
            for m in range(size):
                finish(m, times[m], (total_small, 0))
            return

        # --- 5. analytic data exchange ------------------------------------
        times, values = sub(_ExchangePhase, None, 0)._feed_all(
            times, record.exchange_feed(row_sizes, charge))
        for m in range(size):
            finish(m, times[m], (total_small, values[m]))


SpmdCoordinator.register_kind("jqlevel", lambda *args: _JQLevelPhase(*args))
