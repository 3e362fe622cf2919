"""Cross-rank batching of JQuick distributed levels (the paper-scale tier).

At paper scale (p = 2^15) the per-rank Python work of one distributed level —
a counter-key hash, a handful of sample draws, a partition of a few elements,
a two-piece greedy assignment — is pure dispatch overhead: every rank of a
group performs the *same* sequence on different rows.  This module stacks
those rows: one :class:`_LevelRecord` per (group, task-interval, level)
computes the whole group's sampling grid, partition and assignment in a few
ragged NumPy sweeps (the ``*_rows`` kernels of :mod:`repro.core.rand`,
:mod:`repro.sorting.kernels` and :mod:`repro.sorting.assignment`), and one
lockstep phase per record (:class:`_JQLevelPhase`) prices the level's charges,
its five collective sub-steps and the exchange at once, when the last member
has joined.

The record lives on the simulation's transport (all simulated ranks share one
interpreter) in a :class:`LevelBatcher`, is created by the first member that
reaches the level, and is retired once every member has taken its slot view
(or released its claim on a degenerate split).  What a record precomputes
before the members arrive — row sizes, sample counts, sample indices — is slot
arithmetic, a pure function of ``(n, p, lo, hi, level, seed)`` that every
member derives identically.  Each member deposits its row with its single
join (:func:`join_jq_level`); the data-dependent steps (samples, partition,
assignment) run once, inside the phase's level-at-once pricing.

Bit-identity: every batched kernel is the bit-exact row-stacked form of the
scalar call it replaces (property-pinned in the kernel modules), and every
sub-step is priced by the phase class of :mod:`repro.core.spmd` that prices
the unfused collective, fed whole.  The tier therefore reproduces the scalar
frontier's results and simulated times exactly; the differential suite in
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
    _PhaseBase,
    _ScanPhase,
    coordinator_of,
)
from ..mpi.datatypes import SUM
from ..rbc.comm import RBC_CREATE_OPS
from .assignment import greedy_assignment_rows
from .kernels import fused_partition_rows
from .pivot import median_of_samples, sample_count

__all__ = ["LevelBatcher", "join_jq_level"]


class _LevelRecord:
    """Shared state of one distributed level of one task's group."""

    __slots__ = (
        "first", "lo", "hi", "level", "size", "n", "p", "config",
        "endpoint", "row_lo", "row_sizes", "row_offsets", "view_bounds",
        "local_counts", "indices", "index_offsets", "rows", "values",
        "buffer", "small_counts", "consumed",
    )

    def __init__(self, run, first: int, last: int, lo: int, hi: int,
                 level: int):
        self.config = run.config
        self.first = first
        self.lo = lo
        self.hi = hi
        self.level = level
        self.n = run.n
        self.p = run.p
        size = self.size = last - first + 1
        # The group endpoint every member joins the fused level phase
        # through (join_jq_level stamps the joining member onto it).
        self.endpoint = run._level_endpoint(first, size, lo, hi, level)
        # Slot layout of the group's rows (owner intervals clipped to the
        # task interval) — same arithmetic as the members' my_lo / my_hi.
        q, r = run._q, run._r
        ranks = np.arange(first, last + 1, dtype=np.int64)
        starts = ranks * q + np.minimum(ranks, r)
        ends = starts + q + (ranks < r)
        row_lo = self.row_lo = np.maximum(lo, starts)
        row_sizes = self.row_sizes = np.minimum(hi, ends) - row_lo
        offsets = self.row_offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(row_sizes, out=offsets[1:])
        # Member g's post-exchange slot region is buffer[b[g]:b[g + 1]].
        self.view_bounds = offsets.tolist()
        # The whole group's sampling grid, in one ragged sweep.  Mirrors the
        # scalar per-rank expression ``max(1, ceil(sigma * size / total)) if
        # size else 0`` bit for bit (same float operand order elementwise).
        total = hi - lo
        config = run.config
        sigma = sample_count(config.pivot, size, total / size)
        self.local_counts = np.where(
            row_sizes > 0,
            np.maximum(1, np.ceil(sigma * row_sizes / total)).astype(np.int64),
            0)
        keys = rand.sample_keys(config.seed, lo, hi, level, ranks)
        self.indices, self.index_offsets = rand.sample_indices_rows(
            keys, self.local_counts, row_sizes)
        self.rows: list = [None] * size
        self.values = None
        self.buffer = None
        self.small_counts = None
        self.consumed = 0

    def deposit(self, group_rank: int, data: np.ndarray) -> None:
        """Store a member's row; a second deposit into one row refuses."""
        rows = self.rows
        if rows is None or rows[group_rank] is not None:
            raise LockstepError(
                f"jquick batched level [{self.lo}, {self.hi}) at level "
                f"{self.level}: member {group_rank} deposited its row "
                f"twice — concurrent sorts on one cluster cannot share the "
                f"batched tier")
        rows[group_rank] = data

    def samples(self) -> tuple:
        """The group's drawn samples as flat ``(values, slots, bounds)``.

        Member ``g`` drew ``values/slots[bounds[g]:bounds[g + 1]]`` — the
        row-stacked form of its native ``(row[picks], row_lo + picks)``.
        Concatenates the deposited rows (kept for :meth:`partition`).
        """
        values = self.values = np.concatenate(self.rows)
        self.rows = None
        counts = self.local_counts
        indices = self.indices
        sample_values = values[indices + np.repeat(self.row_offsets[:-1],
                                                   counts)]
        sample_slots = indices + np.repeat(self.row_lo, counts)
        return sample_values, sample_slots, self.index_offsets.tolist()

    def partition(self, pivot_value: float, pivot_slot: int) -> None:
        """Group-wide fused partition of the concatenated rows."""
        if self.config.tie_breaking:
            cuts = np.clip(pivot_slot - self.row_lo, 0, self.row_sizes)
        else:
            cuts = np.zeros(self.size, dtype=np.int64)
        buffer, self.small_counts = fused_partition_rows(
            self.values, self.row_offsets, cuts, pivot_value)
        # The buffer *is* the task's slot region [lo, hi) after the
        # exchange; freeze it so the views handed to child tasks (and
        # base-case messages sent from them) skip the transport snapshot.
        buffer.flags.writeable = False
        self.buffer = buffer
        self.values = None

    def exchange_feed(self, total_small: int, cap_words: list,
                      charge: bool) -> list:
        """Group-wide greedy assignment, as the exchange phase's values.

        Member ``g``'s entry is ``(pieces, expected, cap_words[g], charge)``
        (see :class:`repro.core.spmd._ExchangePhase`): its outgoing remote
        messages ``(dest_member, words)`` in native posting order (small
        pieces then large pieces, each in slot order; self-copies excluded;
        ``words`` counts the native ``(slot_start, chunk)`` payload) and
        its count of inbound remote messages.
        """
        small_counts = self.small_counts
        size = self.size
        small_prefixes = np.zeros(size, dtype=np.int64)
        np.cumsum(small_counts[:-1], out=small_prefixes[1:])
        large_counts = self.row_sizes - small_counts
        large_prefixes = np.zeros(size, dtype=np.int64)
        np.cumsum(large_counts[:-1], out=large_prefixes[1:])
        dest, _slot_start, length, offsets = greedy_assignment_rows(
            lo=self.lo, total_small=total_small,
            small_prefixes=small_prefixes, small_counts=small_counts,
            large_prefixes=large_prefixes, large_counts=large_counts,
            n=self.n, p=self.p)
        dest = dest - self.first
        src = np.repeat(np.arange(size, dtype=np.int64), np.diff(offsets))
        remote = dest != src
        dest = dest[remote]
        expected = np.bincount(dest, minlength=size).tolist()
        bounds = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[remote], minlength=size), out=bounds[1:])
        bounds = bounds.tolist()
        pieces = list(zip(dest.tolist(), (length[remote] + 1).tolist()))
        return [(pieces[bounds[g]:bounds[g + 1]], expected[g], cap_words[g],
                 charge) for g in range(size)]


class LevelBatcher:
    """Per-transport registry of the live :class:`_LevelRecord` instances.

    Keys are ``(first, lo, hi, level)`` — unique among simultaneously active
    levels (task intervals of concurrent tasks are disjoint, and a group
    retries a degenerate interval at ``level + 1``).  Records are dropped as
    soon as the last member consumes them, so the registry never grows with
    the recursion depth.  One batcher serves one run at a time per transport;
    a second sort running concurrently on the cluster is refused
    (:class:`~repro.core.spmd.LockstepError`) when it reaches a record the
    first one holds.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: dict = {}

    def level(self, run, first: int, last: int, lo: int, hi: int,
              level: int) -> _LevelRecord:
        """The group's shared record for this level (created by first caller)."""
        key = (first, lo, hi, level)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _LevelRecord(
                run, first, last, lo, hi, level)
        return record

    def take_view(self, record: _LevelRecord, group_rank: int) -> np.ndarray:
        """The member's post-exchange slot region (a frozen view of the
        group buffer); consumes the member's claim on the record."""
        bounds = record.view_bounds
        view = record.buffer[bounds[group_rank]:bounds[group_rank + 1]]
        self.release(record)
        return view

    def release(self, record: _LevelRecord) -> None:
        """Drop a member's claim on the record (after its view is taken, or
        without an exchange on a degenerate split)."""
        record.consumed += 1
        if record.consumed == record.size:
            del self._records[(record.first, record.lo, record.hi,
                               record.level)]


# ---------------------------------------------------------------------------
# The fused level phase: one lockstep join prices a whole distributed level.
# ---------------------------------------------------------------------------

def join_jq_level(env, record: _LevelRecord, group_rank: int,
                  data: np.ndarray, create: bool):
    """Enter this rank, with its row ``data``, into ``record``'s level phase.

    Must be called at the instant the member enters the level (where the
    native frontier would have started the group-communicator creation).
    ``create`` says whether this level creates a fresh communicator (false on
    a degenerate retry, which reuses the group's communicator).  The request
    completes at the member's native end-of-level time with
    ``(total_small, messages)`` as its result — everything else the member
    needs (its slot view, the degenerate verdict) derives from those via the
    batcher.
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
    the level, depositing its row, and the last join prices the whole level
    at once —

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
      involved, and the scan takes its vector or scalar resolver by group
      size (``SCAN_VECTOR_CUTOFF``) without arming a flush event.  Port
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
        record.deposit(rank, data)
        self.creates[rank] = create
        if self.joined_count == self.size:
            self._resolve_all()

    def _resolve_all(self) -> None:
        record = self.record
        config = record.config
        size = self.size
        compute_cost = self.compute_cost
        compute_time = self.stats.compute_time
        world = self.world
        charge = config.charge_local_work
        local_counts = record.local_counts.tolist()
        row_sizes = record.row_sizes.tolist()

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
        sample_values, sample_slots, bounds = record.samples()
        times, _ = sub(_GatherPhase, None, 0)._feed_all(
            times, [(sample_values[a:b], sample_slots[a:b])
                    for a, b in zip(bounds, bounds[1:])])

        # --- 2. pivot broadcast from member 0 ----------------------------
        # The root's gathered list is the members' chunks in member order,
        # i.e. the flat sample arrays.
        pivot = median_of_samples([(sample_values, sample_slots)])
        values = [None] * size
        values[0] = (pivot.value, pivot.slot)
        times, _ = sub(_BcastPhase, None, 0)._feed_all(times, values)

        # --- 3. group-wide fused partition (host side, no simulated time) -
        record.partition(pivot.value, pivot.slot)
        small_counts = record.small_counts

        # --- 4. prefix scan of the (small, large) counts ------------------
        times, values = sub(_ScanPhase, SUM, 0)._feed_all(
            times, list(np.stack((small_counts,
                                  record.row_sizes - small_counts), axis=1)))

        # --- 5. totals broadcast from the last member ---------------------
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

        # --- 6. analytic data exchange ------------------------------------
        times, values = sub(_ExchangePhase, None, 0)._feed_all(
            times, record.exchange_feed(total_small, row_sizes, charge))
        for m in range(size):
            finish(m, times[m], (total_small, values[m]))


SpmdCoordinator.register_kind("jqlevel", lambda *args: _JQLevelPhase(*args))
