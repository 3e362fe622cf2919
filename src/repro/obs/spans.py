"""Structured span/event recorder for simulated runs.

A :class:`TraceRecorder` is a passive sink the simulator stack emits into
when — and only when — a run was started with ``trace=...``.  Every emit
site in the hot paths (engine step loop, transport ``post_send``, SPMD
coordinator phase finish, batched-sort level resolve) follows the same
pattern::

    obs = self._obs
    if obs is not None:
        obs.spans.append((rank, t0, t1, category, label))

so the off path costs exactly one attribute load and one ``is not None``
predicate, and the on path is a plain tuple append: no engine events, no
virtual-time reads beyond values the site already computed, and no RNG
draws.  That is the zero-overhead contract — tracing must never perturb
``simulated_us``, event counts, or random sequences on any tier.

The recorder stays row-major (one tuple per record: ``list.append(tuple)``
costs 0.09 us at an emit site, ``array('d').extend(tuple)`` 0.56 us); the
``repro-trace/v2`` artifact is column-major, and :mod:`repro.obs.export`
transposes once per table with ``zip(*rows)``.  The field order of the
tuples below is the column order of :data:`repro.obs.export.TABLES`.

Recorded primitives
-------------------

``spans`` — ``(rank, t0, t1, category, label)``
    A half-open interval of simulated time attributed to one rank.
    Categories: ``"compute"`` (engine :class:`Sleep` charges),
    ``"collective"`` (a priced collective phase — scalar state machine,
    lockstep, fast-forward, or batched tier; the label carries
    ``op@tier``), ``"comm_create"`` (RBC communicator creation /
    splitting charges).

``edges`` — ``(src, dst, post, local_delay, start, leave, arrival, words)``
    One transport message, with every timestamp of its life cycle so the
    critical-path analyzer can split *port-queueing wait* from *wire
    time*:  the send was posted at ``post``, became eligible at
    ``post + local_delay``, actually started once the send port freed at
    ``start``, left the sender at ``leave = start + alpha + words*beta``,
    and reached the destination mailbox at ``arrival`` (>= ``leave`` when
    the receive port was contended).

``events`` — ``(time, rank, kind, label)``
    Point annotations: ``"ir"`` (a schedule-IR execution, label is the IR
    token), ``"refusal"`` (a :class:`~repro.core.spmd.LockstepError` —
    the lockstep tier declined a phase; label carries the phase shape),
    ``"fallback"`` (the analytic fast-forward declined and the phase fell
    back to scalar lockstep pricing).

``finalize`` stamps the run's makespan and per-rank finish times onto the
recorder once the cluster run completes; exporters and the critical-path
analyzer require a finalized recorder.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "TraceRecorder",
    "SPAN_CATEGORIES",
    "EVENT_KINDS",
]

#: Valid span categories (schema-checked by ``benchmarks/check_trace_schema``).
SPAN_CATEGORIES = ("compute", "collective", "comm_create")

#: Valid point-event kinds.
EVENT_KINDS = ("ir", "refusal", "fallback")


class TraceRecorder:
    """Accumulates spans, message edges, and point events for one run.

    A recorder is single-run: pass a fresh instance to
    ``Cluster(trace=...)`` (or let ``trace=True`` construct one) and read
    it back from ``ClusterResult.trace``.
    """

    __slots__ = ("num_ranks", "spans", "edges", "events",
                 "total_time", "finish_times", "counters",
                 "suppress_compute")

    def __init__(self, num_ranks: int = 0):
        self.num_ranks = num_ranks
        # Handshake for sites that re-categorize their next Sleep charge
        # (RBC comm creation emits a "comm_create" span and sets this to
        # the rank's pid; the engine then skips its generic "compute"
        # span for that one Sleep).  Same-call-stack only: the marking
        # site yields the Sleep in the same engine step that consumes it.
        self.suppress_compute = -1
        # (rank, t0, t1, category, label)
        self.spans: list[tuple] = []
        # (src, dst, post, local_delay, start, leave, arrival, words)
        self.edges: list[tuple] = []
        # (time, rank, kind, label)
        self.events: list[tuple] = []
        self.total_time: Optional[float] = None
        self.finish_times: Optional[list[float]] = None
        self.counters: dict = {}

    # ------------------------------------------------------------- lifecycle

    @property
    def finalized(self) -> bool:
        return self.total_time is not None

    def finalize(self, total_time: float, finish_times: Sequence[float],
                 counters: Optional[dict] = None) -> "TraceRecorder":
        """Stamp run totals onto the recorder; returns ``self``."""
        self.total_time = float(total_time)
        self.finish_times = [float(t) for t in finish_times]
        if self.num_ranks == 0:
            self.num_ranks = len(self.finish_times)
        if counters:
            self.counters.update(counters)
        return self

    # ----------------------------------------------------------- convenience

    def category_totals(self) -> dict[str, float]:
        """Summed span durations per category (overlap-unaware; per-rank
        spans of one rank never overlap, so the per-category sums are
        exact per rank and additive across ranks)."""
        totals: dict[str, float] = {}
        for _rank, t0, t1, category, _label in self.spans:
            totals[category] = totals.get(category, 0.0) + (t1 - t0)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecorder(num_ranks={self.num_ranks}, "
                f"spans={len(self.spans)}, edges={len(self.edges)}, "
                f"events={len(self.events)}, "
                f"total_time={self.total_time})")
