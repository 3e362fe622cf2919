"""Critical-path analysis over a recorded span/edge DAG.

Walks a finalized :class:`~repro.obs.spans.TraceRecorder` *backward* from
the makespan — the finish time of the last rank — explaining, one
contiguous segment at a time, why the run took exactly as long as it did.
The result is the paper's Figure-8 decomposition operationalized: the one
chain of computes, wire transfers, port-queueing waits, communicator
creations, and analytically-priced collective phases whose lengths sum to
``simulated_us``, with per-category attribution.

At each cursor ``(rank, t)`` the walker prefers the most granular
explanation available:

1. a message that *arrived* at ``rank`` at exactly ``t`` — decomposed
   into receive-port wait, wire time, send-port wait, and the sender's
   local delay, jumping to the sender at post time;
2. a message that *left* ``rank`` at exactly ``t`` (a send-completion
   wake) — same decomposition minus the receive leg;
3. a span ending at exactly ``t`` (communicator creation preferred over
   compute over whole-phase collective spans, so granular charges beat
   the enclosing phase span when both end together);
4. otherwise an ``idle`` segment back to the rank's latest earlier
   activity (span end, message arrival, or send completion), which is
   where the path typically crosses to another rank on the next step.

Because segments are built backward and contiguously, the reported total
is ``total_time - 0`` by telescoping — *exactly* the run's
``simulated_us``, never a float sum of durations.  The CI trace-smoke
step asserts this equality bit-for-bit.

Analytic tiers (lockstep, fast-forward, batched) price whole phases
without individual messages, so inside those phases the path stays on one
rank and the whole window is attributed to the ``collective`` category —
which is the correct Figure-8 bucket for phases that are pure collective
communication.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .spans import TraceRecorder

__all__ = ["Segment", "CriticalPathReport", "critical_path", "format_report"]

#: When several spans end at the same instant on the same rank, the most
#: specific charge wins (creation charge > compute charge > whole phase).
_SPAN_PRIORITY = {"comm_create": 2, "compute": 1, "collective": 0}

#: Reader-facing grouping of segment categories (Figure-8 buckets).
_GROUPS = {
    "wire": "comm",
    "collective": "comm",
    "port_wait_send": "port_contention",
    "port_wait_recv": "port_contention",
    "compute": "compute",
    "comm_create": "comm_create",
    "idle": "idle",
}


class Segment(NamedTuple):
    """One contiguous piece of the critical path."""

    rank: int
    t0: float
    t1: float
    category: str
    label: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class CriticalPathReport:
    """The makespan path and its per-category attribution."""

    total: float
    segments: list[Segment] = field(default_factory=list)
    #: True when the backward walk reached time 0 (it always should; a
    #: False value means the walker hit its safety cap on a malformed
    #: trace and ``total`` covers only the explained suffix).
    complete: bool = True

    def category_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for seg in self.segments:
            totals[seg.category] = totals.get(seg.category, 0.0) + seg.duration
        return totals

    def grouped_totals(self) -> dict[str, float]:
        """Totals folded into Figure-8 buckets: ``comm`` (wire + analytic
        collective phases), ``port_contention``, ``compute``,
        ``comm_create``, ``idle``."""
        totals: dict[str, float] = {}
        for category, duration in self.category_totals().items():
            group = _GROUPS.get(category, category)
            totals[group] = totals.get(group, 0.0) + duration
        return totals

    def percentages(self) -> dict[str, float]:
        total = self.total
        if total <= 0.0:
            return {}
        return {group: 100.0 * duration / total
                for group, duration in self.grouped_totals().items()}


def _span_weight(span: tuple) -> tuple:
    return span[1], _SPAN_PRIORITY.get(span[3], 0)


def _binding(rows: list, key, weight) -> dict:
    """``{key(row): row}`` keeping, of rows that share a key, the one of
    greatest ``weight(row)`` — the first such in ``rows`` order.

    ``key`` is an :func:`operator.itemgetter`, so the index is built by the
    dict constructor with no Python-level call per row; ``weight`` runs only
    for rows whose key another row took (rare: two messages through one port
    at one instant, a charge and its enclosing phase ending together).
    """
    index = dict(zip(map(key, reversed(rows)), reversed(rows)))
    if len(index) < len(rows):
        for row in [row for row in rows if index[key(row)] is not row]:
            if weight(row) > weight(index[key(row)]):
                index[key(row)] = row
    return index


def _indexes(trace: TraceRecorder) -> tuple:
    """The walker's three lookups: the most-constraining edge per
    ``(dst, arrival)`` and per ``(src, leave)`` — on ties the latest-starting
    (then latest-posted) message is the binding one — and the span per
    ``(rank, t1)``, latest-starting then most specific first."""
    latest = itemgetter(4, 2)
    return (_binding(trace.edges, itemgetter(1, 6), latest),
            _binding(trace.edges, itemgetter(0, 5), latest),
            _binding(trace.spans, itemgetter(0, 2), _span_weight))


def critical_path(trace: TraceRecorder) -> CriticalPathReport:
    """Compute the makespan path of a finalized trace."""
    if not trace.finalized:
        raise ValueError("trace is not finalized; run it through a cluster "
                         "or call finalize() first")
    total_time = trace.total_time
    finish_times = trace.finish_times or []
    if total_time <= 0.0:
        return CriticalPathReport(total=0.0)

    by_arrival, by_leave, span_best = _indexes(trace)
    # Sorted (rank, time) activity ends for the idle fallback, built by the
    # first one: exactly the keys of the three indexes.
    activity = None

    # --- backward walk ----------------------------------------------------
    rank = max(range(len(finish_times)), key=finish_times.__getitem__) \
        if finish_times else 0
    t = total_time
    segments: list[Segment] = []
    guard = 4 * (len(trace.spans) + len(trace.edges)) + 16 * trace.num_ranks + 64
    while t > 0.0 and guard > 0:
        guard -= 1
        edge = by_arrival.get((rank, t))
        if edge is not None and edge[2] < t:
            src, dst, post, ld, start, leave, arrival, _words = edge
            label = f"{src}->{dst}"
            if arrival > leave:
                segments.append(Segment(dst, leave, arrival,
                                        "port_wait_recv", label))
            if leave > start:
                segments.append(Segment(src, start, leave, "wire", label))
            eligible = post + ld
            if start > eligible:
                segments.append(Segment(src, eligible, start,
                                        "port_wait_send", label))
            if eligible > post:
                segments.append(Segment(src, post, eligible, "compute",
                                        label + " local"))
            rank, t = src, post
            continue
        edge = by_leave.get((rank, t))
        if edge is not None and edge[2] < t:
            src, dst, post, ld, start, leave, _arrival, _words = edge
            label = f"{src}->{dst}"
            if leave > start:
                segments.append(Segment(src, start, leave, "wire", label))
            eligible = post + ld
            if start > eligible:
                segments.append(Segment(src, eligible, start,
                                        "port_wait_send", label))
            if eligible > post:
                segments.append(Segment(src, post, eligible, "compute",
                                        label + " local"))
            rank, t = src, post
            continue
        span = span_best.get((rank, t))
        if span is not None and span[1] < t:
            segments.append(Segment(*span))
            t = span[1]
            continue
        # Idle fallback: back to the rank's latest earlier activity.
        if activity is None:
            activity = sorted(chain(by_arrival, by_leave, span_best))
        prev = 0.0
        i = bisect_left(activity, (rank, t))
        if i > 0 and activity[i - 1][0] == rank:
            prev = activity[i - 1][1]
        segments.append(Segment(rank, prev, t, "idle", "idle"))
        t = prev

    segments.reverse()
    # Telescoping total: the segments contiguously cover [t, total_time],
    # so the explained length is an exact difference, not a sum.
    return CriticalPathReport(total=total_time - t, segments=segments,
                              complete=(t == 0.0))


def format_report(report: CriticalPathReport, *, limit: int = 30) -> str:
    """Human-readable rendering of a report (CLI / ``show --trace``)."""
    lines = [f"critical path: {report.total:.6f} simulated us "
             f"across {len(report.segments)} segment(s)"]
    if not report.complete:
        lines.append("  WARNING: walk did not reach t=0; attribution "
                     "covers only the explained suffix")
    percentages = report.percentages()
    grouped = report.grouped_totals()
    for group in sorted(grouped, key=grouped.__getitem__, reverse=True):
        lines.append(f"  {group:>15}: {grouped[group]:14.6f} us "
                     f"({percentages.get(group, 0.0):5.1f}%)")
    if report.segments:
        lines.append("  longest segments:")
        longest = sorted(report.segments, key=lambda s: s.duration,
                         reverse=True)[:limit]
        for seg in longest:
            lines.append(
                f"    [{seg.t0:14.6f} .. {seg.t1:14.6f}] rank {seg.rank:>5} "
                f"{seg.category:<15} {seg.label} ({seg.duration:.6f} us)")
    return "\n".join(lines)
