"""Structured observability for simulated runs (``repro.obs``).

Opt-in, zero-overhead-when-off tracing threaded through the whole stack:

* :class:`TraceRecorder` (:mod:`repro.obs.spans`) — the passive sink the
  engine, transport, SPMD coordinator, schedule-IR interpreter, and
  batched-sort tier emit spans / message edges / point events into.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto rendering and the
  columnar ``repro-trace/v2`` JSONL artifact of a recorded run.
* :mod:`repro.obs.critpath` — the critical-path analyzer: the one chain
  of computes, wire times, and port waits that determines
  ``simulated_us``, with Figure-8-style per-category attribution.

Capture a trace by passing ``trace=True`` (or a recorder instance) to
:class:`~repro.simulator.Cluster` / ``run_program``; read it back from
``ClusterResult.trace``.  ``python -m repro.obs`` inspects saved JSONL
traces (``timeline`` / ``critpath`` / ``summary``).
"""

from .critpath import CriticalPathReport, Segment, critical_path, format_report
from .export import (
    JSONL_SCHEMA,
    TABLES,
    TraceFormatError,
    check_jsonl_framing,
    dump_jsonl,
    load_jsonl,
    loads_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .spans import EVENT_KINDS, SPAN_CATEGORIES, TraceRecorder

__all__ = [
    "TraceRecorder",
    "SPAN_CATEGORIES",
    "EVENT_KINDS",
    "CriticalPathReport",
    "Segment",
    "critical_path",
    "format_report",
    "JSONL_SCHEMA",
    "TABLES",
    "TraceFormatError",
    "to_chrome_trace",
    "write_chrome_trace",
    "dump_jsonl",
    "write_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "check_jsonl_framing",
]
