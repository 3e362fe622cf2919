#!/usr/bin/env python
"""Validate ``repro.obs`` trace artifacts and gate the tracing overhead.

Two modes:

* ``python check_trace_schema.py FILE.jsonl [...]`` — validate existing
  ``repro-trace/v2`` artifacts.  The file's shape (schema, tables, column
  sets, equal column lengths, row counts against the header) is the
  loader's to judge — anything else, a per-record v1 file included, fails
  with the loader's ``TraceFormatError`` message; the values are judged
  here: ranks in range, monotone times, the category / kind vocabularies,
  and a complete critical-path walk whose makespan equals the recorded
  ``total_time`` exactly.
* ``python check_trace_schema.py`` (no arguments; CI's trace-smoke step) —
  run a tiny traced benchmark end to end: prove the traced run is
  bit-identical to the untraced one, write + re-validate the JSONL
  artifact, assert the critical path telescopes to ``simulated_us``
  exactly, print the artifact's dump / load / critical-path seconds and
  bytes per row (failing above 110: the per-record v1 format took ~150,
  v2 takes ~65-90), and gate the recording overhead on the engine
  ping-pong micro (traced wall-clock must stay within ``--max-overhead``
  of untraced, default 1.3x, min-of-N timing on both sides).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.obs import (  # noqa: E402
    EVENT_KINDS,
    SPAN_CATEGORIES,
    critical_path,
    format_report,
    load_jsonl,
    to_chrome_trace,
    write_jsonl,
)


#: Ceiling on a smoke artifact's size per span / edge / event.
MAX_BYTES_PER_ROW = 110


def validate_trace(trace, name: str) -> list:
    """Structural checks of one loaded trace; returns a list of problems."""
    problems = []
    if not trace.finalized:
        problems.append("trace is not finalized (no total_time)")
        return problems
    if len(trace.finish_times) != trace.num_ranks:
        problems.append(
            f"finish_times has {len(trace.finish_times)} entries for "
            f"{trace.num_ranks} ranks")
    for index, span in enumerate(trace.spans):
        rank, t0, t1, category, label = span
        if not (0 <= rank < trace.num_ranks):
            problems.append(f"span[{index}]: rank {rank} out of range")
        if t1 < t0:
            problems.append(f"span[{index}]: ends before it starts ({span})")
        if category not in SPAN_CATEGORIES:
            problems.append(f"span[{index}]: unknown category {category!r}")
        if not isinstance(label, str):
            problems.append(f"span[{index}]: non-string label")
    for index, edge in enumerate(trace.edges):
        src, dst, post, _local_delay, start, leave, arrival, words = edge
        if not (0 <= src < trace.num_ranks and 0 <= dst < trace.num_ranks):
            problems.append(f"edge[{index}]: endpoint out of range")
        if not (post <= start <= leave <= arrival):
            problems.append(
                f"edge[{index}]: times not monotone "
                f"(post={post}, start={start}, leave={leave}, "
                f"arrival={arrival})")
        if words < 0:
            problems.append(f"edge[{index}]: negative word count")
    for index, event in enumerate(trace.events):
        _time, rank, kind, _label = event
        if not (0 <= rank < trace.num_ranks):
            problems.append(f"event[{index}]: rank {rank} out of range")
        if kind not in EVENT_KINDS:
            problems.append(f"event[{index}]: unknown kind {kind!r}")

    report = critical_path(trace)
    if not report.complete:
        problems.append("critical-path walk did not reach time 0")
    if report.total != trace.total_time:
        problems.append(
            f"critical-path total {report.total!r} != recorded total_time "
            f"{trace.total_time!r} (must be exact, not approximate)")
    if not problems:
        grouped = ", ".join(f"{group} {share:.1f}%" for group, share
                            in sorted(report.percentages().items(),
                                      key=lambda item: -item[1]))
        print(f"OK    {name}: {trace.num_ranks} ranks, "
              f"{len(trace.spans)} spans, {len(trace.edges)} edges, "
              f"{len(trace.events)} events; critical path exact ({grouped})")
    return problems


def _run_pingpong(trace: bool):
    from bench_engine import pingpong_program
    from repro.simulator import Cluster

    cluster = Cluster(16, trace=trace or None)
    result = cluster.run(pingpong_program, rounds=200, words=8)
    return result


def _run_fig4(trace: bool):
    """A tiny fig4-style cell: scalar Iscan on the two-tier machine."""
    from repro.bench.harness import collective_program
    from repro.simulator import Cluster
    from repro.simulator.costmodel import HierarchicalParams

    cluster = Cluster(16, HierarchicalParams.two_tier(ranks_per_node=4),
                      trace=trace or None)
    return cluster.run(collective_program, operation="scan", impl="rbc",
                       vendor="generic", words=64, lockstep=False)


def smoke(max_overhead: float, repeats: int) -> int:
    """CI mode: traced run end to end + overhead gate; returns exit code."""
    problems = []

    # 1. Bit-identity: tracing must not perturb the simulation — on the
    #    engine micro and on a tiny fig4-style collective cell.
    for name, runner in (("pingpong", _run_pingpong), ("fig4", _run_fig4)):
        untraced = runner(False)
        traced = runner(True)
        for field in ("total_time", "events_processed", "finish_times"):
            if getattr(untraced, field) != getattr(traced, field):
                problems.append(
                    f"{name}: {field} differs traced vs untraced: "
                    f"{getattr(traced, field)!r} != "
                    f"{getattr(untraced, field)!r}")
        if untraced.stats.messages_sent != traced.stats.messages_sent:
            problems.append(f"{name}: messages_sent differs traced vs untraced")

        # 2. Artifact round-trip + schema + exact critical path, timed.
        path = os.path.join(HERE, "bench_results",
                            f"trace_smoke_{name}.trace.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        start = time.perf_counter()
        write_jsonl(traced.trace, path)
        dumped = time.perf_counter()
        reloaded = load_jsonl(path)
        loaded = time.perf_counter()
        report = critical_path(reloaded)
        walked = time.perf_counter()
        problems.extend(validate_trace(reloaded, os.path.basename(path)))
        if (reloaded.spans, reloaded.edges, reloaded.events) != \
                (traced.trace.spans, traced.trace.edges, traced.trace.events) \
                or reloaded.total_time != traced.total_time:
            problems.append(f"{name}: JSONL round-trip changed the trace")
        rows = len(reloaded.spans) + len(reloaded.edges) + len(reloaded.events)
        per_row = os.path.getsize(path) / rows
        print(f"      dump {dumped - start:.4f} s, load {loaded - dumped:.4f} s, "
              f"critical path {walked - loaded:.4f} s; "
              f"{os.path.getsize(path)} bytes / {rows} rows = "
              f"{per_row:.1f} bytes per row (limit {MAX_BYTES_PER_ROW})")
        if per_row > MAX_BYTES_PER_ROW:
            problems.append(f"{name}: {per_row:.1f} bytes per row exceeds "
                            f"{MAX_BYTES_PER_ROW}")
        chrome = to_chrome_trace(reloaded)
        if not chrome["traceEvents"]:
            problems.append(f"{name}: chrome export produced no events")
        print(format_report(report, limit=5))

    # 3. Overhead gate: min-of-N wall clock, traced vs untraced.
    def best_of(trace_on: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _run_pingpong(trace_on)
            best = min(best, time.perf_counter() - start)
        return best

    base = best_of(False)
    on = best_of(True)
    ratio = on / base if base > 0 else 1.0
    print(f"overhead: untraced {base * 1e3:.1f} ms, traced {on * 1e3:.1f} ms "
          f"-> {ratio:.3f}x (limit {max_overhead:.2f}x)")
    if ratio > max_overhead:
        problems.append(
            f"tracing overhead {ratio:.3f}x exceeds {max_overhead:.2f}x "
            "on the engine ping-pong bench")

    if problems:
        for problem in problems:
            print(f"FAIL  {problem}", file=sys.stderr)
        return 1
    print("trace smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*",
                        help="trace JSONL files to validate; with none, run "
                             "the CI smoke (traced bench + overhead gate)")
    parser.add_argument("--max-overhead", type=float, default=1.3,
                        help="fail when traced wall-clock exceeds this "
                             "multiple of untraced (smoke mode, default 1.3)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="min-of-N repetitions for the overhead timing")
    args = parser.parse_args(argv)

    if not args.traces:
        return smoke(args.max_overhead, args.repeats)

    failures = 0
    for path in args.traces:
        try:
            trace = load_jsonl(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL  {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        problems = validate_trace(trace, os.path.basename(path))
        for problem in problems:
            print(f"FAIL  {path}: {problem}", file=sys.stderr)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
