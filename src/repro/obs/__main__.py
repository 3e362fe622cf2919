"""CLI over saved ``repro-trace/v2`` JSONL traces:
``python -m repro.obs <command> <trace>``.

Commands
--------
``timeline TRACE [-o OUT.json]``
    Convert a JSONL trace to Chrome-trace/Perfetto JSON (open the output
    at https://ui.perfetto.dev or chrome://tracing).
``critpath TRACE [--limit N]``
    Print the critical-path report: makespan, Figure-8 bucket
    percentages, longest segments.
``summary TRACE``
    Print per-category span totals, per-rank activity, recorded
    counters, the reasons a faster tier was declined, and point events.

A file that is not a complete v2 trace (cut off, hand-edited, written by an
older version) ends the command with one line naming the file and the
:class:`~repro.obs.export.TraceFormatError`, exit status 1.
"""

from __future__ import annotations

import argparse
import sys

from .critpath import critical_path, format_report
from .export import TraceFormatError, load_jsonl, write_chrome_trace


def _cmd_timeline(args, trace) -> int:
    out = args.output or (args.trace + ".chrome.json")
    write_chrome_trace(trace, out)
    print(f"wrote {out}: {len(trace.spans)} span(s), "
          f"{len(trace.edges)} message edge(s), "
          f"{len(trace.events)} event(s) across {trace.num_ranks} rank(s)")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_critpath(args, trace) -> int:
    print(format_report(critical_path(trace), limit=args.limit))
    return 0


def _cmd_summary(args, trace) -> int:
    print(f"trace: {trace.num_ranks} rank(s), "
          f"total_time={trace.total_time:.6f} us")
    print(f"  spans: {len(trace.spans)}  edges: {len(trace.edges)}  "
          f"events: {len(trace.events)}")
    totals = trace.category_totals()
    for category in sorted(totals, key=totals.__getitem__, reverse=True):
        print(f"  {category:>15}: {totals[category]:14.6f} us summed "
              f"across ranks")
    counters = dict(trace.counters)
    declined = counters.pop("tier_declined", None)
    if counters:
        print("  counters:")
        for key in sorted(counters):
            print(f"    {key}: {counters[key]}")
    if declined:
        print("  faster tiers that were asked for and did not run:")
        for reason in sorted(declined):
            print(f"    {declined[reason]} x {reason}")
    kinds: dict[str, int] = {}
    for _time, _rank, kind, _label in trace.events:
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in sorted(kinds):
        print(f"  {kinds[kind]} '{kind}' event(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect saved repro-trace/v2 JSONL traces (the columnar "
                    "artifacts of write_jsonl and `experiments run --trace`).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("timeline",
                       help="convert to Chrome-trace/Perfetto JSON")
    p.add_argument("trace", help="path to a .trace.jsonl file")
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: TRACE.chrome.json)")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("critpath", help="print the critical-path report")
    p.add_argument("trace", help="path to a .trace.jsonl file")
    p.add_argument("--limit", type=int, default=30,
                   help="number of longest segments to show")
    p.set_defaults(func=_cmd_critpath)

    p = sub.add_parser("summary", help="print span/counter totals")
    p.add_argument("trace", help="path to a .trace.jsonl file")
    p.set_defaults(func=_cmd_summary)

    args = parser.parse_args(argv)
    try:
        trace = load_jsonl(args.trace)
    except (OSError, TraceFormatError) as exc:
        print(f"{args.trace}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return args.func(args, trace)


if __name__ == "__main__":
    sys.exit(main())
