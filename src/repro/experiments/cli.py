"""Command-line driver: ``python -m repro.experiments {run,list,show,compare}``.

* ``run SPEC``  — execute a sweep (spec file path or shipped spec name) with
  parallel workers and the on-disk result cache; writes the aggregate table
  (text/JSON/CSV), the raw per-scenario results and a ``BENCH_<spec>.json``
  telemetry file into the output directory.
* ``list``      — shipped specs with their descriptions: the paper's figures
  (``fig5_comm_split_paper``, ``fig8_jquick_tiny``, ...) and the grid files.
* ``show SPEC`` — expand a spec and print its scenario grid without running.
* ``compare BASELINE CANDIDATE`` — cell-by-cell ratio table between two
  archived ``<spec>_results.json`` files (time, simulated time, messages per
  scenario), with an optional ``--fail-above`` CI gate on the time ratio.

``--set field=value`` (repeatable) overrides a field in every grid, dropping
a same-named axis — e.g. ``--set num_ranks=16`` downsizes a shipped grid for
a smoke run.  Values parse as JSON when possible, else as strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from ..bench.harness import write_bench_json
from .aggregate import (
    aggregate_results,
    compare_result_sets,
    load_results_json,
    write_csv,
    write_results_json,
)
from .cache import ResultCache, code_fingerprint, default_cache_dir
from .runner import ScenarioResult, run_spec
from .spec import ExperimentSpec, shipped_spec_names

__all__ = ["main"]


def _parse_overrides(pairs: Optional[Sequence[str]]) -> dict:
    overrides = {}
    for pair in pairs or ():
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--set expects field=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def _load_spec(name_or_path: str, overrides: dict) -> ExperimentSpec:
    try:
        spec = ExperimentSpec.load(name_or_path)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    if overrides:
        spec = spec.override(**overrides)
    return spec


def _cmd_list(_args) -> int:
    names = shipped_spec_names()
    if not names:
        print("no shipped specs")
        return 0
    width = max(len(name) for name in names)
    for name in names:
        spec = ExperimentSpec.load(name)
        scenarios = spec.scenarios()
        machines = sorted({s.machine for s in scenarios})
        print(f"{name:<{width}}  {len(scenarios):>3} scenario(s)  "
              f"machines: {', '.join(machines)}")
        if spec.description:
            print(f"{'':<{width}}  {spec.description}")
    return 0


def _cmd_show(args) -> int:
    spec = _load_spec(args.spec, _parse_overrides(args.set))
    scenarios = spec.scenarios()
    print(f"{spec.name}: {len(scenarios)} scenario(s)")
    if spec.description:
        print(spec.description)
    cache = ResultCache(args.cache_dir) if args.trace else None
    missing = unreadable = 0
    for index, scenario in enumerate(scenarios):
        print(f"[{index + 1:>3}] {scenario.scenario_id}  {scenario.describe()}")
        if cache is None:
            continue
        status = _show_trace(cache, scenario)
        missing += status == "missing"
        unreadable += status == "unreadable"
    if missing:
        print(f"\n{missing} scenario(s) have no trace artifact — run "
              f"`python -m repro.experiments run {args.spec} --trace` "
              "first (artifacts are invalidated by any repro code change)")
    return 1 if unreadable else 0


def _show_trace(cache: ResultCache, scenario) -> str:
    """Print the cached scenario's critical-path summary; returns ``"ok"``,
    ``"missing"`` or ``"unreadable"`` (one line names the file and why)."""
    from ..obs import TraceFormatError, critical_path, load_jsonl
    path = cache.trace_path_for(scenario)
    if not os.path.exists(path):
        print("      no trace artifact cached")
        return "missing"
    try:
        trace = load_jsonl(path)
    except TraceFormatError as exc:
        print(f"      {path}: TraceFormatError: {exc}")
        return "unreadable"
    report = critical_path(trace)
    percentages = report.percentages()
    breakdown = "  ".join(
        f"{category} {share:5.1f}%"
        for category, share in sorted(percentages.items(),
                                      key=lambda item: -item[1]))
    print(f"      critical path {report.total:.4f} us: {breakdown}")
    return "ok"


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec, _parse_overrides(args.set))
    scenarios = spec.scenarios()
    out_dir = args.out if args.out is not None \
        else os.path.join(os.getcwd(), "bench_results", "experiments", spec.name)
    os.makedirs(out_dir, exist_ok=True)

    if args.trace and args.no_cache:
        raise SystemExit("--trace persists its artifacts into the result "
                         "cache; drop --no-cache to use it")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        print(f"cache: {os.path.join(cache.root, cache.fingerprint)}")

    total = len(scenarios)
    state = {"done": 0}

    def progress(result: ScenarioResult) -> None:
        state["done"] += 1
        status = "FAILED" if not result.ok \
            else ("cached" if result.cached else f"{result.time_ms:10.3f} ms")
        print(f"[{state['done']:>3}/{total}] {result.scenario.scenario_id} "
              f"{status:>14}  {result.scenario.describe()}")
        if not result.ok and args.verbose:
            print(result.error, file=sys.stderr)

    run = run_spec(spec, workers=args.workers, cache=cache,
                   force=args.force, progress=progress, trace=args.trace)

    table = aggregate_results(
        run.results,
        title=f"{spec.name} — {total} scenario(s), "
              f"workers={args.workers}",
        notes=[spec.description] if spec.description else None)
    text_path = os.path.join(out_dir, f"{spec.name}.txt")
    with open(text_path, "w") as handle:
        handle.write(table.to_text() + "\n")
    with open(os.path.join(out_dir, f"{spec.name}.json"), "w") as handle:
        handle.write(table.to_json() + "\n")
    write_csv(table, os.path.join(out_dir, f"{spec.name}.csv"))
    write_results_json(run.results,
                       os.path.join(out_dir, f"{spec.name}_results.json"))
    write_bench_json(
        spec.name, wall_clock_s=run.wall_clock_s, telemetry=run.telemetry(),
        directory=out_dir,
        extra={"scenarios": total, "executed": run.executed,
               "cached_scenarios": run.cached, "failed": run.failed,
               "workers": args.workers, "code_fingerprint": code_fingerprint()})

    for result in run.results:
        if not result.ok:
            print(f"\nFAILED {result.scenario.scenario_id} "
                  f"({result.scenario.describe()}):", file=sys.stderr)
            print(result.error, file=sys.stderr)

    print(f"\nresults written to {out_dir}")
    print(f"run complete: {run.summary()}")
    return 1 if run.failed else 0


def _cmd_compare(args) -> int:
    try:
        baseline = load_results_json(args.baseline)
        candidate = load_results_json(args.candidate)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(str(exc))
    table = compare_result_sets(
        baseline, candidate,
        title=f"compare: {os.path.basename(args.baseline)} -> "
              f"{os.path.basename(args.candidate)}")
    print(table.to_text())

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.txt"), "w") as handle:
            handle.write(table.to_text() + "\n")
        with open(os.path.join(args.out, "compare.json"), "w") as handle:
            handle.write(table.to_json() + "\n")
        write_csv(table, os.path.join(args.out, "compare.csv"))
        print(f"\ncomparison written to {args.out}")

    failed = [row for row in table.rows if row["status"] != "ok"]
    regressed = []
    if args.fail_above is not None:
        regressed = [row for row in table.rows
                     if row.get("time_ms_ratio") is not None
                     and row["time_ms_ratio"] > args.fail_above]
        for row in regressed:
            print(f"REGRESSION {row['scenario_id']}: time ratio "
                  f"{row['time_ms_ratio']:.3f} > {args.fail_above}",
                  file=sys.stderr)
    for row in failed:
        print(f"UNMATCHED {row['scenario_id']}: {row['status']}",
              file=sys.stderr)
    return 1 if (failed or regressed) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="execute a sweep from a spec file or shipped spec name")
    run_parser.add_argument("spec", help="spec file (.toml/.json) or shipped "
                            "spec name (`list` prints them: the paper's "
                            "figures as <figure>_<scale>, and grid files)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="parallel worker processes (default 1)")
    run_parser.add_argument("--out", default=None,
                            help="output directory (default "
                                 "bench_results/experiments/<spec>)")
    run_parser.add_argument("--cache-dir", default=None,
                            help=f"result cache root (default {default_cache_dir()})")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the result cache")
    run_parser.add_argument("--force", action="store_true",
                            help="re-run scenarios even when cached")
    run_parser.add_argument("--set", action="append", metavar="FIELD=VALUE",
                            help="override a field in every grid (repeatable; "
                                 "drops a same-named axis)")
    run_parser.add_argument("--trace", action="store_true",
                            help="record a structured repro.obs trace per "
                                 "fresh scenario (first repetition) and "
                                 "persist it next to the cached result (a "
                                 "cached result without a complete trace "
                                 "artifact is re-run); inspect with "
                                 "`show --trace` or `python -m repro.obs`")
    run_parser.add_argument("--verbose", action="store_true",
                            help="print failure tracebacks as they happen")
    run_parser.set_defaults(func=_cmd_run)

    list_parser = commands.add_parser("list", help="list the shipped specs")
    list_parser.set_defaults(func=_cmd_list)

    show_parser = commands.add_parser(
        "show", help="expand a spec and print its scenarios without running")
    show_parser.add_argument("spec")
    show_parser.add_argument("--set", action="append", metavar="FIELD=VALUE")
    show_parser.add_argument("--trace", action="store_true",
                            help="print each scenario's cached critical-path "
                                 "summary (needs artifacts from a prior "
                                 "`run --trace`)")
    show_parser.add_argument("--cache-dir", default=None,
                            help=f"result cache root (default {default_cache_dir()})")
    show_parser.set_defaults(func=_cmd_show)

    compare_parser = commands.add_parser(
        "compare",
        help="cell-by-cell ratio table between two <spec>_results.json files")
    compare_parser.add_argument("baseline",
                                help="baseline <spec>_results.json")
    compare_parser.add_argument("candidate",
                                help="candidate <spec>_results.json")
    compare_parser.add_argument("--out", default=None,
                                help="also write compare.{txt,json,csv} "
                                     "into this directory")
    compare_parser.add_argument("--fail-above", type=float, default=None,
                                metavar="RATIO",
                                help="exit nonzero when any scenario's "
                                     "time_ms ratio exceeds RATIO")
    compare_parser.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)
