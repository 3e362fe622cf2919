#!/usr/bin/env python
"""Compare fresh ``BENCH_*.json`` results against committed baselines.

Every benchmark writes a machine-readable ``BENCH_<name>.json`` (wall-clock
seconds, total simulated time, events processed) under ``bench_results/``.
Committed snapshots of those files live under ``baselines/`` and define the
perf trajectory; this script fails CI when a fresh run regresses:

* ``events_processed`` grew by more than ``--max-events-ratio`` (default
  1.25, i.e. +25%) — the engine started doing more work per simulation;
* ``wall_clock_s`` grew by more than ``--max-wall-ratio`` (default 2.0) —
  generous, because CI hardware varies, but catches order-of-magnitude
  slowdowns;
* ``simulated_us`` or ``messages_sent`` changed at all — simulated time and
  the message count are bit-exact by design, so any drift is a semantic
  change (update the baseline deliberately if it is an intentional
  algorithm change).

``events_processed`` is deterministic too, so any difference inside the
allowed ratio — a drop included — prints a ``STALE`` line: the result still
passes, but the committed count no longer describes the tree and should be
re-pinned (copy the fresh file over the baseline) instead of lingering.

Baselines without a fresh result are skipped as long as their benchmark still
exists — CI only regenerates a subset of the suite (pass ``--require-all`` to
turn any missing fresh result into a failure).  Two situations are *hard*
failures, so a bench can never ship ungated:

* a fresh result with no committed baseline (a new benchmark whose baseline
  was not committed) — run ``python check_trajectory.py --rebaseline`` and
  commit the adopted file;
* a committed baseline whose benchmark no longer exists in any ``bench_*.py``
  (the bench was deleted or renamed but its baseline stayed behind) —
  ``--rebaseline`` removes such orphans.

``--rebaseline`` deliberately adopts the fresh results as the new committed
baselines (use after an intentional algorithm change, e.g. a new default
sampler).  It prints the old -> new ``simulated_us`` / ``events_processed``
diff of every replaced file — paste that table into the PR description so the
re-baseline is reviewable.

Usage::

    python check_trajectory.py [--results DIR] [--baselines DIR]
        [--max-events-ratio 1.25] [--max-wall-ratio 2.0] [--require-all]
        [--rebaseline] [--scale {tiny,small,paper}]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys


def collect_bench_tests(bench_dir: str) -> set:
    """Names of all test functions defined in ``bench_*.py`` under ``bench_dir``.

    ``BENCH_<name>.json`` files are written per pytest node; the node name is
    the test function name (plus a sanitised parameter suffix), so a baseline
    whose name matches no defined test function is orphaned.
    """
    tests: set = set()
    if not os.path.isdir(bench_dir):
        return tests
    for name in sorted(os.listdir(bench_dir)):
        if not (name.startswith("bench_") and name.endswith(".py")):
            continue
        with open(os.path.join(bench_dir, name)) as handle:
            tests.update(re.findall(r"^def\s+(test_\w+)\s*\(", handle.read(),
                                    flags=re.MULTILINE))
    return tests


def bench_name_of(filename: str) -> str:
    """``BENCH_<name>.json`` -> ``<name>``."""
    return filename[len("BENCH_"):-len(".json")]


def is_orphaned(filename: str, tests: set) -> bool:
    """True when no defined test function can have produced ``filename``."""
    name = bench_name_of(filename)
    return not any(name == test or name.startswith(test + "_")
                   for test in tests)


def load_dir(path: str) -> dict:
    results = {}
    if not os.path.isdir(path):
        return results
    for name in sorted(os.listdir(path)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        with open(os.path.join(path, name)) as handle:
            results[name] = json.load(handle)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--results", default=os.path.join(here, "bench_results"))
    parser.add_argument("--baselines", default=os.path.join(here, "baselines"))
    parser.add_argument("--max-events-ratio", type=float, default=1.25,
                        help="fail when events_processed grows past this factor")
    parser.add_argument("--max-wall-ratio", type=float, default=2.0,
                        help="fail when wall_clock_s grows past this factor")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a baseline has no fresh result")
    parser.add_argument("--bench-dir", default=here,
                        help="directory scanned for bench_*.py test "
                             "definitions (orphaned-baseline detection)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="adopt the fresh results as the new baselines, "
                             "drop orphaned ones and print the old->new "
                             "simulated_us diff")
    parser.add_argument("--scale", default=None,
                        choices=["tiny", "small", "paper"],
                        help="only consider results/baselines recorded at "
                             "this REPRO_BENCH_SCALE; files of other scales "
                             "are ignored entirely (CI runs the tiny sweep "
                             "and the paper-scale gate as separate passes)")
    args = parser.parse_args(argv)

    baselines = load_dir(args.baselines)
    fresh = load_dir(args.results)
    if args.scale is not None:
        baselines = {name: data for name, data in baselines.items()
                     if data.get("scale") == args.scale}
        fresh = {name: data for name, data in fresh.items()
                 if data.get("scale") == args.scale}
    # State where every file came from, so a run against the wrong --results
    # (or an empty bench_results/ after a clean checkout) is obvious from the
    # output rather than silently reporting "nothing to check".
    scale_note = "" if args.scale is None else f" (scale={args.scale})"
    print(f"fresh results: {len(fresh)} file(s) from {args.results}{scale_note}")
    print(f"baselines:     {len(baselines)} file(s) from {args.baselines}{scale_note}")
    tests = collect_bench_tests(args.bench_dir)
    if not tests:
        # With zero collected tests every file would look orphaned, and
        # --rebaseline would silently delete every baseline and result from
        # one mistyped --bench-dir.  Refuse instead.
        print(f"no bench_*.py test definitions found under {args.bench_dir}; "
              "refusing to treat everything as orphaned (check --bench-dir)",
              file=sys.stderr)
        return 1

    if args.rebaseline:
        return rebaseline(args.results, args.baselines, baselines, fresh, tests)
    if not baselines and not fresh:
        # With fresh results present the main loop must still run: each one
        # is an ungated bench (no committed baseline) and must fail hard.
        print(f"no baselines under {args.baselines}; nothing to check")
        return 0

    failures = []
    checked = 0
    for name, base in baselines.items():
        if is_orphaned(name, tests):
            failures.append(
                f"{name}: baseline is orphaned — no bench_*.py defines a "
                f"matching test (deleted bench? remove the baseline, or "
                "run `python check_trajectory.py --rebaseline`)")
            continue
        current = fresh.get(name)
        if current is None:
            message = f"{name}: no fresh result"
            if args.require_all:
                failures.append(message)
            else:
                print(f"SKIP  {message}")
            continue
        if base.get("scale") != current.get("scale"):
            # Different REPRO_BENCH_SCALE runs are not comparable — neither
            # counters nor simulated time; don't misreport as a regression.
            print(f"SKIP  {name}: scale mismatch "
                  f"(baseline {base.get('scale')!r}, fresh {current.get('scale')!r})")
            continue
        checked += 1
        problems = []

        base_events = base.get("events_processed") or 0
        cur_events = current.get("events_processed") or 0
        if base_events and cur_events > base_events * args.max_events_ratio:
            problems.append(
                f"events_processed {cur_events} > {args.max_events_ratio:.2f}x "
                f"baseline {base_events}")
        elif base_events and cur_events != base_events:
            print(f"STALE {name}: events_processed {cur_events} != baseline "
                  f"{base_events} (within bounds; re-pin the baseline)")

        base_wall = base.get("wall_clock_s") or 0.0
        cur_wall = current.get("wall_clock_s") or 0.0
        if base_wall and cur_wall > base_wall * args.max_wall_ratio:
            problems.append(
                f"wall_clock_s {cur_wall:.3f} > {args.max_wall_ratio:.2f}x "
                f"baseline {base_wall:.3f}")

        if "simulated_us" in base and "simulated_us" in current \
                and current["simulated_us"] != base["simulated_us"]:
            problems.append(
                f"simulated_us changed: {current['simulated_us']!r} != "
                f"baseline {base['simulated_us']!r} (bit-exactness broken — "
                "update the baseline only for intentional algorithm changes)")

        if "messages_sent" in base and "messages_sent" in current \
                and current["messages_sent"] != base["messages_sent"]:
            problems.append(
                f"messages_sent changed: {current['messages_sent']} != "
                f"baseline {base['messages_sent']} (a different schedule "
                "ran — an event-count re-pin must never carry this)")

        # Newer harness versions add counters (tier attribution, trace
        # stats) that old committed baselines predate.  Those keys are
        # informational, not gated: print them so the trajectory output
        # shows what the baseline is missing, but never fail on them.
        new_keys = sorted(set(current) - set(base))
        if new_keys:
            print(f"NOTE  {name}: fresh keys not in baseline (ignored): "
                  + ", ".join(new_keys))

        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
        else:
            improvement = ""
            if base_wall and cur_wall:
                improvement = f" ({base_wall / cur_wall:.2f}x wall vs baseline)"
            print(f"OK    {name}{improvement}")

    for name in sorted(set(fresh) - set(baselines)):
        if is_orphaned(name, tests):
            failures.append(
                f"{name}: stale fresh result — no bench_*.py defines a "
                "matching test (renamed/deleted bench?); run `python "
                "check_trajectory.py --rebaseline` to drop it, or delete "
                "the file")
        else:
            failures.append(
                f"{name}: fresh result has no committed baseline — a new "
                "bench must ship gated; run `python check_trajectory.py "
                "--rebaseline` and commit the adopted baseline")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"FAIL  {failure}", file=sys.stderr)
        return 1
    print(f"\ntrajectory OK: {checked} benchmark(s) within bounds")
    return 0


def rebaseline(results_dir: str, baselines_dir: str,
               baselines: dict, fresh: dict, tests: set) -> int:
    """Copy fresh results over the committed baselines; print the diff table.

    Baselines whose benchmark no longer exists (no matching test in any
    ``bench_*.py``) are deleted, so the orphan check of the gate mode cannot
    keep failing after a bench is removed or renamed.
    """
    if not fresh:
        print(f"no fresh results under {results_dir}; run the benchmark suite "
              "first", file=sys.stderr)
        return 1
    os.makedirs(baselines_dir, exist_ok=True)
    adopted = 0
    print(f"{'benchmark':45s} {'simulated_us old -> new':>32s} "
          f"{'events old -> new':>24s}")
    for name in sorted(fresh):
        if is_orphaned(name, tests):
            os.remove(os.path.join(results_dir, name))
            print(f"DROP  {name}: fresh result is orphaned (no matching "
                  "bench test), deleted instead of adopted")
            continue
        adopted += 1
        current = fresh[name]
        base = baselines.get(name)
        sim_new = current.get("simulated_us")
        ev_new = current.get("events_processed")
        if base is None:
            sim_col = f"(new) -> {sim_new!r}"
            ev_col = f"(new) -> {ev_new}"
        else:
            sim_old = base.get("simulated_us")
            ev_old = base.get("events_processed")
            sim_col = "unchanged" if sim_old == sim_new \
                else f"{sim_old!r} -> {sim_new!r}"
            ev_col = "unchanged" if ev_old == ev_new \
                else f"{ev_old} -> {ev_new}"
        print(f"{name:45s} {sim_col:>32s} {ev_col:>24s}")
        shutil.copyfile(os.path.join(results_dir, name),
                        os.path.join(baselines_dir, name))
    removed = 0
    for name in sorted(baselines):
        if is_orphaned(name, tests):
            # Orphans are dropped even when a stale fresh result of the same
            # name exists — that fresh file was skipped above, so keeping the
            # baseline would leave the gate failing forever.
            os.remove(os.path.join(baselines_dir, name))
            removed += 1
            print(f"DROP  {name}: orphaned baseline (no bench_*.py defines a "
                  "matching test)")
        elif name not in fresh:
            print(f"KEPT  {name}: baseline has no fresh result (not replaced)")
    print(f"\nrebaselined {adopted} file(s) into {baselines_dir}"
          + (f", removed {removed} orphan(s)" if removed else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
