"""Driver side of the benchmark: spawns the measuring processes, one at a time.

``contract_main`` is the one-workload entry of ``BENCHMARK.json``;
``main`` is ``python -m perfbench {run,pin,selfcheck,ab}``.  The driver only
waits while a child runs, so never more than one process is busy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS

__all__ = ["main", "contract_main", "run_workload", "spread"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_RUNS = 3

#: A child must be done well inside the 180 s the contract allows a run.
CHILD_TIMEOUT_S = 170

PIN_SEEDS = (1000, 2024)


# ---------------------------------------------------------------------------
# Spawning children.
# ---------------------------------------------------------------------------

def _import_program() -> None:
    """Import everything a child imports, once, in the driver.

    Fails loudly when ``src/repro`` is missing, and leaves the ``.pyc``
    files behind so no child pays for writing them inside ``setup_s``.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program to measure: {SRC}/repro "
                         "does not exist")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from . import child, spans, workloads  # noqa: F401
    spans._boundaries()


def _workload_names(selection=None) -> list:
    from .workloads import WORKLOADS
    names = selection.split(",") if selection else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"perfbench: unknown workload(s) {unknown}; "
                         f"choose from {list(WORKLOADS)}")
    return names


def _spawn(workload, seed, seconds, mode, src=SRC) -> dict:
    """Run one child to its end and return the document it printed."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [ROOT, src] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)).rstrip(os.pathsep),
               PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {workload}/{mode} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds=RUN_SECONDS, trace=False,
                 src=SRC) -> dict:
    """One contract run: the child's document plus ``metrics``.

    Untraced: one measuring child and ``SETUP_RUNS - 1`` set-up-only
    children; ``setup_s`` is the median over all of them.  Traced: one child
    that repeats the untraced passes and adds a pass under spans.
    """
    if trace:
        document = _spawn(workload, seed, seconds, "traced", src)
        values, table = document["per_layer"], PER_LAYER
    else:
        document = _spawn(workload, seed, seconds, "timed", src)
        setups = [document]
        setups += [_spawn(workload, seed, seconds, "setup", src)
                   for _ in range(SETUP_RUNS - 1)]
        document["setup_samples_s"] = [s["setup_s"] for s in setups]
        document["end_to_end"]["setup_s"] = \
            statistics.median(document["setup_samples_s"])
        for extra in setups[1:]:
            document["attempted"] += extra["attempted"]
            document["failed"] += extra["failed"]
            document["failures"] += extra["failures"]
            document["loadavg1"] = max(document["loadavg1"], extra["loadavg1"])
        values, table = document["end_to_end"], END_TO_END
    document["metrics"] = {name: {"value": values[name], "unit": unit}
                           for name, unit, *_ in table}
    return document


def _print_metrics(document) -> None:
    print(f"# {document['workload']} seed={document['seed']} "
          f"pinned={str(document['pinned']).lower()} "
          f"passes={len(document['passes'])} "
          f"failed={document['failed']}/{document['attempted']}")
    for reason in document["failures"]:
        print(f"#   FAILED {reason}")
    for name, metric in document["metrics"].items():
        print(f"{name:44s} {metric['value']!r:>24} {metric['unit']}")


def contract_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    _workload_names(args.workload)
    document = run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    _print_metrics(document)
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------------
# python -m perfbench run
# ---------------------------------------------------------------------------

def _environment() -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "loadavg": list(os.getloadavg())}


def _noisy(documents) -> bool:
    """The 1-min load exceeded ``nproc - 1`` when some child started."""
    return any(d["loadavg1"] > os.cpu_count() - 1 for d in documents)


def _cmd_run(args) -> int:
    _import_program()
    names = _workload_names(args.workloads)
    report = {"environment": _environment(), "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    documents = []
    for name in names:
        entry = {"untraced": run_workload(name, args.seed, args.seconds)}
        if args.trace:
            entry["traced"] = run_workload(name, args.seed, args.seconds, True)
        for document in entry.values():
            _print_metrics(document)
            documents.append(document)
        report["workloads"][name] = entry
    report["noisy"] = _noisy(documents)
    report["failed"] = sum(d["failed"] for d in documents)
    print(f"# noisy={str(report['noisy']).lower()} "
          f"failed={report['failed']}")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    return 1 if report["failed"] else 0


# ---------------------------------------------------------------------------
# python -m perfbench pin
# ---------------------------------------------------------------------------

def _signatures(collector, cells, seed) -> dict:
    """Signatures of two passes over ``cells``; they must agree and pass."""
    from . import child, workloads

    inputs = workloads.make_inputs(cells, seed)
    passes = [workloads.run_pass(cells, inputs, collector) for _ in range(2)]
    _attempted, failed, reasons = child.judge([], passes, None)
    if failed:
        raise SystemExit(f"pin: {reasons}")
    return {cell.key: cell.signatures() for cell in passes[0]}


def _cmd_pin(args) -> int:
    _import_program()
    from repro.simulator import Cluster
    from repro.simulator.cluster import add_run_observer, remove_run_observer

    from . import child, workloads

    collector = workloads.SimCollector()
    add_run_observer(collector)
    pins = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            by_seed = {}
            for seed in PIN_SEEDS:
                if args.oracle:
                    small = workload.cells(workloads.WARMUP_SHRINK)
                    default = _signatures(collector, small, seed)
                    # The oracle: the tuple-heap reference event core.  Cells
                    # that go through repro.experiments build their clusters
                    # inside the library and stay on the default core.
                    workloads.Cluster = functools.partial(
                        Cluster, reference_engine=True)
                    try:
                        oracle = _signatures(collector, small, seed)
                    finally:
                        workloads.Cluster = Cluster
                    if oracle != default:
                        raise SystemExit(
                            f"pin: {name} seed {seed}: the reference engine "
                            f"disagrees: {oracle} != {default}")
                by_seed[str(seed)] = _signatures(
                    collector, workload.cells(1), seed)
                print(f"pinned {name} seed {seed}")
            first = by_seed[str(PIN_SEEDS[0])]
            pins[name] = {"any": first} if all(
                value == first for value in by_seed.values()) else by_seed
    finally:
        remove_run_observer(collector)
    with open(child.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ---------------------------------------------------------------------------
# python -m perfbench selfcheck / ab
# ---------------------------------------------------------------------------

def spread(values) -> float:
    """Quartile distance as a share of the median (the acceptance statistic)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _worse_by(first, second, better) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def _collect(names, seeds, seconds) -> dict:
    """``{workload: {metric: [value per seed]}}`` over untraced runs."""
    values = {name: {metric: [] for metric, *_ in END_TO_END}
              for name in names}
    for name in names:
        for seed in seeds:
            document = run_workload(name, seed, seconds)
            if document["failed"]:
                raise SystemExit(f"{name} seed {seed}: "
                                 f"{document['failures']}")
            for metric, *_ in END_TO_END:
                values[name][metric].append(document["end_to_end"][metric])
    return values


def _cmd_selfcheck(args) -> int:
    _import_program()
    names = _workload_names(args.workloads)
    seeds = [args.seed + index for index in range(args.runs)]
    first = _collect(names, seeds, args.seconds)
    second = _collect(names, seeds, args.seconds)
    bad = 0
    print(f"{'workload':14s} {'metric':16s} {'median 1':>14s} "
          f"{'median 2':>14s} {'worse by':>9s} {'spread 1':>9s} "
          f"{'spread 2':>9s} {'bound':>6s}")
    for name in names:
        for metric, _unit, better, bound in END_TO_END:
            one, two = first[name][metric], second[name][metric]
            worse = _worse_by(statistics.median(one), statistics.median(two),
                              better)
            spreads = (spread(one), spread(two))
            # setup_s is held to its median only, like the acceptance test.
            failed = worse > bound or (
                metric != "setup_s" and max(spreads) > bound)
            bad += failed
            print(f"{name:14s} {metric:16s} {statistics.median(one):14.6g} "
                  f"{statistics.median(two):14.6g} {worse:+9.2%} "
                  f"{spreads[0]:9.2%} {spreads[1]:9.2%} {bound:6.0%}"
                  f"{'  FAIL' if failed else ''}")
    return 1 if bad else 0


def _cmd_ab(args) -> int:
    _import_program()
    names = _workload_names(args.workloads)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for src in sides.values():
        # One discarded child per tree: its imports leave the .pyc files
        # behind, so the first measured pair does not pay for writing them.
        _spawn(names[0], args.seed, 0, "setup", src)
    print(f"{'workload':14s} {'metric':16s} {'parent med [q1,q3]':>34s} "
          f"{'change med [q1,q3]':>34s} {'won':>6s} verdict")
    for name in names:
        runs = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run_workload(
                    name, args.seed + pair, args.seconds,
                    src=sides[side])["end_to_end"])
        for metric, _unit, better, bound in END_TO_END:
            parent = [run[metric] for run in runs["parent"]]
            change = [run[metric] for run in runs["change"]]
            won = sum(_worse_by(a, b, better) < 0
                      for a, b in zip(parent, change))
            lost = sum(_worse_by(a, b, better) > 0
                       for a, b in zip(parent, change))
            quartiles = {side: statistics.quantiles(vals, n=4)
                         for side, vals in (("parent", parent),
                                            ("change", change))}
            apart = abs(statistics.median(change) - statistics.median(parent)) \
                > quartiles["parent"][2] - quartiles["parent"][0]
            # The rule needs ten pairs; fewer never resolve anything.
            if args.pairs >= 10 and apart and won >= 0.9 * args.pairs:
                verdict = "better"
            elif args.pairs >= 10 and apart and lost >= 0.9 * args.pairs:
                verdict = "worse"
            else:
                verdict = "unresolved"
            if _worse_by(statistics.median(parent), statistics.median(change),
                         better) > bound:
                verdict += " (beyond the bound)"
            cells = [f"{statistics.median(vals):.6g} "
                     f"[{quartiles[side][0]:.6g},{quartiles[side][2]:.6g}]"
                     for side, vals in (("parent", parent),
                                        ("change", change))]
            print(f"{name:14s} {metric:16s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{won:3d}/{args.pairs:<2d} {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--workloads", help="comma-separated subset")
        sub.add_argument("--seed", type=int, default=PIN_SEEDS[0])
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS)

    run = commands.add_parser("run", help="run the workloads, print every "
                              "metric, write the report")
    common(run)
    run.add_argument("--trace", action="store_true",
                     help="add the traced run (per-layer metrics)")
    run.add_argument("--out", required=True)
    run.set_defaults(handler=_cmd_run)

    pin = commands.add_parser("pin", help="regenerate expected.json")
    pin.add_argument("--oracle", action="store_true",
                     help="first require the warm-up shapes to be bit-equal "
                          "on the reference engine")
    pin.set_defaults(handler=_cmd_pin)

    selfcheck = commands.add_parser(
        "selfcheck", help="two sets of runs of this tree must agree within "
                          "every bound")
    common(selfcheck)
    selfcheck.add_argument("--runs", type=int, default=10)
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    ab = commands.add_parser("ab", help="interleaved A/B of two source trees")
    common(ab)
    ab.add_argument("--parent", required=True, help="src directory A")
    ab.add_argument("--change", required=True, help="src directory B")
    ab.add_argument("--pairs", type=int, default=10)
    ab.set_defaults(handler=_cmd_ab)

    args = parser.parse_args(argv)
    return args.handler(args)
