"""The measuring process: one workload, one fresh single-threaded interpreter.

``python -m perfbench.child --workload W --seed N --seconds S --mode M``
prints one JSON document as the last line of its standard output.

* ``setup``: imports, input generation, pins, the checked warm-up pass — then
  stop.  Its only result is ``setup_s``.
* ``timed``: set-up, then timed passes of the full-size workload until
  ``--seconds`` of pass time are spent (at least ``MIN_PASSES``), every
  wrapper off.  This is where the end-to-end metrics come from.
* ``traced``: the same, then one more pass with :mod:`perfbench.spans`
  installed, the tier probe grid, and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time

from repro import experiments
from repro.simulator import MACHINE_PRESETS
from repro.simulator.cluster import add_run_observer, remove_run_observer

from . import reference, spans, workloads

__all__ = ["main", "judge", "load_pins", "MIN_PASSES"]

#: A median needs at least this many passes, however slow the machine is.
MIN_PASSES = 3

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "expected.json")


def load_pins(workload: str, seed: int):
    """The pinned signatures ``{cell key: [signature, ...]}`` or None.

    A workload whose simulations do not depend on the seed is pinned under
    the key ``"any"``.
    """
    try:
        with open(PINS_PATH) as handle:
            pins = json.load(handle).get(workload, {})
    except FileNotFoundError:
        return None
    return pins.get(str(seed), pins.get("any"))


def judge(warmup, passes, pins):
    """``(attempted, failed, reasons)`` over the warm-up and the given passes.

    A cell's simulations fail when it raised, its output check failed, its
    simulations differ from the pin, or they differ from the first pass.
    """
    attempted = failed = 0
    reasons = []

    def count(cell, reason):
        nonlocal attempted, failed
        attempted += cell.attempted
        if reason is not None:
            failed += cell.attempted
            reasons.append(f"{cell.key}: {reason}")

    for cell in warmup:
        count(cell, cell.failure)
    for index, cells in enumerate(passes):
        for cell, first in zip(cells, passes[0]):
            reason = cell.failure
            if reason is None and pins is not None \
                    and cell.signatures() != pins.get(cell.key):
                reason = (f"differs from the pin: {cell.signatures()} "
                          f"!= {pins.get(cell.key)}")
            if reason is None and cell.signatures() != first.signatures():
                reason = f"pass {index} differs from pass 0"
            count(cell, reason)
    return attempted, failed, reasons


def _pass_wall(cells) -> float:
    return sum(cell.wall_s for cell in cells)


def _probe_refusal_rate() -> float:
    """Refused / attempted over the fixed tier probe grid."""
    attempted = refused = 0
    for machine in sorted(MACHINE_PRESETS):
        for num_ranks in (64, 512):
            for operation in ("bcast", "reduce", "scan", "gather"):
                result = experiments.execute_scenario(experiments.Scenario(
                    kind="collective", machine=machine, num_ranks=num_ranks,
                    operation=operation, impl="rbc", vendor="generic",
                    words=16))
                attempted += 1
                refused += (not result.ok) or \
                    result.telemetry.get("lockstep_refusals", 0) > 0
    return refused / attempted


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(passes, traced, recorder, extra) -> dict:
    """Every per-layer metric from the untraced passes and the traced pass."""
    walls = [_pass_wall(cells) for cells in passes]
    median_pass = passes[walls.index(statistics.median_low(walls))]
    median_cells = {cell.key: cell for cell in median_pass}
    cells = {cell.key: cell for cell in traced}
    sims = [sim for cell in traced for sim in cell.sims]
    extras = [cell.extras for cell in traced]

    def counter(name):
        return sum(sim.counters.get(name, 0) for sim in sims)

    def total(name):
        return sum(e.get(name, 0) for e in extras)

    def duration_us(key):
        cell = cells.get(key)
        return cell.sims[0].max_duration if cell and cell.sims else 0.0

    self_s, count = recorder.self_s, recorder.count
    events = sum(sim.events for sim in sims)
    post_sends = count("simulator.network.post_send")
    lockstep, fastforward = counter("phases_lockstep"), \
        counter("phases_fastforward")
    sweep = median_cells["spec10"].extras if "spec10" in median_cells else {}
    split = median_cells.get("fig5_intel_split")
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else [0, 0, 0]
    return {
        "host.passes": len(passes),
        "host.wall_raw_s": statistics.median(walls),
        "host.kernel_s": statistics.median(extra["kernels"]),
        "host.cpu_s": sum(cell.cpu_s for cell in median_pass),
        "host.wall_min_s": min(walls),
        "host.wall_iqr_s": quartiles[2] - quartiles[0],
        "host.trace_overhead_ratio": extra["traced_s"] / extra["wall_s"],
        "host.loadavg1": extra["loadavg1"],
        "host.unattributed_s": self_s("perfbench.pass", "perfbench.cell"),
        "sim.total_ms": sum(sim.total_time for sim in sims) / 1000.0,
        "sim.simulations": len(sims),
        "simulator.cluster.build_s":
            self_s("simulator.cluster.init", "simulator.cluster.run"),
        "simulator.engine.events": events,
        "simulator.engine.run_self_s": self_s("simulator.engine.run"),
        "simulator.engine.us_per_event":
            _ratio(self_s("simulator.engine.run") * 1e6, events),
        "simulator.network.messages": sum(sim.messages for sim in sims),
        "simulator.network.post_send_calls": post_sends,
        "simulator.network.post_send_s": self_s("simulator.network.post_send"),
        "simulator.network.match_s": self_s("simulator.network.match"),
        "simulator.network.mailboxes_materialized":
            counter("mailboxes_materialized"),
        "simulator.network.pool_hit_ratio":
            _ratio(counter("message_pool_hits"), post_sends),
        "messaging.test_s": self_s("messaging.test"),
        "collectives.scalar_requests": counter("scalar_collectives"),
        "collectives.machines.test_s": self_s("collectives.machines.test"),
        "collectives.ir.build_s":
            self_s("collectives.ir.build", "collectives.ir.schedule_for"),
        "collectives.ir.schedules_built": count("collectives.ir.schedule_for"),
        "core.spmd.join_s": self_s("core.spmd.join"),
        "core.spmd.join_calls": count("core.spmd.join"),
        "core.spmd.phases_lockstep": lockstep,
        "core.spmd.phases_fastforward": fastforward,
        "core.spmd.phases_batched": counter("phases_batched"),
        "core.spmd.refusals": counter("lockstep_refusals"),
        "core.spmd.ff_fallbacks": counter("fastforward_fallbacks"),
        "core.spmd.ff_ratio": _ratio(fastforward, lockstep + fastforward),
        "core.spmd.probe_refusal_rate": extra["probe_refusal_rate"],
        "core.rand.sample_s": self_s("core.rand.sample"),
        "core.rand.calls": count("core.rand.sample"),
        "sorting.kernels.partition_s": self_s("sorting.kernels.partition"),
        "sorting.kernels.calls": count("sorting.kernels.partition"),
        "sorting.kernels.elements":
            recorder.weight("sorting.kernels.partition"),
        "sorting.batched.level_s": self_s("sorting.batched.level"),
        "sorting.batched.levels": counter("phases_batched"),
        "sorting.assignment.greedy_s": self_s("sorting.assignment.greedy"),
        "sorting.jquick.levels_max":
            max((e.get("jq_levels_max", 0) for e in extras), default=0),
        "sorting.jquick.janus_episodes": total("jq_janus_episodes"),
        "sorting.jquick.comm_creations": total("jq_comm_creations"),
        "sorting.jquick.base_cases": total("jq_base_cases"),
        "sorting.rbc_speedup_sim":
            _ratio(duration_us("intel_n64"), duration_us("rbc_n64")),
        "rbc.split_sim_us": duration_us("fig5_rbc_split"),
        "mpi.create_group_sim_us": duration_us("fig5_intel_create_group"),
        "mpi.split_sim_us": duration_us("fig5_intel_split"),
        "rbc.split_speedup_sim": _ratio(duration_us("fig5_intel_split"),
                                        duration_us("fig5_rbc_split")),
        "mpi.split_host_s": split.wall_s if split else 0.0,
        "mpi.split_words": split.sims[0].words if split and split.sims else 0,
        "experiments.overhead_s":
            sweep.get("sweep_cold_s", 0.0) - sweep.get("sweep_scenario_s", 0.0),
        "experiments.warm_s": sweep.get("sweep_warm_s", 0.0),
        "experiments.cache_bytes": sweep.get("sweep_cache_bytes", 0),
        "obs.spans": sum(sim.trace_spans for sim in sims),
        "obs.edges": sum(sim.trace_edges for sim in sims),
        "obs.trace_bytes": sweep.get("sweep_trace_bytes", 0),
        "obs.critpath_s": sweep.get("sweep_critpath_s", 0.0),
        "obs.record_overhead_ratio":
            _ratio(sweep.get("sweep_cold_s", 0.0),
                   extra["untraced_cold_s"]),
    }


def _timed_passes(cells, inputs, collector, seconds, kernel_s):
    """Timed passes until ``seconds`` of pass time are spent.

    Every pass sits between two runs of the reference kernel, which say how
    fast the host was while it ran (``kernel_s`` is the run before the first
    pass).  Returns ``(passes, kernels)`` with ``len(kernels) == len(passes)
    + 1``.
    """
    passes, kernels, spent = [], [kernel_s], 0.0
    while len(passes) < MIN_PASSES or spent < seconds:
        gc.collect()
        passes.append(workloads.run_pass(cells, inputs, collector))
        kernels.append(reference.timed_kernel())
        spent += _pass_wall(passes[-1])
    return passes, kernels


def _traced_pass(cells, inputs, collector):
    """One pass under spans; returns ``(results, recorder, wall seconds)``."""
    recorder = spans.SpanRecorder()
    traced_cells = [dataclasses.replace(
        cell, run=recorder.wrap("perfbench.cell", cell.run),
        check=recorder.wrap("perfbench.check", cell.check))
        for cell in cells]
    uninstall = spans.install(recorder)
    try:
        gc.collect()
        start = time.perf_counter()
        traced = recorder.wrap("perfbench.pass", workloads.run_pass)(
            traced_cells, inputs, collector)
        wall_s = time.perf_counter() - start
    finally:
        uninstall()
    return traced, recorder, wall_s


def main(argv=None) -> int:
    # CLOCK_MONOTONIC is shared by all processes of one boot, so the driver's
    # reading just before it spawned us is a valid start of set-up (and
    # counts the imports at the top of this file).
    started = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    args = parser.parse_args(argv)
    loadavg1 = os.getloadavg()[0]

    workload = workloads.WORKLOADS[args.workload]
    collector = workloads.SimCollector()
    add_run_observer(collector)
    try:
        cells = workload.cells(1)
        inputs = workloads.make_inputs(cells, args.seed)
        small = workload.cells(workloads.WARMUP_SHRINK)
        pins = load_pins(args.workload, args.seed)
        warmup = workloads.run_pass(
            small, workloads.make_inputs(small, args.seed), collector)
        setup_raw_s = time.monotonic() - started
        kernels = [reference.timed_kernel(), reference.timed_kernel()]
        setup_s = reference.scale(setup_raw_s, *kernels)
        document = {"workload": args.workload, "seed": args.seed,
                    "mode": args.mode, "pinned": pins is not None,
                    "loadavg1": loadavg1, "setup_s": setup_s,
                    "setup_raw_s": setup_raw_s}
        if args.mode == "setup":
            attempted, failed, reasons = judge(warmup, [], None)
            document.update(attempted=attempted, failed=failed,
                            failures=reasons[:5])
            print(json.dumps(document))
            return 0

        passes, kernels = _timed_passes(cells, inputs, collector,
                                        args.seconds, kernels[-1])
        walls = [_pass_wall(cells_) for cells_ in passes]
        wall_s = statistics.median(
            reference.scale(wall, before, after)
            for wall, before, after in zip(walls, kernels, kernels[1:]))
        messages = sum(sim.messages for cell in passes[0] for sim in cell.sims)
        document.update(
            passes=walls, kernels=kernels,
            cells={cell.key: statistics.median(p[i].wall_s for p in passes)
                   for i, cell in enumerate(passes[0])},
            signatures={cell.key: cell.signatures() for cell in passes[0]},
        )

        judged = list(passes)
        if args.mode == "traced":
            traced, recorder, traced_wall_s = _traced_pass(cells, inputs,
                                                           collector)
            traced_s = reference.scale(_pass_wall(traced), kernels[-1],
                                       reference.timed_kernel())
            judged.append(traced)
            untraced_cold_s = 0.0
            if args.workload == "sweep_traced":
                untraced_cold_s = workloads.untraced_cold_sweep(inputs[0])
            document["per_layer"] = _per_layer(passes, traced, recorder, {
                "loadavg1": loadavg1,
                "kernels": kernels,
                "wall_s": wall_s,
                "traced_s": traced_s,
                "untraced_cold_s": untraced_cold_s,
                "probe_refusal_rate": _probe_refusal_rate(),
            })
            document["spans_self_s"] = recorder.total_self_s()
            document["traced_wall_s"] = traced_wall_s
            os.makedirs(workloads.OUT_DIR, exist_ok=True)
            recorder.write_jsonl(os.path.join(
                workloads.OUT_DIR, f"{args.workload}.spans.jsonl"))

        attempted, failed, reasons = judge(warmup, judged, pins)
        document.update(attempted=attempted, failed=failed,
                        failures=reasons[:5])
        document["end_to_end"] = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_msgs_per_s": messages / wall_s,
        }
        print(json.dumps(document))
        return 0
    finally:
        remove_run_observer(collector)


if __name__ == "__main__":
    sys.exit(main())
