"""The six workloads: fixed sizes, seeded inputs, timed cells, output checks.

A workload is a list of *cells*; one *pass* runs every cell once.  A cell's
``run`` is on the clock (cluster construction, the simulation, reading the
results); its ``check`` is off the clock and raises ``AssertionError`` on a
wrong output.  Sizes are constants of this file and never differ between
commits; ``shrink=8`` gives the warm-up shape (every rank count divided by
eight), which the set-up runs once with all checks.

Every simulation of a pass is seen by :class:`SimCollector`, a cluster-run
observer, so simulations started inside ``repro.experiments`` are counted
and pinned exactly like the ones started here.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from repro import experiments, obs
from repro.simulator import Cluster
from repro.sorting import JQuickConfig, capacity, verify_sort

from . import programs

__all__ = ["WORKLOADS", "WARMUP_SHRINK", "OUT_DIR", "Cell", "CellResult",
           "Sim", "SimCollector", "make_inputs", "run_pass"]

#: The warm-up pass divides every rank count by this.
WARMUP_SHRINK = 8

#: Everything the benchmark writes (span files, sweep caches) goes here.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


# ---------------------------------------------------------------------------
# Observing simulations.
# ---------------------------------------------------------------------------

class Sim(NamedTuple):
    """What the benchmark keeps of one finished simulation."""

    total_time: float      # simulated us when the last rank finished
    max_duration: float    # max over ranks of the program's own measurement
    messages: int
    words: int
    events: int
    counters: dict         # ClusterResult.obs
    trace_spans: int       # repro.obs recorder sizes (0 when not traced)
    trace_edges: int

    def signature(self) -> list:
        """The pinned observables (times as ``float.hex``: exact)."""
        return [self.total_time.hex(), self.max_duration.hex(), self.messages]


class SimCollector:
    """Cluster-run observer turning every ``ClusterResult`` into a :class:`Sim`."""

    def __init__(self):
        self.sims: list[Sim] = []

    def __call__(self, result) -> None:
        durations = [r[0] if isinstance(r, tuple) else r
                     for r in result.results]
        durations = [d for d in durations if d is not None]
        trace = result.trace
        self.sims.append(Sim(
            total_time=float(result.total_time),
            max_duration=float(max(durations)) if durations else 0.0,
            messages=result.stats.messages_sent,
            words=result.stats.words_sent,
            events=result.events_processed,
            counters=dict(result.obs or {}),
            trace_spans=0 if trace is None else len(trace.spans),
            trace_edges=0 if trace is None else len(trace.edges),
        ))

    def drain(self) -> list[Sim]:
        sims, self.sims = self.sims, []
        return sims


# ---------------------------------------------------------------------------
# Cells.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One timed unit of a pass.

    ``make_input(rng, seed)`` builds the cell's input from the workload seed;
    ``run(data)`` is timed; ``check(data, raw)`` verifies the output off the
    clock and may return a dict of exact counts for the per-layer metrics.
    ``sims`` is how many simulations one execution attempts.
    """

    key: str
    sims: int
    make_input: Callable[[np.random.Generator, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]


@dataclass
class CellResult:
    key: str
    attempted: int
    wall_s: float
    cpu_s: float
    sims: list
    extras: dict = field(default_factory=dict)
    failure: str | None = None

    def signatures(self) -> list:
        return [sim.signature() for sim in self.sims]


def _split_balanced(values: np.ndarray, p: int) -> list:
    parts, offset = [], 0
    for rank in range(p):
        count = capacity(rank, values.size, p)
        parts.append(values[offset:offset + count].copy())
        offset += count
    return parts


def _distribution(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return rng.random(n)
    if kind == "sorted":
        return np.sort(rng.random(n))
    if kind == "duplicates":  # ~sqrt(n) distinct keys: stresses tie-breaking
        return rng.integers(0, max(2, math.isqrt(n)), size=n).astype(np.float64)
    raise ValueError(f"unknown distribution {kind!r}")


def _sort_cell(key, p, n_per_proc, kind, backend, vendor) -> Cell:
    def make_input(rng, seed):
        parts = _split_balanced(_distribution(kind, p * n_per_proc, rng), p)
        return parts, JQuickConfig(seed=seed + 17)

    def run(data):
        parts, config = data
        return Cluster(p).run(
            programs.sort_program, backend=backend, vendor=vendor,
            config=config,
            rank_kwargs=[dict(local_data=part) for part in parts])

    def check(data, result):
        verify_sort(data[0], [r[1] for r in result.results])
        stats = [r[2] for r in result.results]
        return {
            "jq_levels_max": max(s.levels for s in stats),
            "jq_janus_episodes": sum(s.janus_episodes for s in stats),
            "jq_comm_creations": sum(s.comm_creations for s in stats),
            "jq_base_cases": sum(s.base_cases_one + s.base_cases_two
                                 for s in stats),
        }

    return Cell(key, 1, make_input, run, check)


def _scenario_cell(key, **fields) -> Cell:
    """One ``repro.experiments`` scenario, executed with library defaults."""
    def make_input(rng, seed):
        return experiments.Scenario(seed=seed, **fields)

    def check(scenario, result):
        assert result.ok, result.error.strip().splitlines()[-1]
        return {}

    return Cell(key, fields.get("repetitions", 1), make_input,
                experiments.execute_scenario, check)


def _loop_cell(key, operation, impl, vendor, p, words, repetitions) -> Cell:
    def make_input(rng, seed):
        # Integer-valued doubles: sums are exact in any association order,
        # so the numpy answer is the answer bit for bit.
        return rng.integers(0, 1000, size=(p, words)).astype(np.float64)

    def run(matrix):
        return Cluster(p).run(
            programs.collective_loop_program, operation=operation, impl=impl,
            vendor=vendor, repetitions=repetitions,
            rank_kwargs=[dict(payload=matrix[rank]) for rank in range(p)])

    def check(matrix, result):
        got = [r[1] for r in result.results]
        if operation == "scan":
            assert np.array_equal(np.stack(got), np.cumsum(matrix, axis=0)), \
                "scan result differs from numpy.cumsum"
        elif operation == "bcast":
            assert all(np.array_equal(g, matrix[0]) for g in got), \
                "bcast result differs from the root's payload"
        elif operation == "reduce":
            assert np.array_equal(got[0], matrix.sum(axis=0)), \
                "reduce result differs from numpy.sum"
        else:
            assert np.array_equal(np.stack(got[0]), matrix), \
                "gather result differs from the stacked payloads"
        return {}

    return Cell(key, 1, make_input, run, check)


def _no_input(rng, seed):
    return None


def _split_cell(key, method, vendor, p) -> Cell:
    def run(_):
        return Cluster(p).run(programs.split_halves_program, method=method,
                              vendor=vendor)

    def check(_, result):
        half = p // 2
        for rank, (_us, size, sub_rank) in enumerate(result.results):
            want = (half, rank) if rank < half else (p - half, rank - half)
            assert (size, sub_rank) == want, \
                f"rank {rank}: communicator {(size, sub_rank)}, want {want}"
        return {}

    return Cell(key, 1, _no_input, run, check)


def _overlap_cell(key, method, vendor, schedule, p) -> Cell:
    def run(_):
        return Cluster(p).run(programs.overlapping_program, method=method,
                              vendor=vendor, schedule=schedule)

    def check(_, result):
        groups = programs.overlapping_groups(p)
        for rank, (_us, created) in enumerate(result.results):
            want = sorted((first, last, last - first + 1, rank - first)
                          for first, last in groups if first <= rank <= last)
            assert sorted(created) == want, \
                f"rank {rank}: communicators {created}, want {want}"
        return {}

    return Cell(key, 1, _no_input, run, check)


def _range_bcast_cell(key, method, vendor, p, words, num_bcasts) -> Cell:
    def make_input(rng, seed):
        return rng.integers(0, 1000, size=words).astype(np.float64)

    def run(payload):
        return Cluster(p).run(programs.range_bcast_program, method=method,
                              vendor=vendor, payload=payload,
                              num_bcasts=num_bcasts)

    def check(payload, result):
        for rank, (us, received) in enumerate(result.results):
            if rank < p // 2:
                assert np.array_equal(received, payload), \
                    f"rank {rank}: broadcast payload differs"
            else:
                assert us is None, f"rank {rank} is outside the range"
        return {}

    return Cell(key, 1, make_input, run, check)


def _sweep_spec(p, seed):
    """``spec10``: 8 collective scenarios x 2 repetitions + 2 jquick sorts."""
    return experiments.ExperimentSpec(name="perfbench_spec10", grids=[
        experiments.Grid(
            fixed=dict(kind="collective", num_ranks=p, words=64, repetitions=2),
            axes={"machine": ["flat", "shared_nic"],
                  "operation": ["scan", "bcast"],
                  "impl": [dict(impl="rbc", vendor="generic"),
                           dict(impl="mpi", vendor="intel")]}),
        experiments.Grid(
            fixed=dict(kind="jquick", num_ranks=p, impl="rbc",
                       vendor="generic", seed=seed),
            axes={"n_per_proc": [1, 16]}),
    ])


@contextmanager
def _scratch_cache():
    """An empty cache directory under ``OUT_DIR``, removed afterwards."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
    try:
        yield cache_dir
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _cold_sweep(spec, cache_dir, *, trace):
    """``run_spec`` into an empty cache; returns ``(run, cache, seconds)``."""
    cache = experiments.ResultCache(cache_dir)
    start = time.perf_counter()
    run = experiments.run_spec(spec, workers=1, cache=cache, trace=trace)
    return run, cache, time.perf_counter() - start


def untraced_cold_sweep(spec) -> float:
    """Seconds of one cold ``run_spec`` with ``trace=False`` (for the
    recording-overhead ratio of the traced run)."""
    with _scratch_cache() as cache_dir:
        return _cold_sweep(spec, cache_dir, trace=False)[2]


def _tree_bytes(root, suffix=""):
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(root)
               for name in names if name.endswith(suffix))


def _sweep_cell(key, p) -> Cell:
    def make_input(rng, seed):
        return _sweep_spec(p, seed)

    def run(spec):
        with _scratch_cache() as cache_dir:
            cold, cache, cold_s = _cold_sweep(spec, cache_dir, trace=True)
            start = time.perf_counter()
            warm = experiments.run_spec(spec, workers=1, cache=cache,
                                        trace=True)
            warm_s = time.perf_counter() - start
            start = time.perf_counter()
            paths = []
            for result in cold.results:
                trace = obs.load_jsonl(cache.trace_path_for(result.scenario))
                paths.append((obs.critical_path(trace), trace.total_time))
            critpath_s = time.perf_counter() - start
            sizes = (_tree_bytes(cache_dir), _tree_bytes(cache_dir, ".jsonl"))
        return cold, warm, paths, (cold_s, warm_s, critpath_s), sizes

    def check(spec, raw):
        cold, warm, paths, (cold_s, warm_s, critpath_s), sizes = raw
        for result in cold.results:
            assert result.ok, result.error.strip().splitlines()[-1]
        assert warm.cached == len(warm.results), \
            f"warm sweep served {warm.cached}/{len(warm.results)} from cache"
        for report, total in paths:
            assert report.complete and report.total == total, \
                f"critical path {report.total!r} != simulated total {total!r}"
        return {
            "sweep_cold_s": cold_s,
            "sweep_warm_s": warm_s,
            "sweep_critpath_s": critpath_s,
            "sweep_scenario_s": sum(r.wall_clock_s for r in cold.results),
            "sweep_cache_bytes": sizes[0],
            "sweep_trace_bytes": sizes[1],
        }

    return Cell(key, 8 * 2 + 2, make_input, run, check)


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    why: str
    cells: Callable[[int], list]   # shrink -> cells


def _sort_batched(s):
    return [_sort_cell("rbc_n1", 1024 // s, 1, "uniform", "rbc", "generic")]


def _sort_janus(s):
    return [
        _sort_cell("rbc_n64_wide", 256 // s, 64, "uniform", "rbc", "generic"),
        _sort_cell("rbc_n1024", 128 // s, 1024, "uniform", "rbc", "generic"),
        _sort_cell("rbc_n64", 128 // s, 64, "uniform", "rbc", "generic"),
        _sort_cell("rbc_n64_duplicates", 128 // s, 64, "duplicates", "rbc",
                   "generic"),
        _sort_cell("rbc_n64_sorted", 128 // s, 64, "sorted", "rbc", "generic"),
        _sort_cell("intel_n64", 128 // s, 64, "uniform", "mpi", "intel"),
    ]


def _coll_paper(s):
    common = dict(kind="collective", num_ranks=4096 // s, words=16,
                  impl="rbc", vendor="intel", repetitions=1)
    return [
        _scenario_cell("flat_scan", machine="flat", operation="scan", **common),
        _scenario_cell("flat_gather", machine="flat", operation="gather",
                       **common),
        _scenario_cell("two_tier_scan", machine="two_tier", operation="scan",
                       **common),
    ]


def _coll_events(s):
    return [
        _loop_cell("rbc_iscan", "scan", "rbc", "generic", 1024 // s, 16, 4),
        _loop_cell("intel_iscan", "scan", "mpi", "intel", 512 // s, 64, 4),
        _loop_cell("rbc_ibcast", "bcast", "rbc", "generic", 1024 // s, 1024, 10),
        _loop_cell("ibm_ireduce", "reduce", "mpi", "ibm", 1024 // s, 4096, 4),
        _loop_cell("rbc_igather", "gather", "rbc", "generic", 1024 // s, 16, 5),
    ]


def _comm_create(s):
    fig5, fig6, fig7 = 1024 // s, 512 // s, 512 // s
    return [
        _split_cell("fig5_rbc_split", "rbc", "generic", fig5),
        _split_cell("fig5_intel_create_group", "create_group", "intel", fig5),
        _split_cell("fig5_intel_split", "split", "intel", fig5),
        _overlap_cell("fig6_rbc_cascaded", "rbc", "generic", "cascaded", fig6),
        _overlap_cell("fig6_intel_cascaded", "create_group", "intel",
                      "cascaded", fig6),
        _overlap_cell("fig6_intel_alternating", "create_group", "intel",
                      "alternating", fig6),
        _range_bcast_cell("fig7_rbc", "rbc", "generic", fig7, 16, 4),
        _range_bcast_cell("fig7_intel_create_group", "create_group", "intel",
                          fig7, 16, 4),
    ]


def _sweep_traced(s):
    return [_sweep_cell("spec10", 256 // s)]


WORKLOADS = {
    "sort_batched": Workload(
        "n==p Janus Quicksort on the cross-rank batched tier (core.spmd + "
        "sorting.batched); transport only for base cases", _sort_batched),
    "sort_janus": Workload(
        "n>p sorts: janus ranks, scalar frontier, per-level communicator "
        "creation, p2p exchange; the batched tier declines here", _sort_janus),
    "coll_paper": Workload(
        "one-shot collectives at p=4096 via repro.experiments: lockstep, "
        "fast-forward and IR replay price them; ~5 events/rank, no mailboxes",
        _coll_paper),
    "coll_events": Workload(
        "back-to-back collectives priced event by event (transport, state "
        "machines, event core); bypasses core.spmd entirely", _coll_events),
    "comm_create": Workload(
        "Fig. 5-7 communicator creation, RBC vs Intel MPI; host cost and RSS "
        "follow the O(p^2) payloads of MPI_Comm_split", _comm_create),
    "sweep_traced": Workload(
        "run_spec with trace=True cold then warm, then critical path of all "
        "10 artifacts; the only workload where experiments and obs do work",
        _sweep_traced),
}


# ---------------------------------------------------------------------------
# Running a pass.
# ---------------------------------------------------------------------------

def make_inputs(cells, seed: int) -> list:
    """Every cell's input, generated here from the workload seed.

    Each cell draws from its own ``default_rng(seed)``, so cells of equal
    shape and distribution (the RBC / Intel-MPI pair of ``sort_janus``) sort
    the same keys.
    """
    return [cell.make_input(np.random.default_rng(seed), seed)
            for cell in cells]


def _run_cell(cell: Cell, data, collector: SimCollector) -> CellResult:
    collector.drain()
    failure, extras, raw = None, {}, None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        raw = cell.run(data)
    except Exception as exc:  # a refused or failed simulation is a result
        failure = f"{type(exc).__name__}: {exc}"[:300]
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    sims = collector.drain()
    if failure is None:
        try:
            extras = cell.check(data, raw) or {}
            if len(sims) != cell.sims:
                failure = f"{len(sims)} simulations ran, {cell.sims} expected"
        except AssertionError as exc:
            failure = f"output check: {exc}"[:300]
    return CellResult(cell.key, cell.sims, wall, cpu, sims, extras, failure)


def run_pass(cells, inputs, collector: SimCollector) -> list[CellResult]:
    """Run every cell once; a pass's wall time is the sum of its cells'."""
    return [_run_cell(cell, data, collector)
            for cell, data in zip(cells, inputs)]
