"""Shared measurement machinery for the benchmark harness.

Timing convention (same as the paper's): every rank measures the virtual time
spent in the operation under test (after a synchronising barrier); the
reported running time of the operation is the *maximum* over the
participating ranks, averaged over repetitions with different seeds.  Times
are reported in milliseconds, like the paper's figures.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..mpi import init_mpi
from ..rbc import collectives as rbc_collectives
from ..rbc import create_rbc_comm
from ..simulator import Cluster, ClusterResult, CostModel, Placement
from ..simulator.cluster import add_run_observer
from .tables import results_dir

__all__ = [
    "US_PER_MS",
    "Measurement",
    "BenchTelemetry",
    "TELEMETRY",
    "write_bench_json",
    "run_rank_durations",
    "paired_medians",
    "collective_program",
    "COLLECTIVE_OPS",
]

US_PER_MS = 1000.0

#: Collective operations exercised by the microbenchmarks (Fig. 4 and Fig. 9).
COLLECTIVE_OPS = ("bcast", "reduce", "scan", "gather")


@dataclass
class Measurement:
    """Aggregated timing of one experimental configuration."""

    mean_ms: float
    min_ms: float
    max_ms: float
    repetitions: int
    messages: int = 0

    @staticmethod
    def from_samples(samples_us: Sequence[float], messages: int = 0) -> "Measurement":
        samples_ms = [s / US_PER_MS for s in samples_us]
        return Measurement(
            mean_ms=float(np.mean(samples_ms)),
            min_ms=float(np.min(samples_ms)),
            max_ms=float(np.max(samples_ms)),
            repetitions=len(samples_ms),
            messages=messages,
        )


@dataclass
class BenchTelemetry:
    """Machine-readable counters of the simulations a benchmark ran.

    The module-level :data:`TELEMETRY` instance is registered as a
    cluster-run observer (so every simulation counts, including benchmarks
    that construct :class:`~repro.simulator.Cluster` directly) and flushed
    to ``BENCH_<name>.json`` files by the benchmark suite's autouse fixture,
    so successive PRs have a perf trajectory to compare against: wall-clock
    seconds, total simulated microseconds and discrete events processed.
    """

    cluster_runs: int = 0
    simulated_us: float = 0.0
    events_processed: int = 0
    messages_sent: int = 0
    message_pool_hits: int = 0
    message_pool_recycled: int = 0
    message_pool_drops: int = 0
    #: Tier attribution: how many collective phases each execution tier
    #: priced (scalar state machines, lockstep analytic, analytic
    #: fast-forward, batched jquick levels), plus the honest-refusal and
    #: fallback counts — folded from every run's ``result.obs`` snapshot.
    scalar_collectives: int = 0
    phases_lockstep: int = 0
    phases_fastforward: int = 0
    phases_batched: int = 0
    lockstep_refusals: int = 0
    fastforward_fallbacks: int = 0

    _INT_FIELDS = ("cluster_runs", "events_processed", "messages_sent",
                   "message_pool_hits", "message_pool_recycled",
                   "message_pool_drops", "scalar_collectives",
                   "phases_lockstep", "phases_fastforward", "phases_batched",
                   "lockstep_refusals", "fastforward_fallbacks")

    def reset(self) -> None:
        self.simulated_us = 0.0
        for name in self._INT_FIELDS:
            setattr(self, name, 0)

    def record(self, result: ClusterResult) -> None:
        self.cluster_runs += 1
        self.simulated_us += result.total_time
        self.events_processed += result.events_processed
        self.messages_sent += result.stats.messages_sent
        pool = result.message_pool
        if pool:
            self.message_pool_hits += pool["message_pool_hits"]
            self.message_pool_recycled += pool["message_pool_recycled"]
            self.message_pool_drops += pool["message_pool_drops"]
        obs = result.obs
        if obs:
            self.scalar_collectives += obs.get("scalar_collectives", 0)
            self.phases_lockstep += obs.get("phases_lockstep", 0)
            self.phases_fastforward += obs.get("phases_fastforward", 0)
            self.phases_batched += obs.get("phases_batched", 0)
            self.lockstep_refusals += obs.get("lockstep_refusals", 0)
            self.fastforward_fallbacks += obs.get("fastforward_fallbacks", 0)

    def merge(self, snapshot: dict) -> None:
        """Fold another telemetry :meth:`snapshot` into this sink.

        The experiment runner executes scenarios in worker processes whose
        cluster runs this process's observer never sees; merging their
        snapshots keeps the ``BENCH_*.json`` trajectory complete for
        parallel sweeps.
        """
        self.simulated_us += float(snapshot.get("simulated_us", 0.0))
        for name in self._INT_FIELDS:
            setattr(self, name,
                    getattr(self, name) + int(snapshot.get(name, 0)))

    def snapshot(self) -> dict:
        payload = {"simulated_us": self.simulated_us}
        for name in self._INT_FIELDS:
            payload[name] = getattr(self, name)
        return payload


#: Global telemetry sink of the benchmark harness; observes every cluster run.
TELEMETRY = BenchTelemetry()
add_run_observer(TELEMETRY.record)


def write_bench_json(name: str, *, wall_clock_s: float,
                     telemetry: Optional[BenchTelemetry] = None,
                     extra: Optional[dict] = None,
                     directory: Optional[str] = None) -> str:
    """Write ``BENCH_<name>.json`` under the results directory; returns its path.

    The payload always contains wall-clock seconds, total simulated time and
    events processed (``extra`` merges additional keys), plus a schema marker
    so downstream tooling can evolve the format.  ``directory`` overrides the
    default results directory (the experiment CLI writes into its own output
    directory so sweep results never collide with the gated benchmark suite).
    """
    telemetry = telemetry if telemetry is not None else TELEMETRY
    payload = {
        "schema": "repro-bench-result/v1",
        "name": name,
        "wall_clock_s": wall_clock_s,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **telemetry.snapshot(),
    }
    if extra:
        payload.update(extra)
    path = os.path.join(directory if directory is not None else results_dir(),
                        f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    return path


def run_rank_durations(num_ranks: int, program: Callable, *args,
                       params: Optional[CostModel] = None,
                       placement: Optional[Placement] = None,
                       trace=None,
                       rank_kwargs=None, **kwargs) -> tuple[float, ClusterResult]:
    """Run ``program`` (which returns a per-rank duration in µs); return
    (max duration over ranks, full cluster result).

    ``trace=True`` records a structured :mod:`repro.obs` trace; the
    recorder is returned on ``result.trace``.
    """
    cluster = Cluster(num_ranks, params, placement=placement, trace=trace)
    result = cluster.run(program, *args, rank_kwargs=rank_kwargs, **kwargs)
    durations = [d for d in result.results if d is not None]
    return (max(durations) if durations else 0.0), result


def paired_medians(run_a: Callable, run_b: Callable,
                   pairs: int) -> tuple:
    """Interleaved A/B wall-clock measurement of two zero-argument runs.

    Runs ``run_a`` then ``run_b``, ``pairs`` times over, and returns
    ``(last result of A, last result of B, median seconds of A, median
    seconds of B)``.  Interleaving puts both sides under the same machine
    load and the median drops the hiccups, so the ratio of the two medians
    is a usable speedup on a shared machine where a best-of-N of two
    separately measured blocks is not (the ratio gates of
    ``benchmarks/bench_*_batched.py`` compare it against their thresholds).
    """
    walls_a, walls_b = [], []
    result_a = result_b = None
    for _ in range(pairs):
        started = time.perf_counter()
        result_a = run_a()
        walls_a.append(time.perf_counter() - started)
        started = time.perf_counter()
        result_b = run_b()
        walls_b.append(time.perf_counter() - started)
    return (result_a, result_b,
            float(np.median(walls_a)), float(np.median(walls_b)))


# ---------------------------------------------------------------------------
# Collective microbenchmark program (Fig. 4 and Fig. 9).
# ---------------------------------------------------------------------------

def collective_program(env, *, operation: str, impl: str, vendor: str,
                       words: int, repetitions: int = 1,
                       lockstep: Optional[bool] = None,
                       sync_each: bool = False):
    """Rank program measuring one (nonblocking) collective operation.

    ``impl`` is ``"rbc"`` (the RBC library on top of the simulated MPI
    point-to-point layer) or ``"mpi"`` (the vendor's native nonblocking
    collective).  Returns the measured duration in microseconds.

    ``sync_each`` inserts a barrier between repetitions (inside the timed
    region), keeping every collective phase barrier-separated — the paper's
    figures use back-to-back repetitions, so this is off by default and
    exists for engine benchmarks that need many in-contract phases per
    simulation.

    ``lockstep`` controls SPMD lockstep pricing (:mod:`repro.core.spmd`).
    The default (None) enables it for single-repetition and barrier-
    separated runs, which are inside the lockstep contract: phases whose
    member ports nothing else touches.  Unsynchronised repetition loops
    can overlap phases in time on a receive port (large payloads, tree
    collectives), which lockstep pricing rejects rather than price
    wrongly — so multi-repetition runs without ``sync_each`` default to
    the event-by-event schedules.  Pass ``True``/``False`` to force
    either path.
    """
    if operation not in COLLECTIVE_OPS:
        raise ValueError(f"unknown collective {operation!r}")
    env.lockstep_collectives = (repetitions == 1 or sync_each) \
        if lockstep is None else lockstep
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    rank = world_mpi.rank

    payload = np.zeros(words, dtype=np.float64) if words > 0 else np.zeros(0)
    root = 0

    # Synchronise all ranks before timing (neutral RBC barrier).
    yield from rbc_collectives.barrier(world_rbc)

    start = env.now
    for repetition in range(repetitions):
        if sync_each and repetition:
            yield from rbc_collectives.barrier(world_rbc)
        if impl == "rbc":
            if operation == "bcast":
                request = rbc_collectives.ibcast(
                    world_rbc, payload if rank == root else None, root)
            elif operation == "reduce":
                request = rbc_collectives.ireduce(world_rbc, payload, root=root)
            elif operation == "scan":
                request = rbc_collectives.iscan(world_rbc, payload)
            else:  # gather
                request = rbc_collectives.igather(world_rbc, payload, root=root)
        elif impl == "mpi":
            if operation == "bcast":
                request = world_mpi.ibcast(payload if rank == root else None, root)
            elif operation == "reduce":
                request = world_mpi.ireduce(payload, root=root)
            elif operation == "scan":
                request = world_mpi.iscan(payload)
            else:  # gather
                request = world_mpi.igather(payload, root=root)
        else:
            raise ValueError(f"unknown implementation {impl!r}")
        yield from env.wait_until(request.test)
    return env.now - start
