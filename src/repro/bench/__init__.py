"""Benchmark library: what a measurement of the paper's evaluation is made of.

* :mod:`~repro.bench.harness` — the timing convention (max over ranks of the
  per-rank virtual duration), the collective microbenchmark program of
  Fig. 4 / Fig. 9 and the ``BENCH_*.json`` telemetry sink;
* :mod:`~repro.bench.programs` — the rank programs of Fig. 5-8;
* :mod:`~repro.bench.workloads` — input generators of the sorting runs;
* :mod:`~repro.bench.tables` — result tables.

The figures themselves are experiment specs
(:mod:`repro.experiments.figures`) executed by :mod:`repro.experiments`, which
builds on this package — nothing here imports it.  Two studies report per-run
statistics other than a duration and drive ``run_rank_durations`` themselves:
:mod:`repro.bench.ablations` (design decisions discussed in the text) and
:mod:`repro.bench.hier_collectives` (flat vs. node-leader schedules).
"""

from .harness import (
    COLLECTIVE_OPS,
    TELEMETRY,
    BenchTelemetry,
    Measurement,
    collective_program,
    run_rank_durations,
    write_bench_json,
)
from .tables import Table, results_dir
from .workloads import WORKLOADS, generate, split_balanced, workload_names

__all__ = [
    "COLLECTIVE_OPS",
    "BenchTelemetry",
    "Measurement",
    "TELEMETRY",
    "Table",
    "WORKLOADS",
    "collective_program",
    "generate",
    "results_dir",
    "run_rank_durations",
    "split_balanced",
    "workload_names",
    "write_bench_json",
]
