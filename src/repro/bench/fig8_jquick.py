"""Figure 8: Janus Quicksort with RBC vs. native MPI communicators.

The paper runs JQuick on 2^15 cores with n/p from 2^0 to 2^20 and 64-bit
floating point elements, comparing the implementation on RBC communicators
(on top of IBM and Intel MPI point-to-point) against implementations that
create native MPI communicators on every level.  Reproduced observations:

* for n/p = 1 (no janus processes occur) JQuick with RBC already outperforms
  native MPI by a factor of 3.5 (Intel) to 16.9 (IBM);
* for moderate inputs (1 < n/p <= 2^10) the gap grows to multiple orders of
  magnitude (paper: > 1282x vs. IBM MPI);
* for large inputs the curves converge, because communicator construction is
  dominated by the actual sorting work.
"""

from __future__ import annotations

from typing import Optional

from ..mpi import init_mpi
from ..rbc import create_rbc_comm
from ..sorting import JQuickConfig, NativeMpiBackend, RbcBackend, jquick
from .harness import repeat_max_duration
from .tables import Table
from .workloads import generate

__all__ = ["PRESETS", "run", "jquick_program"]

PRESETS = {
    "tiny": dict(num_ranks=32, exponents=(0, 2, 4, 12), repetitions=1),
    "small": dict(num_ranks=256, exponents=(0, 2, 4, 6, 8, 10, 14), repetitions=1),
    "paper": dict(num_ranks=1024, exponents=(0, 2, 4, 6, 8, 10, 12, 14, 16), repetitions=2),
}

#: (label, backend, vendor) — the curves of Fig. 8 (RBC behaves identically on
#: top of either vendor's point-to-point layer in the simulator, so a single
#: RBC curve stands for "RBC (Intel p2p)" and "RBC (IBM p2p)").
CURVES = (
    ("RBC", "rbc", "generic"),
    ("Intel MPI", "mpi", "intel"),
    ("IBM MPI", "mpi", "ibm"),
)


def jquick_program(env, *, backend: str, vendor: str, local_data, config: JQuickConfig):
    """Rank program: run one JQuick sort; returns the measured µs."""
    world_mpi = init_mpi(env, vendor=vendor)
    if backend == "rbc":
        world_rbc = yield from create_rbc_comm(world_mpi)
        jq_backend = RbcBackend(world_rbc)
    elif backend == "mpi":
        jq_backend = NativeMpiBackend(world_mpi)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    start = env.now
    yield from jquick(env, jq_backend, local_data, config)
    return env.now - start


def run(scale: str = "small", *, num_ranks: Optional[int] = None,
        workload: str = "uniform", schedule: str = "alternating",
        repetitions: Optional[int] = None) -> Table:
    """Run the Fig. 8 sweep; one row per (curve, n/p)."""
    preset = dict(PRESETS[scale])
    if num_ranks is not None:
        preset["num_ranks"] = num_ranks
    if repetitions is not None:
        preset["repetitions"] = repetitions
    p = preset["num_ranks"]

    table = Table(
        title=f"Fig. 8 — JQuick on p={p} simulated cores ({workload} doubles, "
              f"{schedule} schedule)",
        columns=["curve", "n_per_proc", "time_ms"],
    )
    table.add_note("paper: p=2^15, n/p in 2^0..2^20")

    for label, backend, vendor in CURVES:
        for exponent in preset["exponents"]:
            n_per_proc = 2 ** exponent
            n = n_per_proc * p

            def make_program(rep, backend=backend, vendor=vendor, n=n):
                parts = generate(workload, n, p, seed=1000 + rep)
                config = JQuickConfig(schedule=schedule, seed=17 + rep)
                rank_kwargs = [dict(local_data=parts[rank]) for rank in range(p)]
                return (jquick_program, (), dict(
                    backend=backend, vendor=vendor, config=config,
                    rank_kwargs=rank_kwargs))

            measurement = repeat_max_duration(
                p, make_program, repetitions=preset["repetitions"])
            table.add_row(curve=label, n_per_proc=n_per_proc,
                          time_ms=measurement.mean_ms)
    return table
