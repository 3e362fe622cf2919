"""Figure 5: splitting a communicator into halves — native MPI vs. RBC.

The paper splits a communicator of p processes into processes 0..p/2-1 and
p/2..p-1 using ``MPI_Comm_create_group`` and ``MPI_Comm_split`` (Intel MPI and
IBM MPI) and compares against ``rbc::Split_RBC_Comm``, for p from 2^10 to
2^15.  Observed behaviour to reproduce:

* the RBC split is constant and negligible (the paper's headline claim of a
  >400x reduction in communicator-creation time);
* Intel's ``MPI_Comm_create_group`` grows linearly with p (explicit group
  representation);
* ``MPI_Comm_split`` is about a factor two slower than Intel's create_group
  for large p (it must allgather colors/keys over the whole parent);
* IBM's ``MPI_Comm_create_group`` is slower by multiple orders of magnitude.
"""

from __future__ import annotations

from typing import Optional

from ..mpi import MpiGroup, init_mpi
from ..rbc import collectives as rbc_collectives
from ..rbc import create_rbc_comm, split_rbc_comm
from .harness import repeat_max_duration
from .tables import Table

__all__ = ["PRESETS", "run", "split_halves_program"]

PRESETS = {
    "tiny": dict(proc_counts=(32, 64, 128), repetitions=1),
    "small": dict(proc_counts=(256, 512, 1024, 2048, 4096), repetitions=1),
    "paper": dict(proc_counts=(1024, 2048, 4096, 8192, 16384, 32768),
                  repetitions=3),
}

#: (label, method, vendor) — one per curve of Fig. 5.
CURVES = (
    ("RBC - Comm create group", "rbc", "generic"),
    ("Intel - MPI Comm create group", "create_group", "intel"),
    ("Intel - MPI Comm split", "split", "intel"),
    ("IBM - MPI Comm create group", "create_group", "ibm"),
    ("IBM - MPI Comm split", "split", "ibm"),
)


def split_halves_program(env, *, method: str, vendor: str):
    """Rank program: create the communicator of this rank's half; return µs."""
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    size = world_mpi.size
    rank = world_mpi.rank
    half = size // 2
    first, last = (0, half - 1) if rank < half else (half, size - 1)

    yield from rbc_collectives.barrier(world_rbc)
    start = env.now

    if method == "rbc":
        yield from split_rbc_comm(world_rbc, first, last)
    elif method == "create_group":
        group = MpiGroup.range_incl([(world_mpi.to_world(first),
                                      world_mpi.to_world(last), 1)])
        yield from world_mpi.create_group(group, tag=1)
    elif method == "split":
        yield from world_mpi.split(color=0 if rank < half else 1, key=rank)
    else:
        raise ValueError(f"unknown method {method!r}")
    return env.now - start


def run(scale: str = "small", *, proc_counts=None,
        repetitions: Optional[int] = None) -> Table:
    """Run the Fig. 5 sweep; one row per (curve, p)."""
    preset = dict(PRESETS[scale])
    if proc_counts is not None:
        preset["proc_counts"] = tuple(proc_counts)
    if repetitions is not None:
        preset["repetitions"] = repetitions

    table = Table(
        title="Fig. 5 — splitting a communicator of p processes into halves",
        columns=["curve", "p", "time_ms"],
    )
    table.add_note("paper sweeps p in 2^10..2^15 on SuperMUC")

    for label, method, vendor in CURVES:
        for p in preset["proc_counts"]:
            measurement = repeat_max_duration(
                p,
                lambda rep: (split_halves_program, (), dict(
                    method=method, vendor=vendor)),
                repetitions=preset["repetitions"],
            )
            table.add_row(curve=label, p=p, time_ms=measurement.mean_ms)
    return table
