"""Rank programs of the paper's figures (Fig. 5-8).

Each program is a generator taking ``env`` that returns this rank's measured
duration in microseconds (``None`` for a rank that does not take part); the
experiment runner executes them as the ``comm_create`` and ``jquick``
scenario kinds, and tests, examples and benchmarks import them from here.
The collective microbenchmark of Fig. 4 / Fig. 9 lives in
:mod:`repro.bench.harness` (``collective_program``).
"""

from __future__ import annotations

import numpy as np

from ..mpi import MpiGroup, init_mpi
from ..rbc import collectives as rbc_collectives
from ..rbc import create_rbc_comm, split_rbc_comm
from ..sorting import JQuickConfig, NativeMpiBackend, RbcBackend, jquick

__all__ = ["split_halves_program", "overlapping_groups",
           "overlapping_program", "range_bcast_program", "jquick_program"]


# ---------------------------------------------------------------------------
# Fig. 5: splitting a communicator into halves.
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Fig. 6: overlapping communicators of size 4.
# ---------------------------------------------------------------------------

GROUP_SIZE = 4
GROUP_STRIDE = 3


def overlapping_groups(size: int) -> list[tuple[int, int]]:
    """The overlapping size-4 ranges 0..3, 3..6, 6..9, ... of Fig. 6."""
    groups = []
    start = 0
    while start < size - 1:
        groups.append((start, min(start + GROUP_SIZE - 1, size - 1)))
        start += GROUP_STRIDE
    return groups


def overlapping_program(env, *, method: str, vendor: str, schedule: str):
    """Rank program: create every overlapping communicator this rank is in."""
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    size = world_mpi.size
    rank = world_mpi.rank

    groups = overlapping_groups(size)
    mine = [(index, first, last) for index, (first, last) in enumerate(groups)
            if first <= rank <= last]

    if len(mine) == 2:
        # This rank sits on a boundary and creates two communicators.  The
        # schedule decides the order: cascaded = always the left one first;
        # alternating = every other boundary process starts with the left one.
        left_first = True
        if schedule == "alternating":
            boundary_index = rank // GROUP_STRIDE
            left_first = boundary_index % 2 == 0
        if not left_first:
            mine = list(reversed(mine))

    yield from rbc_collectives.barrier(world_rbc)
    start = env.now

    for index, first, last in mine:
        if method == "rbc":
            yield from split_rbc_comm(world_rbc, first, last)
        elif method == "create_group":
            group = MpiGroup.range_incl([(world_mpi.to_world(first),
                                          world_mpi.to_world(last), 1)])
            yield from world_mpi.create_group(group, tag=index)
        else:
            raise ValueError(f"unknown method {method!r}")
    return env.now - start


# ---------------------------------------------------------------------------
# Fig. 7: broadcast on a sub-range of processes.
# ---------------------------------------------------------------------------

def range_bcast_program(env, *, method: str, vendor: str, words: int,
                        num_bcasts: int):
    """Rank program: create the half-range communicator, broadcast ``num_bcasts``
    times; returns the measured µs (None for ranks that do not take part)."""
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    size = world_mpi.size
    rank = world_mpi.rank
    half = size // 2
    in_range = rank < half
    payload = np.zeros(words, dtype=np.float64)

    yield from rbc_collectives.barrier(world_rbc)
    start = env.now

    if method == "rbc":
        if not in_range:
            return None
        sub = yield from split_rbc_comm(world_rbc, 0, half - 1)
        for _ in range(num_bcasts):
            request = rbc_collectives.ibcast(
                sub, payload if sub.rank == 0 else None, 0)
            yield from env.wait_until(request.test)
        return env.now - start

    if method == "create_group":
        if not in_range:
            return None
        group = MpiGroup.range_incl([(world_mpi.to_world(0),
                                      world_mpi.to_world(half - 1), 1)])
        sub = yield from world_mpi.create_group(group, tag=5)
    elif method == "split":
        # MPI_Comm_split must be called by every process of the parent.
        sub = yield from world_mpi.split(color=0 if in_range else 1, key=rank)
        if not in_range:
            return env.now - start
    else:
        raise ValueError(f"unknown method {method!r}")

    for _ in range(num_bcasts):
        request = sub.ibcast(payload if sub.rank == 0 else None, 0)
        yield from env.wait_until(request.test)
    return env.now - start


# ---------------------------------------------------------------------------
# Fig. 8: Janus Quicksort on RBC or native MPI communicators.
# ---------------------------------------------------------------------------

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
