"""Rank programs of the benchmark, written against the paper-level API only.

Each program is a generator taking the rank's ``env`` (the convention of
:class:`repro.simulator.Cluster`) and returns a tuple whose first element is
the simulated duration (microseconds) this rank measured around the
operation under test; the rest is what the workload needs to check the
output.  No program sets a tier switch (``env.lockstep_collectives``,
``batch_levels``, ...): whatever the library picks by default is what runs.
"""

from __future__ import annotations

import numpy as np

from repro.mpi import MpiGroup, init_mpi
from repro.rbc import collectives as rbc_collectives
from repro.rbc import create_rbc_comm, split_rbc_comm
from repro.sorting import NativeMpiBackend, RbcBackend, jquick

__all__ = ["sort_program", "collective_loop_program", "split_halves_program",
           "overlapping_program", "overlapping_groups", "range_bcast_program"]


def sort_program(env, *, backend, vendor, local_data, config):
    """One Janus Quicksort; returns ``(us, sorted local array, JQuickStats)``."""
    world_mpi = init_mpi(env, vendor=vendor)
    if backend == "rbc":
        world_rbc = yield from create_rbc_comm(world_mpi)
        jq_backend = RbcBackend(world_rbc)
    else:
        jq_backend = NativeMpiBackend(world_mpi)
    start = env.now
    output, stats = yield from jquick(env, jq_backend, local_data, config)
    return env.now - start, output, stats


def collective_loop_program(env, *, operation, impl, vendor, payload,
                            repetitions):
    """``repetitions`` back-to-back nonblocking collectives (Fig. 4 / Fig. 9).

    Lockstep pricing is never enabled, so every message crosses the
    transport and every request is a scalar state machine.  Returns
    ``(us, result of the last repetition)``.
    """
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    rank = world_mpi.rank
    root = 0
    yield from rbc_collectives.barrier(world_rbc)
    start = env.now
    result = None
    for _ in range(repetitions):
        if impl == "rbc":
            if operation == "bcast":
                request = rbc_collectives.ibcast(
                    world_rbc, payload if rank == root else None, root)
            elif operation == "reduce":
                request = rbc_collectives.ireduce(world_rbc, payload, root=root)
            elif operation == "scan":
                request = rbc_collectives.iscan(world_rbc, payload)
            else:
                request = rbc_collectives.igather(world_rbc, payload, root=root)
        else:
            if operation == "bcast":
                request = world_mpi.ibcast(payload if rank == root else None, root)
            elif operation == "reduce":
                request = world_mpi.ireduce(payload, root=root)
            elif operation == "scan":
                request = world_mpi.iscan(payload)
            else:
                request = world_mpi.igather(payload, root=root)
        yield from env.wait_until(request.test)
        result = request.result()
    return env.now - start, result


def split_halves_program(env, *, method, vendor):
    """Fig. 5: create the communicator of this rank's half of the world.

    Returns ``(us, size, rank)`` of the created communicator.
    """
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    size, rank = world_mpi.size, world_mpi.rank
    half = size // 2
    first, last = (0, half - 1) if rank < half else (half, size - 1)
    yield from rbc_collectives.barrier(world_rbc)
    start = env.now
    if method == "rbc":
        sub = yield from split_rbc_comm(world_rbc, first, last)
    elif method == "create_group":
        group = MpiGroup.range_incl([(world_mpi.to_world(first),
                                      world_mpi.to_world(last), 1)])
        sub = yield from world_mpi.create_group(group, tag=1)
    else:
        sub = yield from world_mpi.split(color=0 if rank < half else 1, key=rank)
    return env.now - start, sub.size, sub.rank


GROUP_SIZE = 4
GROUP_STRIDE = 3


def overlapping_groups(size):
    """The overlapping size-4 ranges 0..3, 3..6, 6..9, ... of Fig. 6."""
    groups = []
    start = 0
    while start < size - 1:
        groups.append((start, min(start + GROUP_SIZE - 1, size - 1)))
        start += GROUP_STRIDE
    return groups


def overlapping_program(env, *, method, vendor, schedule):
    """Fig. 6: create every overlapping communicator this rank belongs to.

    Returns ``(us, [(first, last, size, rank), ...])`` in creation order.
    """
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    size, rank = world_mpi.size, world_mpi.rank
    mine = [(index, first, last)
            for index, (first, last) in enumerate(overlapping_groups(size))
            if first <= rank <= last]
    if len(mine) == 2 and schedule == "alternating" \
            and (rank // GROUP_STRIDE) % 2:
        mine.reverse()
    yield from rbc_collectives.barrier(world_rbc)
    start = env.now
    created = []
    for index, first, last in mine:
        if method == "rbc":
            sub = yield from split_rbc_comm(world_rbc, first, last)
        else:
            group = MpiGroup.range_incl([(world_mpi.to_world(first),
                                          world_mpi.to_world(last), 1)])
            sub = yield from world_mpi.create_group(group, tag=index)
        created.append((first, last, sub.size, sub.rank))
    return env.now - start, created


def range_bcast_program(env, *, method, vendor, payload, num_bcasts):
    """Fig. 7: create the lower-half communicator, then broadcast on it.

    Returns ``(us, last received payload)``; ranks of the upper half take no
    part and return ``(None, None)``.
    """
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    half = world_mpi.size // 2
    yield from rbc_collectives.barrier(world_rbc)
    start = env.now
    if world_mpi.rank >= half:
        return None, None
    received = None
    if method == "rbc":
        sub = yield from split_rbc_comm(world_rbc, 0, half - 1)
        for _ in range(num_bcasts):
            request = rbc_collectives.ibcast(
                sub, payload if sub.rank == 0 else None, 0)
            yield from env.wait_until(request.test)
            received = request.result()
    else:
        group = MpiGroup.range_incl([(world_mpi.to_world(0),
                                      world_mpi.to_world(half - 1), 1)])
        sub = yield from world_mpi.create_group(group, tag=5)
        for _ in range(num_bcasts):
            request = sub.ibcast(payload if sub.rank == 0 else None, 0)
            yield from env.wait_until(request.test)
            received = request.result()
    return env.now - start, np.asarray(received)
