"""RBC collective operations on ranges, tags and overlap semantics."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, SUM, init_mpi
from repro.rbc import collectives as coll
from repro.rbc import create_rbc_comm, wait_all
from repro.simulator import Cluster


def _world(env):
    world_mpi = init_mpi(env)
    world = yield from create_rbc_comm(world_mpi)
    return world


SIZES = [1, 2, 3, 5, 8, 13]


@pytest.mark.parametrize("p", SIZES)
def test_blocking_collectives_on_full_range(run_ranks, p):
    def program(env):
        world = yield from _world(env)
        root = p // 2
        value = yield from coll.bcast(world, world.rank if world.rank == root else None, root)
        total = yield from coll.reduce(world, world.rank, SUM, root=0)
        prefix = yield from coll.scan(world, 1, SUM)
        gathered = yield from coll.gather(world, world.rank, root=root)
        yield from coll.barrier(world)
        return value, total, prefix, gathered

    results = run_ranks(p, program)
    for rank, (value, total, prefix, gathered) in enumerate(results):
        assert value == p // 2
        assert prefix == rank + 1
        if rank == 0:
            assert total == p * (p - 1) // 2
        if rank == p // 2:
            assert gathered == list(range(p))


def test_collectives_on_sub_range_use_rbc_ranks(run_ranks):
    def program(env):
        world = yield from _world(env)
        sub = yield from world.split(3, 7)
        if sub.rank is None:
            return None
        # Root is RBC rank 0 == MPI rank 3.
        value = yield from coll.bcast(sub, "root" if sub.rank == 0 else None, 0)
        total = yield from coll.allreduce(sub, 1, SUM)
        return value, total

    results = run_ranks(10, program)
    for rank, value in enumerate(results):
        if 3 <= rank <= 7:
            assert value == ("root", 5)
        else:
            assert value is None


def test_gatherv_variable_sized_contributions(run_ranks):
    def program(env):
        world = yield from _world(env)
        payload = np.arange(world.rank, dtype=np.float64)
        gathered = yield from coll.gatherv(world, payload, root=0)
        if world.rank == 0:
            return [chunk.size for chunk in gathered]
        return None

    assert run_ranks(5, program)[0] == [0, 1, 2, 3, 4]


def test_exscan_and_allgather_extensions(run_ranks):
    def program(env):
        world = yield from _world(env)
        exclusive = yield from coll.exscan(world, world.rank + 1, SUM)
        listing = yield from coll.allgather(world, world.rank * 2)
        return exclusive, listing

    results = run_ranks(6, program)
    for rank, (exclusive, listing) in enumerate(results):
        assert listing == [2 * r for r in range(6)]
        assert exclusive == (None if rank == 0 else rank * (rank + 1) // 2)


def test_disjoint_subcomms_run_collectives_concurrently(run_ranks):
    """Fig. 1: both halves broadcast simultaneously without interfering."""

    def program(env):
        world = yield from _world(env)
        size = world.size
        if world.rank < size // 2:
            half = yield from world.split(0, size // 2 - 1)
            expected = "left"
        else:
            half = yield from world.split(size // 2, size - 1)
            expected = "right"
        value = yield from coll.bcast(
            half, expected if half.rank == 0 else None, 0)
        return value == expected

    assert all(run_ranks(8, program))


def test_overlapping_comms_need_distinct_tags(run_ranks):
    """Two RBC communicators overlapping on more than one process may run
    simultaneous collectives only with distinct (user-provided) tags —
    exactly the restriction Section V-A describes."""

    def program(env):
        world = yield from _world(env)
        # Both communicators contain ranks 1..3 (overlap on 3 > 1 processes).
        a = yield from world.split(0, 3)
        b = yield from world.split(1, 4)
        requests = []
        if a.rank is not None:
            requests.append(coll.ibcast(a, "A" if a.rank == 0 else None, 0, tag=101))
        if b.rank is not None:
            requests.append(coll.ibcast(b, "B" if b.rank == 0 else None, 0, tag=202))
        values = yield from wait_all(env, requests)
        return values

    results = run_ranks(5, program)
    assert results[0] == ["A"]
    for rank in (1, 2, 3):
        assert results[rank] == ["A", "B"]
    assert results[4] == ["B"]


def test_nonblocking_collective_progresses_only_via_test(run_ranks):
    """The request is a state machine: repeated rbc::Test calls drive it to
    completion without ever blocking (Fig. 1's usage pattern)."""

    def program(env):
        world = yield from _world(env)
        request = coll.ibcast(world, 7 if world.rank == 0 else None, 0)
        polls = 0
        while not request.test():
            polls += 1
            yield from env.sleep(1.0)
        return request.result(), polls

    results = run_ranks(6, program)
    assert all(value == 7 for value, _ in results)
    # At least one non-root rank needed several polls (it really was nonblocking).
    assert any(polls > 0 for _, polls in results[1:])


def test_consecutive_collectives_same_comm(run_ranks):
    """A process may start the next collective as soon as it completed the
    previous one locally (Section V-D)."""

    def program(env):
        world = yield from _world(env)
        first = yield from coll.scan(world, 1, SUM)
        second = yield from coll.scan(world, 10, SUM)
        third = yield from coll.bcast(world, "x" if world.rank == 0 else None, 0)
        return first, second, third

    results = run_ranks(7, program)
    for rank, (first, second, third) in enumerate(results):
        assert first == rank + 1
        assert second == 10 * (rank + 1)
        assert third == "x"


def test_reduce_with_numpy_payloads_and_custom_root(run_ranks):
    def program(env):
        world = yield from _world(env)
        result = yield from coll.reduce(world, np.full(4, float(world.rank)),
                                        SUM, root=2)
        return None if result is None else result.tolist()

    results = run_ranks(5, program)
    assert results[2] == [10.0, 10.0, 10.0, 10.0]
    assert all(results[r] is None for r in (0, 1, 3, 4))


def test_collective_on_comm_without_membership_raises(run_ranks):
    def program(env):
        world = yield from _world(env)
        sub = yield from world.split(0, 1)
        if world.rank >= 2:
            with pytest.raises(ValueError):
                coll.ibcast(sub, None, 0)
            return "raised"
        value = yield from coll.bcast(sub, "ok" if sub.rank == 0 else None, 0)
        return value

    results = run_ranks(4, program)
    assert results == ["ok", "ok", "raised", "raised"]


def test_endpoint_cache_is_bounded(run_ranks):
    """Tag-per-instance traffic cannot grow the transport's table of interned
    endpoints without limit: it is FIFO-bounded, serves a present key as the
    same object and rebuilds an evicted one."""
    from repro.rbc.collectives import _endpoint
    from repro.simulator.network import INTERN_MAX

    def program(env):
        world = yield from _world(env)
        table = env.transport._interned
        for tag in range(3 * INTERN_MAX):
            _endpoint(world, tag)
        assert len(table) == INTERN_MAX
        # FIFO: the newest tags survive, the oldest were evicted.
        newest = 3 * INTERN_MAX - 1
        assert (world.range, newest) in table
        assert (world.range, 0) not in table
        # A present key is served as the same object (no rebuild).
        assert _endpoint(world, newest) is table[(world.range, newest)]
        # Re-requesting an evicted tag still works (rebuilt, re-interned).
        rebuilt = _endpoint(world, 0)
        assert rebuilt.tag == 0 and table[(world.range, 0)] is rebuilt
        return len(table)

    assert run_ranks(2, program) == [INTERN_MAX, INTERN_MAX]


def test_rbc_barrier_synchronises(run_cluster):
    def program(env):
        world = yield from _world(env)
        if world.rank == 2:
            yield from env.sleep(100.0)
        yield from coll.barrier(world)
        return env.now

    results = run_cluster(6, program).results
    assert all(t >= 100.0 for t in results)
