"""A simulation never needs the cyclic collector — running, finished or failed.

``Cluster.run`` pauses the collector for the run, restores the caller's
setting, and tears down what only a running simulation needs; the object
graph of a cluster is acyclic, so dropping the cluster frees it by reference
counting.  One matrix of simulations (every execution tier, both sorter
backends, the three communicator-creation paths, explicit-group
communicators, a traced run) is held to that, and so is every failure path.
"""

from __future__ import annotations

import gc
import sys
from unittest import mock

import pytest

from repro.bench.harness import collective_program
from repro.bench.programs import jquick_program, split_halves_program
from repro.bench.workloads import generate
from repro.core.spmd import LockstepError
from repro.experiments import Scenario, execute_scenario
from repro.mpi import MpiGroup, init_mpi
from repro.mpi.datatypes import ANY_SOURCE
from repro.rbc import collectives as rbc_collectives
from repro.rbc import create_rbc_comm, split_rbc_comm
from repro.rbc.comm import RbcComm
from repro.simulator import Cluster, HierarchicalParams
from repro.simulator.cluster import add_run_observer, remove_run_observer
from repro.simulator.errors import (
    DeadlockError,
    RankFailedError,
    SimulationError,
)
from repro.sorting import JQuickConfig
from repro.sorting import batched as sorting_batched


# ---------------------------------------------------------------------------
# The matrix.  A case runs its simulation(s) and returns the
# ``(cluster, result)`` pairs it can show (the experiment runner keeps its
# clusters to itself).
# ---------------------------------------------------------------------------

def _scenario(machine, **overrides):
    def case():
        fields = dict(kind="collective", machine=machine, num_ranks=64,
                      operation="scan", impl="rbc", vendor="generic",
                      words=16)
        trace = overrides.pop("trace", False)
        fields.update(overrides)
        result = execute_scenario(Scenario(**fields), trace=trace)
        assert result.ok, result.error
        assert result.telemetry["lockstep_refusals"] == 0
        assert (result.telemetry["phases_lockstep"]
                + result.telemetry["phases_fastforward"]) > 0
        assert (result.trace_jsonl is not None) == trace
        return []
    return case


def _cluster(num_ranks, program, *, params=None, **kwargs):
    def case():
        cluster = Cluster(num_ranks, params)
        return [(cluster, cluster.run(program, **kwargs))]
    return case


def _jquick(num_ranks, n_per_proc, backend):
    def case():
        parts = generate("uniform", n_per_proc * num_ranks, num_ranks, seed=3)
        cluster = Cluster(num_ranks)
        result = cluster.run(
            jquick_program, backend=backend, vendor="intel",
            config=JQuickConfig(seed=17),
            rank_kwargs=[dict(local_data=part) for part in parts])
        batched = result.obs["phases_batched"] > 0
        assert batched == (n_per_proc == 1 and backend == "rbc")
        return [(cluster, result)]
    return case


def _explicit_group_program(env):
    """RBC ranges over an MPI communicator whose group is an explicit list.

    The reversed-key split yields a non-affine group, so the RBC endpoint
    translation, the range-restricted wildcard predicate and the
    ``create_group`` member table all take their explicit-group branches.
    """
    world = init_mpi(env, vendor="intel")
    shuffled = yield from world.split(color=0, key=-world.rank)
    assert shuffled.group.affine_world_map() is None
    comm = RbcComm(shuffled, 0, shuffled.size - 1)
    total = yield from rbc_collectives.allreduce(comm, float(env.rank))
    # Ring shift received through a range-restricted wildcard.
    send = comm.isend(env.rank, (comm.rank + 1) % comm.size, tag=5)
    token = yield from comm.recv(ANY_SOURCE, 5)
    yield from env.wait_until(send.test)
    half = shuffled.size // 2
    mine = range(half) if shuffled.rank < half else range(half, shuffled.size)
    sub = yield from shuffled.create_group(
        MpiGroup.incl([shuffled.to_world(r) for r in mine]), tag=2)
    inner = yield from sub.allreduce(1)
    return total, token, inner


def _explicit_group():
    def case():
        cluster = Cluster(16)
        result = cluster.run(_explicit_group_program)
        for rank, (total, token, inner) in enumerate(result.results):
            assert total == sum(range(16))
            assert token == (rank + 1) % 16  # reversed keys: left neighbour
            assert inner == 8
        return [(cluster, result)]
    return case


def _split_twice_program(env):
    """Two back-to-back splits of one parent; a third of the ranks sit the
    first one out with ``color=None``."""
    world = init_mpi(env, vendor="intel")
    first = yield from world.split(
        None if world.rank % 3 == 0 else world.rank % 2, key=-world.rank)
    second = yield from world.split(world.rank // 4, key=world.rank)
    yield from world.barrier()
    assert env.transport._split_tables == {}  # emptied by its readers
    return None if first is None else first.size, second.size


def _descriptions_program(env):
    """Every kind of interned description on one transport: the world group,
    MPI collective and creation endpoints, RBC ranges and their collective
    endpoints, an affine and an explicit ``create_group``."""
    world = init_mpi(env, vendor="intel")
    rbc = yield from create_rbc_comm(world)
    total = yield from world.allreduce(env.rank)
    half = rbc.size // 2
    lower = yield from split_rbc_comm(rbc, 0, half - 1)
    upper = yield from split_rbc_comm(rbc, half, rbc.size - 1)
    mine = lower if lower.rank is not None else upper
    prefix = yield from rbc_collectives.scan(mine, 1)
    parity = world.rank % 2
    strided = yield from world.create_group(
        MpiGroup.range_incl([(parity, world.size - 2 + parity, 2)]), tag=1)
    yield from strided.barrier()
    explicit = yield from world.create_group(
        MpiGroup.incl(sorted(range(parity, world.size, 2), reverse=True)),
        tag=2)
    inner = yield from explicit.allreduce(1)
    return total, prefix, strided.size, inner


def _descriptions():
    def case():
        cluster = Cluster(16)
        result = cluster.run(_descriptions_program)
        for rank, (total, prefix, strided, inner) in enumerate(result.results):
            assert total == sum(range(16))
            assert prefix == rank % 8 + 1
            assert strided == inner == 8
        assert cluster.transport._interned == {}  # emptied by close
        return [(cluster, result)]
    return case


_LOOP = dict(operation="gather", words=8, repetitions=3, lockstep=False)

CASES = {
    "lockstep-flat": _scenario("flat"),
    "lockstep-two_tier": _scenario("two_tier"),
    "events-rbc": _cluster(32, collective_program, impl="rbc",
                           vendor="generic", **_LOOP),
    "events-intel": _cluster(32, collective_program, impl="mpi",
                             vendor="intel", **_LOOP),
    "events-intel-two_tier": _cluster(
        32, collective_program, impl="mpi", vendor="intel",
        params=HierarchicalParams.two_tier(ranks_per_node=4), **_LOOP),
    "jquick-batched-rbc": _jquick(64, 1, "rbc"),
    "jquick-n==p-mpi": _jquick(64, 1, "mpi"),
    "jquick-janus-rbc": _jquick(16, 8, "rbc"),
    "jquick-janus-mpi": _jquick(16, 8, "mpi"),
    "split_rbc_comm": _cluster(16, split_halves_program, method="rbc",
                               vendor="generic"),
    "create_group": _cluster(16, split_halves_program,
                             method="create_group", vendor="intel"),
    "split": _cluster(16, split_halves_program, method="split",
                      vendor="intel"),
    "split-twice-some-none": _cluster(12, _split_twice_program),
    "explicit-group": _explicit_group(),
    "interned-descriptions": _descriptions(),
    "traced": _scenario("two_tier", trace=True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


# ---------------------------------------------------------------------------
# Measuring.
# ---------------------------------------------------------------------------

def _cyclic_garbage_of(action):
    """What only a cyclic collection frees of what ``action()`` allocated."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()
    return garbage


class _CollectionsInsideRun:
    """``gc.callbacks`` entry listing the collector passes (by generation)
    that start while a ``Cluster.run`` frame is on the stack."""

    def __init__(self):
        self.generations = []

    def __call__(self, phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is Cluster.run.__code__:
                self.generations.append(info["generation"])
                break
            frame = frame.f_back


@pytest.fixture
def collections_inside_run():
    counter = _CollectionsInsideRun()
    gc.callbacks.append(counter)
    try:
        yield counter.generations
    finally:
        gc.callbacks.remove(counter)


@pytest.fixture(params=["collector-on", "collector-off"])
def collector_state(request):
    """Run the test under both caller settings; restores the session's."""
    before = gc.isenabled()
    wanted = request.param == "collector-on"
    (gc.enable if wanted else gc.disable)()
    try:
        yield wanted
    finally:
        (gc.enable if before else gc.disable)()


# ---------------------------------------------------------------------------
# Success path.
# ---------------------------------------------------------------------------

def test_finished_simulation_leaves_no_cyclic_garbage(case):
    case()  # imports, lru caches and other once-per-process state
    assert _cyclic_garbage_of(case) == []


def test_no_collection_inside_run_and_state_restored(
        case, collector_state, collections_inside_run):
    runs = []
    add_run_observer(runs.append)
    try:
        case()
    finally:
        remove_run_observer(runs.append)
    assert runs
    assert collections_inside_run == []
    assert gc.isenabled() == collector_state


def test_everything_public_stays_readable_after_teardown(case):
    for cluster, result in case():
        assert len(result.results) == cluster.num_ranks
        assert len(result.finish_times) == cluster.num_ranks
        assert result.total_time == max(result.finish_times) > 0.0
        assert result.stats.messages_sent > 0
        assert result.stats.messages_sent == \
            sum(result.stats.per_rank_messages_sent)
        assert cluster.engine.events_processed == result.events_processed > 0
        assert cluster.engine.now == result.total_time
        transport = cluster.transport
        assert transport.tracer.stats is result.stats
        assert transport.message_pool_stats() == result.message_pool
        assert transport.mailboxes_materialized() == \
            result.obs["mailboxes_materialized"]
        assert max(transport._send_port_free) > 0.0
        assert transport._split_tables == {}
        assert transport._interned == {}
        assert cluster._obs_snapshot() == result.obs
        assert [env.rank for env in cluster.envs] == \
            list(range(cluster.num_ranks))
        with pytest.raises(RuntimeError, match="single-use"):
            cluster.run(lambda env: iter(()))


# ---------------------------------------------------------------------------
# Failure paths.
# ---------------------------------------------------------------------------

def _raises_mid_collective(env):
    """Rank 3 dies while every other rank is blocked in the barrier."""
    world = init_mpi(env)
    comm = yield from create_rbc_comm(world)
    if env.rank == 3:
        yield from env.sleep(1.0)
        raise ValueError("boom")
    yield from rbc_collectives.barrier(comm)


def _skips_the_barrier(env):
    world = init_mpi(env)
    comm = yield from create_rbc_comm(world)
    if env.rank != 0:
        yield from rbc_collectives.barrier(comm)


def _fights_generator_exit(env):
    """A program whose cleanup raises must not mask the run's own error."""
    world = init_mpi(env)
    if env.rank == 0:
        yield from env.sleep(1.0)
        raise ValueError("boom")
    try:
        yield from world.barrier()
    finally:
        raise KeyError("raised while being closed")


def _dies_mid_split(env):
    """Rank 0 leaves the split first and dies while the table of per-color
    groups is still waiting for the other ranks to read it."""
    world = init_mpi(env, vendor="intel")
    yield from world.split(world.rank % 2, key=world.rank)
    if env.rank == 0:
        (table,) = env.transport._split_tables.values()
        assert table.unread == world.size - 1
        raise ValueError("boom")
    yield from world.barrier()


def _dies_mid_batched_level():
    """The partition of the sort's third round raises inside the level phase
    that asked for it, while the plan holds live rounds and records and
    every rank is suspended in (or on its way to) a level join."""
    real = sorting_batched.fused_partition_rows
    calls = []

    def partition(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("boom")
        return real(*args)

    parts = generate("uniform", 64, 64, seed=3)
    with mock.patch.object(sorting_batched, "fused_partition_rows", partition):
        return _failure(
            64, jquick_program, backend="rbc", vendor="intel",
            config=JQuickConfig(seed=17),
            rank_kwargs=[dict(local_data=part) for part in parts])


def _failure(num_ranks, program, params=None, **kwargs):
    """Run a failing program; ``(error type, cause type, message, cluster)``.

    The exception is consumed here, in a frame of its own: an exception a
    test keeps holds its traceback, whose frames hold the cluster.
    """
    cluster = Cluster(num_ranks, params)
    try:
        cluster.run(program, **kwargs)
    except SimulationError as exc:
        return type(exc), type(exc.__cause__), str(exc), cluster
    raise AssertionError("the run was expected to fail")


FAILURES = {
    "rank-raises": (
        lambda: _failure(8, _raises_mid_collective),
        RankFailedError, ValueError),
    "deadlock": (
        lambda: _failure(8, _skips_the_barrier),
        DeadlockError, type(None)),
    # Back-to-back hierarchical scans overlap on a receive port: the
    # lockstep tier refuses (the refusal of tests/obs/test_differential.py).
    "lockstep-refusal": (
        lambda: _failure(16, collective_program,
                         HierarchicalParams.two_tier(ranks_per_node=4),
                         operation="scan", impl="rbc", vendor="generic",
                         words=8, repetitions=3, lockstep=True,
                         sync_each=True),
        RankFailedError, LockstepError),
    "cleanup-raises": (
        lambda: _failure(4, _fights_generator_exit),
        RankFailedError, ValueError),
    "dies-mid-split": (
        lambda: _failure(16, _dies_mid_split),
        RankFailedError, ValueError),
    "dies-mid-batched-level": (
        _dies_mid_batched_level, RankFailedError, ValueError),
}


@pytest.fixture(params=sorted(FAILURES))
def failure(request):
    return FAILURES[request.param]


def _check_failure(failure):
    run, error, cause = failure
    got_error, got_cause, message, cluster = run()
    assert got_error is error, message
    assert got_cause is cause, message
    return cluster


def test_failed_simulation_surfaces_typed_error_and_frees(failure):
    _check_failure(failure)  # warm-up, and the typed error itself
    assert _cyclic_garbage_of(lambda: _check_failure(failure)) == []


def test_failed_run_restores_collector_and_never_collects(
        failure, collector_state, collections_inside_run):
    cluster = _check_failure(failure)
    assert gc.isenabled() == collector_state
    assert collections_inside_run == []
    # Torn down like a finished run: nothing suspended, nothing pending,
    # counters readable.
    assert not cluster.engine.core
    assert cluster.engine.events_processed > 0
    assert all(proc.error is None for proc in cluster.engine.processes)
    assert all(env._proc is None for env in cluster.envs)
    assert set(cluster.transport._notify_hooks) == {None}
    assert cluster.transport._split_tables == {}
    assert cluster.transport._sort_plan is None
    assert not _batched_sort_state_reachable_from(cluster.transport)
    assert cluster._obs_snapshot()["lockstep_refusals"] == \
        (failure[2] is LockstepError)


def _batched_sort_state_reachable_from(root) -> list:
    """Plans, rounds, records and level phases of the batched sorting tier
    that a walk over ``gc.get_referents`` reaches from ``root``."""
    found, seen, stack = [], {id(root)}, [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in seen or isinstance(referent, type):
                continue
            seen.add(id(referent))
            stack.append(referent)
            if type(referent).__module__ == sorting_batched.__name__:
                found.append(referent)
    return found


def test_blocked_ranks_are_closed_not_left_suspended():
    """The ranks blocked in ``wait_until`` see GeneratorExit at teardown."""
    closed = []

    def program(env):
        world = init_mpi(env)
        if env.rank == 0:
            yield from env.sleep(1.0)
            raise ValueError("boom")
        try:
            yield from world.barrier()
        finally:
            closed.append(env.rank)

    error, cause, _, cluster = _failure(4, program)
    assert (error, cause) == (RankFailedError, ValueError)
    assert sorted(closed) == [1, 2, 3]
    states = [proc.state for proc in cluster.engine.processes]
    assert states[0] == "failed" and set(states[1:]) == {"waiting"}
