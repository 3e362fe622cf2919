"""What ``Cluster(reference_engine=True)`` — the oracle — means.

Every original implementation at once: the tuple-heap event core, linear-scan
mailboxes, every collective priced event by event whatever the program opted
into, Janus Quicksort on the per-rank frontier.  The default cluster is the
only other configuration; ``obs["tier_declined"]`` says why a faster tier that
was asked for did not run.
"""

import numpy as np
import pytest

from repro.mpi import init_mpi
from repro.mpi.datatypes import SUM
from repro.obs import write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.obs.export import load_jsonl
from repro.rbc import collectives as rbc
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster, HierarchicalParams, LinearScanMailbox
from repro.simulator.batchcore import BatchedCore, HeapCore
from repro.sorting import JQuickConfig, RbcBackend, jquick

from oracle import assert_equal_observables, run_both

ANALYTIC = ("phases_lockstep", "phases_fastforward", "phases_batched")

LOCKSTEP_ON_ORACLE = ("lockstep: the reference engine prices collectives "
                      "event by event")


def _opted_in_loop(env, reps=3):
    """Barrier-separated scans, then a reduce, all opted in to lockstep."""
    env.lockstep_collectives = True
    world = yield from create_rbc_comm(init_mpi(env, vendor="generic"))
    total = 0.0
    for _ in range(reps):
        yield from rbc.barrier(world)
        request = rbc.iscan(world, float(env.rank + 1), SUM)
        yield from env.wait_until(request.test)
        total += request.result()
    request = rbc.ireduce(world, np.ones(4) * env.rank, root=0)
    yield from env.wait_until(request.test)
    return env.now, total


def _sort(env, local_data):
    world = yield from create_rbc_comm(init_mpi(env))
    output, stats = yield from jquick(env, RbcBackend(world), local_data,
                                      JQuickConfig(seed=5))
    return env.now, output, stats.distributed_steps


def _one_key_per_rank(p):
    values = np.random.default_rng(p).random(p)
    return [dict(local_data=values[rank:rank + 1].copy())
            for rank in range(p)]


def test_oracle_prices_an_opted_in_collective_loop_event_by_event():
    default, oracle = run_both(16, _opted_in_loop)
    assert_equal_observables(default, oracle)
    assert default.obs["phases_fastforward"] > 0     # barriers and scans
    assert default.obs["phases_lockstep"] > 0        # the reduce
    assert default.obs["scalar_collectives"] == 0
    assert default.obs["tier_declined"] == {}
    assert [oracle.obs[name] for name in ANALYTIC] == [0, 0, 0]
    # 3 barriers + 3 scans + 1 reduce on each of the 16 ranks, each turned
    # away once and run by its state machine instead.
    assert oracle.obs["scalar_collectives"] == 7 * 16
    assert oracle.obs["tier_declined"] == {LOCKSTEP_ON_ORACLE: 7 * 16}
    assert default.events_processed < oracle.events_processed


@pytest.mark.parametrize("p", [64, 77])
def test_oracle_sorts_on_the_per_rank_frontier(p):
    default, oracle = run_both(p, _sort, rank_kwargs=_one_key_per_rank(p))
    assert_equal_observables(default, oracle)
    assert default.obs["phases_batched"] > 0
    assert default.obs["phases_lockstep"] > 0        # the size agreement
    assert default.obs["tier_declined"] == {}
    assert [oracle.obs[name] for name in ANALYTIC] == [0, 0, 0]
    assert oracle.obs["tier_declined"] == {
        LOCKSTEP_ON_ORACLE: p,                       # the size agreement
        "batched sort: the reference engine runs every level event by "
        "event": p}


def test_oracle_runs_on_the_original_core_and_mailboxes():
    default, oracle = Cluster(6), Cluster(6, reference_engine=True)
    assert type(default.engine.core) is BatchedCore
    assert type(oracle.engine.core) is HeapCore
    result = oracle.run(_opted_in_loop, reps=1)
    assert result.obs["mailboxes_materialized"] == 6
    assert all(type(oracle.transport.mailbox_of(rank)) is LinearScanMailbox
               for rank in range(6))


def test_a_program_that_never_opts_in_declines_nothing():
    def program(env):
        world = init_mpi(env, vendor="intel")
        value = yield from world.allreduce(float(env.rank))
        return env.now, value

    default, oracle = run_both(8, program)
    assert_equal_observables(default, oracle)
    assert default.obs["tier_declined"] == oracle.obs["tier_declined"] == {}
    assert default.events_processed == oracle.events_processed


def test_small_sorts_and_shared_nic_machines_say_why_they_stay_scalar(
        tmp_path, capsys):
    """The two default-cluster declines, carried through the trace artifact
    into ``python -m repro.obs summary``."""
    p = 8
    params = HierarchicalParams.supermuc_like(ranks_per_node=4,
                                              ports_per_node=1)
    result = Cluster(p, params, trace=True).run(
        _sort, rank_kwargs=_one_key_per_rank(p))
    declined = result.obs["tier_declined"]
    assert declined == {
        "lockstep: shared NIC ports are not mirrored by the pricer": p,
        "batched sort: it requires a flat machine with a uniform link "
        "model": p}
    assert result.trace.counters["tier_declined"] == declined

    path = tmp_path / "sort.trace.jsonl"
    write_jsonl(result.trace, str(path))
    assert load_jsonl(str(path)).counters["tier_declined"] == declined
    assert obs_main(["summary", str(path)]) == 0
    output = capsys.readouterr().out
    for reason, count in declined.items():
        assert f"{count} x {reason}" in output

    flat = Cluster(p).run(_sort, rank_kwargs=_one_key_per_rank(p))
    assert flat.obs["tier_declined"] == {
        "batched sort: it pays off from 64 ranks (got p=8)": p}


def test_a_mismatch_names_the_tiers_that_ran():
    default, oracle = run_both(16, _opted_in_loop)
    oracle.finish_times[3] += 1e-9
    with pytest.raises(AssertionError) as info:
        assert_equal_observables(default, oracle)
    message = str(info.value)
    assert "phases_fastforward" in message and "tier_declined" in message


# ---------------------------------------------------------------------------
# Known silent misprices of the default cluster, pinned until fixed: each
# test passes the day the default cluster matches the oracle (strict xfail).
# ---------------------------------------------------------------------------

def _two_gathers(env, barrier_first, algorithm):
    """Two back-to-back gathers of ``float(rank)`` to rank 0, opted in."""
    env.lockstep_collectives = True
    world = init_mpi(env, vendor="generic")
    if barrier_first:
        world = yield from create_rbc_comm(world)
        yield from rbc.barrier(world)
    for _ in range(2):
        if barrier_first:
            request = rbc.igather(world, float(env.rank), root=0,
                                  algorithm=algorithm)
        else:
            request = world.igather(float(env.rank), root=0)
        yield from env.wait_until(request.test)
    return env.now


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "flat lockstep phases fold a same-instant port tie between two "
    "generations in generation order; the engine posts the later one first "
    "(ranks 0 and 4 read 20.044 against the oracle's 20.048)"))
def test_back_to_back_flat_gathers_match_the_oracle():
    assert_equal_observables(*run_both(8, _two_gathers, barrier_first=False,
                                       algorithm=None))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a lockstep barrier wakes its same-instant finishers in rank order, the "
    "event tier in completion order, so the event-tier gathers after it win "
    "a port tie the other way (ranks 0 and 4 read 35.128 against 35.124)"))
def test_event_tier_gathers_after_a_lockstep_barrier_match_the_oracle():
    assert_equal_observables(*run_both(8, _two_gathers, barrier_first=True,
                                       algorithm="binomial"))
