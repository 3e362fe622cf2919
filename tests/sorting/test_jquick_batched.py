"""Differential contract of the cross-rank batched sorting tier.

The batched tier (:mod:`repro.sorting.batched`) prices whole distributed
levels in lockstep at ``n == p``; its contract is *bit identity*: simulated
finish times, sorted outputs and stats (modulo the ``batched_levels``
counter) must equal the per-rank frontier run event by event on the oracle
(``tests/oracle.py``).  Property-based inputs stress the regimes where the
tiers could plausibly diverge — duplicate-heavy keys (tie breaking),
pre-sorted inputs (maximally skewed splits) and adversarially skewed
magnitudes — plus the gate conditions around ``n == p`` and the minimum rank
count.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.sorting import JQuickConfig, RbcBackend, jquick
from repro.sorting.jquick import JQUICK_BATCH_MIN_RANKS

from oracle import assert_equal_observables, run_both

#: Lockstep phase kinds this module covers differentially (scanned by
#: ``benchmarks/check_lockstep_registry.py``): the fused jquick level phase
#: (the analytic data exchange it drives is a fed sub-phase, not a kind).
COVERS_KINDS = ("jqlevel",)

P = JQUICK_BATCH_MIN_RANKS  # smallest auto-engaged group: every level batched

#: Engine events of the p = 1024 sort in test_sort_at_p_1024_wakes_each_rank_once.
EVENTS_AT_P_1024 = 7650


def _sort_program(env, *, local_data, config):
    world_mpi = init_mpi(env)
    world_rbc = yield from create_rbc_comm(world_mpi)
    output, stats = yield from jquick(env, RbcBackend(world_rbc),
                                      local_data, config)
    return env.now, output, stats.as_dict()


def _sort_kwargs(values, p, config):
    """``Cluster.run`` keywords of one sort of ``values`` on ``p`` ranks."""
    parts = [values[rank:rank + 1].copy() for rank in range(p)] \
        if values.size == p else _balanced(values, p)
    return dict(config=config,
                rank_kwargs=[dict(local_data=part) for part in parts])


def _run(values, p):
    return Cluster(p).run(_sort_program,
                          **_sort_kwargs(values, p, JQuickConfig(seed=17)))


def _balanced(values, p):
    from repro.sorting.intervals import capacity
    parts, offset = [], 0
    for rank in range(p):
        count = capacity(rank, values.size, p)
        parts.append(values[offset:offset + count].copy())
        offset += count
    return parts


def _assert_batched_equals_oracle(batched, oracle):
    """Every observable but the ``batched_levels`` counter, which must be
    positive on every rank of the default run and zero on the oracle."""
    for _, _, stats in batched.results:
        assert stats.pop("batched_levels") > 0
    for _, _, stats in oracle.results:
        assert stats.pop("batched_levels") == 0
    assert_equal_observables(batched, oracle)


def _assert_identical(values, p, seed):
    batched, oracle = run_both(
        p, _sort_program, **_sort_kwargs(values, p, JQuickConfig(seed=seed)))
    _assert_batched_equals_oracle(batched, oracle)
    merged = np.concatenate([batched.results[r][1] for r in range(p)])
    assert np.all(np.diff(merged) >= 0)
    assert merged.size == values.size


# ---------------------------------------------------------------------------
# Property-based bit identity at n == p.
# ---------------------------------------------------------------------------

#: Group sizes of the differential: the smallest auto-engaged world, and one
#: that is not a power of two (the groups of a round then differ in size and
#: drop out to their base cases in different rounds).
WORLD_SIZES = st.sampled_from((P, P + 13))


@given(distinct=st.integers(min_value=1, max_value=6), p=WORLD_SIZES,
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_duplicate_heavy_inputs_bit_identical(distinct, p, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, distinct, size=p).astype(np.float64)
    _assert_identical(values, p, seed)


@given(reverse=st.booleans(), p=WORLD_SIZES,
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_pre_sorted_inputs_bit_identical(reverse, p, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(p))
    if reverse:
        values = values[::-1].copy()
    _assert_identical(values, p, seed)


@given(exponent=st.integers(min_value=1, max_value=200), p=WORLD_SIZES,
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_adversarially_skewed_inputs_bit_identical(exponent, p,
                                                            seed):
    """Zipf-like magnitudes spanning hundreds of orders of magnitude, with
    many exact duplicates among the small exponents."""
    rng = np.random.default_rng(seed)
    values = np.power(10.0, -rng.integers(0, exponent, size=p).astype(float))
    _assert_identical(values, p, seed)


@pytest.mark.parametrize("p", (P, P + 13))
def test_int64_keys_at_both_world_sizes_bit_identical(p):
    values = np.random.default_rng(p).integers(-5, 40, size=p)
    assert values.dtype == np.int64
    _assert_identical(values, p, seed=p)


# ---------------------------------------------------------------------------
# Rounds that mix retrying and splitting groups.
#
# At n == p every rank draws its one element at least once, so a group's
# pivot is its exact lower median whatever the level: with tie breaking no
# split is ever degenerate, and without it a group whose lower median is its
# minimum retries the same split until ``max_levels`` fails the sort.  The
# differential for such rounds therefore compares the failure: both tiers
# must give up on the same task at the same simulated instant (which of the
# task's members reports it is a same-instant tie).
# ---------------------------------------------------------------------------

def _failure_of(values, p, *, reference):
    from repro.simulator.errors import RankFailedError

    config = JQuickConfig(seed=17, tie_breaking=False, max_levels=6)
    cluster = Cluster(p, reference_engine=reference)
    with pytest.raises(RankFailedError) as excinfo:
        cluster.run(_sort_program, **_sort_kwargs(values, p, config))
    cause = excinfo.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "exceeded 6 levels" in str(cause)
    return str(cause).split(": ", 1)[1], cluster.engine.now


def _few_keys_and_a_uniform_tail(p):
    """Half the keys from {0, 1, 2} (their groups end up all-equal and
    retry), half distinct (their groups keep splitting), shuffled."""
    rng = np.random.default_rng(p)
    values = np.concatenate((rng.integers(0, 3, size=p // 2).astype(float),
                             3 + rng.random(p - p // 2)))
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("make_values", (_few_keys_and_a_uniform_tail,
                                         np.zeros),
                         ids=("retrying-beside-splitting", "root-retries"))
@pytest.mark.parametrize("p", (P, P + 13))
def test_degenerate_retries_fail_identically_on_every_tier(p, make_values):
    values = make_values(p)
    assert _failure_of(values, p, reference=False) == \
        _failure_of(values, p, reference=True)


def test_rounds_mix_retrying_and_splitting_groups():
    """The input above does what its name says: some round of the plan holds
    several groups that retry next to several that split."""
    from repro.sorting.batched import _Round

    p = P
    config = JQuickConfig(seed=17, tie_breaking=False)
    pending = (0, np.zeros(1, dtype=np.int64), np.full(1, p, dtype=np.int64),
               _few_keys_and_a_uniform_tail(p), np.ones(1, dtype=bool))
    mixed = False
    while pending is not None and pending[0] < 6:
        current = _Round(config, p, p, *pending)
        totals = [int(current.counts[a:b, 0].sum()) for a, b in
                  zip(current.row_bounds, current.row_bounds[1:])]
        retrying = sum(total == 0 for total in totals)
        mixed = mixed or (retrying > 1 and len(totals) - retrying > 1)
        pending = current.successor
    assert mixed


# ---------------------------------------------------------------------------
# Gate conditions.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,engaged", [(P - 1, False), (P, True),
                                       (P + 1, True)])
def test_auto_gate_threshold(p, engaged):
    rng = np.random.default_rng(3)
    values = rng.random(p)
    result = _run(values, p)
    levels = [result.results[rank][2]["batched_levels"] for rank in range(p)]
    if engaged:
        assert all(level > 0 for level in levels)
    else:
        assert all(level == 0 for level in levels)
    merged = np.concatenate([result.results[r][1] for r in range(p)])
    assert np.all(np.diff(merged) >= 0)


def test_auto_gate_declines_when_n_exceeds_p():
    p = P
    rng = np.random.default_rng(4)
    values = rng.random(4 * p)
    result = _run(values, p)
    assert all(result.results[rank][2]["batched_levels"] == 0
               for rank in range(p))
    # One decline per rank, with the reason.
    assert result.obs["tier_declined"] == {
        "batched sort: it requires the communicator-bound layout n == p "
        f"(got n={4 * p}, p={p})": p}


# ---------------------------------------------------------------------------
# One plan per cluster, one sort at a time.
# ---------------------------------------------------------------------------

def _sort_twice_program(env, *, local_data, config):
    world_rbc = yield from create_rbc_comm(init_mpi(env))
    backend = RbcBackend(world_rbc)
    first, _ = yield from jquick(env, backend, local_data, config)
    second, stats = yield from jquick(env, backend, -first, config)
    return env.now, second, stats.as_dict()


def test_sorts_in_a_row_reuse_the_emptied_plan():
    """A finished sort leaves the cluster's plan empty, so the next sort on
    the same cluster starts from its own root rows — bit-identical to the
    oracle's per-rank frontier doing the same two sorts."""
    p = P + 13
    values = np.random.default_rng(8).random(p)
    batched, oracle = run_both(
        p, _sort_twice_program,
        **_sort_kwargs(values, p, JQuickConfig(seed=3)))
    _assert_batched_equals_oracle(batched, oracle)
    assert np.array_equal(
        np.concatenate([out for _, out, _ in batched.results]),
        np.sort(-values))


# ---------------------------------------------------------------------------
# One join and one wake per rank per sort.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", (P, P + 13))
def test_one_join_per_rank_per_sort(monkeypatch, p):
    """Every rank enters the batched sort once, at its root level; the plan
    prices every later level without the rank rejoining."""
    jquick_module = importlib.import_module("repro.sorting.jquick")
    original = jquick_module.join_jq_level
    joins = []

    def counting(env, *args):
        joins.append(env.rank)
        return original(env, *args)

    monkeypatch.setattr(jquick_module, "join_jq_level", counting)
    result = _run(np.random.default_rng(p).random(p), p)
    assert sorted(joins) == list(range(p))
    assert min(stats["batched_levels"] for _, _, stats in result.results) > 1


def test_sort_at_p_1024_wakes_each_rank_once(monkeypatch):
    """The engine events of a p = 1024 sort: one wake per rank for the
    whole distributed phase (17 159 events when every rank woke once per
    level).  The plan prices every round at one engine instant, so the
    receive-port logs are pruned against its frontier, not the clock: once
    it is done they hold under one prune threshold (24 entries) per port,
    where a bound stuck at the clock leaves 81 per port."""
    from repro.sorting.batched import SortPlan

    original = SortPlan.price
    entries = []

    def price(self, root):
        outcomes = original(self, root)
        entries.append(sum(map(len, root.coordinator.ports.lists.values())))
        return outcomes

    monkeypatch.setattr(SortPlan, "price", price)
    p = 1024
    result = _run(np.random.default_rng(p).random(p), p)
    assert result.events_processed == EVENTS_AT_P_1024
    assert result.obs["phases_batched"] == 682
    assert len(entries) == 1 and entries[0] < 24 * p


# ---------------------------------------------------------------------------
# Honest refusal when two sorts would share a root record.
# ---------------------------------------------------------------------------

def _run_with_root_hook(monkeypatch, hook):
    """Sort at ``P`` ranks with ``hook(run, record)`` replacing the root
    record every member fetches; returns the raised RankFailedError."""
    from repro.simulator.errors import RankFailedError
    from repro.sorting.batched import SortPlan

    original = SortPlan.root

    def root(self, run):
        return hook(run, original(self, run))

    monkeypatch.setattr(SortPlan, "root", root)
    values = np.random.default_rng(6).random(P)
    with pytest.raises(RankFailedError) as excinfo:
        _run(values, P)
    return excinfo.value


def test_row_deposited_twice_is_refused(monkeypatch):
    """A second sort's member reaching an occupied row of a live root
    record must refuse instead of silently keeping the first deposit."""
    from repro.core.spmd import LockstepError

    def occupy_row(run, record):
        if run.rank == 0:
            record.deposit(0, np.zeros(1))  # "the other sort" got here first
        return record

    failure = _run_with_root_hook(monkeypatch, occupy_row)
    assert isinstance(failure.__cause__, LockstepError)
    assert "deposited its row twice" in str(failure.__cause__)


def test_member_joining_with_a_foreign_record_is_refused(monkeypatch):
    """All members of the root level phase must hold the same record."""
    from repro.core.spmd import LockstepError
    from repro.sorting.batched import _RootRecord

    def foreign_record(run, record):
        if run.rank == 3:
            # Same sort, not the shared record.
            return _RootRecord(record.plan, run)
        return record

    failure = _run_with_root_hook(monkeypatch, foreign_record)
    assert isinstance(failure.__cause__, LockstepError)
    assert "different level record" in str(failure.__cause__)


def test_second_sort_reaching_a_live_plan_is_refused(monkeypatch):
    """A root level that resolves while the plan still holds another sort's
    rounds must refuse instead of computing rounds over mixed-up values."""
    from repro.core.spmd import LockstepError

    def leave_a_round_behind(run, record):
        if run.rank == 0:
            # "The other sort"'s next round.
            record.plan._pending = (5, None, None, None, None)
        return record

    failure = _run_with_root_hook(monkeypatch, leave_a_round_behind)
    assert isinstance(failure.__cause__, LockstepError)
    assert "holds another sort's rounds" in str(failure.__cause__)
