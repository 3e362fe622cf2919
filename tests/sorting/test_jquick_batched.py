"""Differential contract of the cross-rank batched sorting tier.

The batched tier (``JQuickConfig.batch_levels``) prices whole distributed
levels in lockstep at ``n == p``; its contract is *bit identity*: simulated
finish times, sorted outputs and stats (modulo the ``batched_levels``
counter) must equal both the scalar per-rank frontier and the scalar
frontier on the reference engine.  Property-based inputs stress the regimes
where the tiers could plausibly diverge — duplicate-heavy keys (tie
breaking), pre-sorted inputs (maximally skewed splits) and adversarially
skewed magnitudes — plus the gate conditions around ``n == p`` and the
minimum rank count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.sorting import JQuickConfig, RbcBackend, jquick
from repro.sorting.jquick import JQUICK_BATCH_MIN_RANKS

#: Lockstep phase kinds this module covers differentially (scanned by
#: ``benchmarks/check_lockstep_registry.py``): the fused jquick level phase
#: (the analytic data exchange it drives is a fed sub-phase, not a kind).
COVERS_KINDS = ("jqlevel",)

P = JQUICK_BATCH_MIN_RANKS  # smallest auto-engaged group: every level batched


def _sort_program(env, *, local_data, config):
    world_mpi = init_mpi(env)
    world_rbc = yield from create_rbc_comm(world_mpi)
    output, stats = yield from jquick(env, RbcBackend(world_rbc),
                                      local_data, config)
    return env.now, output, stats.as_dict()


def _run(values, p, *, batch_levels, seed=17, reference=False):
    parts = [values[rank:rank + 1].copy() for rank in range(p)] \
        if values.size == p else _balanced(values, p)
    config = JQuickConfig(seed=seed, batch_levels=batch_levels)
    cluster = Cluster(p, reference_engine=reference)
    return cluster.run(
        _sort_program, config=config,
        rank_kwargs=[dict(local_data=part) for part in parts])


def _balanced(values, p):
    from repro.sorting.intervals import capacity
    parts, offset = [], 0
    for rank in range(p):
        count = capacity(rank, values.size, p)
        parts.append(values[offset:offset + count].copy())
        offset += count
    return parts


def _assert_identical(values, p, seed):
    batched = _run(values, p, batch_levels=True, seed=seed)
    scalar = _run(values, p, batch_levels=False, seed=seed)
    reference = _run(values, p, batch_levels=False, seed=seed,
                     reference=True)
    for rank in range(p):
        time_b, out_b, stats_b = batched.results[rank]
        time_s, out_s, stats_s = scalar.results[rank]
        time_r, out_r, stats_r = reference.results[rank]
        assert time_b == time_s == time_r
        assert np.array_equal(out_b, out_s) and np.array_equal(out_s, out_r)
        assert stats_b.pop("batched_levels") > 0
        stats_s.pop("batched_levels")
        stats_r.pop("batched_levels")
        assert stats_b == stats_s == stats_r
    merged = np.concatenate([batched.results[r][1] for r in range(p)])
    assert np.all(np.diff(merged) >= 0)
    assert merged.size == values.size


# ---------------------------------------------------------------------------
# Property-based bit identity at n == p.
# ---------------------------------------------------------------------------

@given(distinct=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_duplicate_heavy_inputs_bit_identical(distinct, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, distinct, size=P).astype(np.float64)
    _assert_identical(values, P, seed)


@given(reverse=st.booleans(),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_pre_sorted_inputs_bit_identical(reverse, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(P))
    if reverse:
        values = values[::-1].copy()
    _assert_identical(values, P, seed)


@given(exponent=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_adversarially_skewed_inputs_bit_identical(exponent, seed):
    """Zipf-like magnitudes spanning hundreds of orders of magnitude: the
    pivot lands far off-median, so the recursion degenerates towards the
    level bound and degenerate (empty-side) splits occur."""
    rng = np.random.default_rng(seed)
    values = np.power(10.0, -rng.integers(0, exponent, size=P).astype(float))
    _assert_identical(values, P, seed)


# ---------------------------------------------------------------------------
# Gate conditions.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,engaged", [(P - 1, False), (P, True),
                                       (P + 1, True)])
def test_auto_gate_threshold(p, engaged):
    rng = np.random.default_rng(3)
    values = rng.random(p)
    result = _run(values, p, batch_levels=None)
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
    result = _run(values, p, batch_levels=None)
    assert all(result.results[rank][2]["batched_levels"] == 0
               for rank in range(p))


def test_forced_batching_rejects_n_not_equal_p():
    p = P
    rng = np.random.default_rng(5)
    values = rng.random(4 * p)
    with pytest.raises(Exception) as excinfo:
        _run(values, p, batch_levels=True)
    assert "batch_levels" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Honest refusal when two sorts would share a level record.
# ---------------------------------------------------------------------------

def _run_with_level_hook(monkeypatch, hook):
    """Sort at ``P`` ranks with ``hook(run, record, key)`` replacing every
    record a member fetches; returns the raised RankFailedError."""
    from repro.simulator.errors import RankFailedError
    from repro.sorting.batched import LevelBatcher

    original = LevelBatcher.level

    def level(self, run, *key):
        return hook(run, original(self, run, *key), key)

    monkeypatch.setattr(LevelBatcher, "level", level)
    values = np.random.default_rng(6).random(P)
    with pytest.raises(RankFailedError) as excinfo:
        _run(values, P, batch_levels=True)
    return excinfo.value


def test_row_deposited_twice_is_refused(monkeypatch):
    """A second sort's member reaching an occupied row of a live record
    must refuse instead of silently keeping the first deposit."""
    from repro.core.spmd import LockstepError

    def occupy_row(run, record, key):
        if run.rank == 0 and record.level == 0:
            record.deposit(0, np.zeros(1))  # "the other sort" got here first
        return record

    failure = _run_with_level_hook(monkeypatch, occupy_row)
    assert isinstance(failure.__cause__, LockstepError)
    assert "deposited its row twice" in str(failure.__cause__)


def test_member_joining_with_a_foreign_record_is_refused(monkeypatch):
    """All members of a level phase must hold the same record object."""
    from repro.core.spmd import LockstepError
    from repro.sorting.batched import _LevelRecord

    def foreign_record(run, record, key):
        if run.rank == 3 and record.level == 0:
            return _LevelRecord(run, *key)  # same key, not the shared one
        return record

    failure = _run_with_level_hook(monkeypatch, foreign_record)
    assert isinstance(failure.__cause__, LockstepError)
    assert "different level record" in str(failure.__cause__)
