"""The shipped fig4/fig9 grids at their shipped size (p = 64, 90 cells each).

On the three-tier presets — and a few ``two_tier`` cells — the lockstep tier
refuses the collective program's opening barrier.  Such a repetition is
re-run on the event-by-event schedules, so the cell completes, reports the
refusal in its telemetry, and carries exactly the reference engine's timing.
"""

import pytest

from repro.bench.harness import collective_program
from repro.core.spmd import LockstepError
from repro.experiments import ExperimentSpec, Scenario, execute_scenario, run_spec
from repro.experiments import runner
from repro.simulator import Cluster
from repro.simulator.errors import RankFailedError


@pytest.fixture(scope="module", params=["fig4_grid", "fig9_grid"])
def grid_run(request):
    return run_spec(ExperimentSpec.load(request.param))


def test_every_shipped_cell_completes(grid_run):
    assert len(grid_run.results) == 90
    assert [r.error for r in grid_run.results if not r.ok] == []
    assert grid_run.summary().endswith("90 executed, 0 cached, 0 failed")


def test_refused_cells_carry_the_reference_engines_timing(grid_run):
    refused = {}
    for result in grid_run.results:
        if result.telemetry["lockstep_refusals"] > 0:
            refused.setdefault(result.scenario.machine, result)
    assert {"supermuc", "two_tier"} <= set(refused)
    assert "flat" not in refused

    for result in refused.values():  # one re-run cell per machine
        scenario = result.scenario
        params, placement = scenario.resolve_machine()
        reference = Cluster(scenario.num_ranks, params, placement=placement,
                            reference_engine=True).run(
            collective_program, operation=scenario.operation,
            impl=scenario.impl, vendor=scenario.vendor, words=scenario.words,
            lockstep=False)
        assert [d.hex() for d in result.durations_us] \
            == [max(reference.results).hex()]
        # The refused attempt reached no observer: one counted run.
        assert result.telemetry["cluster_runs"] == 1
        assert result.telemetry["phases_lockstep"] == 0


def _failing_runs(monkeypatch, original):
    calls = []

    def run_rank_durations(*args, **kwargs):
        calls.append(kwargs.get("lockstep"))
        raise RankFailedError(3, original)

    monkeypatch.setattr(runner, "run_rank_durations", run_rank_durations)
    return calls


def test_other_rank_failures_still_fail_the_scenario(monkeypatch):
    calls = _failing_runs(monkeypatch, ValueError("boom"))
    result = execute_scenario(Scenario(kind="collective"))
    assert not result.ok and "boom" in result.error
    assert calls == [None]  # no second attempt


def test_a_refusal_is_retried_once_with_lockstep_off(monkeypatch):
    calls = _failing_runs(monkeypatch, LockstepError("refused"))
    result = execute_scenario(Scenario(kind="collective"))
    assert not result.ok and "refused" in result.error
    assert calls == [None, False]
