"""Tests of the benchmark harness measurement machinery and figure specs."""

import pytest

from repro.bench.harness import (
    COLLECTIVE_OPS,
    Measurement,
    collective_program,
    run_rank_durations,
)
from repro.bench.programs import overlapping_groups
from repro.experiments.figures import MACHINE_SWEEP


def test_measurement_aggregation():
    measurement = Measurement.from_samples([1000.0, 3000.0, 2000.0], messages=7)
    assert measurement.mean_ms == pytest.approx(2.0)
    assert measurement.min_ms == pytest.approx(1.0)
    assert measurement.max_ms == pytest.approx(3.0)
    assert measurement.repetitions == 3
    assert measurement.messages == 7


def test_run_rank_durations_takes_max_over_ranks():
    def program(env):
        yield from env.sleep(float(env.rank) * 10)
        return float(env.rank) * 10

    duration, result = run_rank_durations(4, program)
    assert duration == 30.0
    assert result.total_time == 30.0


def test_run_rank_durations_ignores_non_participants():
    def program(env):
        yield from env.sleep(5.0)
        return 5.0 if env.rank == 0 else None

    duration, _ = run_rank_durations(3, program)
    assert duration == 5.0


@pytest.mark.parametrize("operation", COLLECTIVE_OPS)
@pytest.mark.parametrize("impl", ["rbc", "mpi"])
def test_collective_program_runs_all_ops(operation, impl):
    duration, result = run_rank_durations(
        8, collective_program, operation=operation, impl=impl,
        vendor="generic", words=16)
    assert duration > 0
    assert result.stats.messages_sent > 0


def test_collective_program_rejects_unknown_inputs():
    with pytest.raises(Exception):
        run_rank_durations(2, collective_program, operation="alltoall",
                           impl="rbc", vendor="generic", words=1)
    with pytest.raises(Exception):
        run_rank_durations(2, collective_program, operation="bcast",
                           impl="other", vendor="generic", words=1)


def test_fig_modules_expose_presets_and_run_tiny(figure_table):
    """Smoke-test the figure specs below their smallest scale."""
    table = figure_table("fig5_comm_split", num_ranks=[8, 16])
    assert {"label", "num_ranks", "time_ms"} <= set(table.columns)
    assert len(table.rows) == 5 * 2
    assert all(row["time_ms"] >= 0 for row in table.rows)

    table = figure_table("fig6_overlapping", num_ranks=16)
    assert len(table.rows) == 4

    table = figure_table("fig4_iscan", num_ranks=16)
    assert len({row["label"] for row in table.rows}) == 3


def test_overlapping_groups_cover_every_rank():
    groups = overlapping_groups(16)
    covered = set()
    for first, last in groups:
        assert last - first <= 3
        covered.update(range(first, last + 1))
    assert covered == set(range(16))
    # Boundary ranks appear in exactly two groups.
    multi = [r for r in range(16)
             if sum(first <= r <= last for first, last in groups) == 2]
    assert multi == [3, 6, 9, 12]


def test_telemetry_records_cluster_runs(tmp_path, monkeypatch):
    from repro.bench.harness import TELEMETRY, write_bench_json

    TELEMETRY.reset()

    def program(env):
        yield from env.sleep(100.0)
        return 100.0

    run_rank_durations(4, program)
    run_rank_durations(4, program)
    snap = TELEMETRY.snapshot()
    assert snap["cluster_runs"] == 2
    assert snap["simulated_us"] == pytest.approx(200.0)
    assert snap["events_processed"] > 0

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = write_bench_json("unit_test", wall_clock_s=0.25,
                            extra={"scale": "tiny"})
    import json
    with open(path) as handle:
        payload = json.load(handle)
    assert path.endswith("BENCH_unit_test.json")
    assert payload["schema"] == "repro-bench-result/v1"
    assert payload["wall_clock_s"] == 0.25
    assert payload["cluster_runs"] == 2
    assert payload["simulated_us"] == pytest.approx(200.0)
    assert payload["scale"] == "tiny"
    TELEMETRY.reset()


def test_hierarchical_bench_module_tiny(figure_table):
    """Smoke-test the hierarchical machine sweep below its smallest scale."""
    table = figure_table("hierarchical_machines", num_ranks=8)
    machines = {row["label"] for row in table.rows}
    assert machines == set(MACHINE_SWEEP)
    for row in table.rows:
        assert row["time_ms"] > 0
    # Hierarchy ordering on the sort workload.
    times = {m: table.lookup("time_ms", label=m, operation="jquick")
             for m in MACHINE_SWEEP}
    assert times["single-node"] <= times["multi-node"] <= times["multi-island"]
