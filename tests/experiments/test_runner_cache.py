"""Runner + cache: equivalence with direct cluster runs, parallelism,
failure capture, incremental re-runs."""

import pytest

from repro.bench.harness import TELEMETRY, Measurement, collective_program
from repro.experiments import (
    ExperimentSpec,
    Grid,
    ResultCache,
    Scenario,
    execute_scenario,
    figure_spec,
    run_scenarios,
    run_spec,
)
from repro.obs import JSONL_SCHEMA, TraceFormatError, critical_path, load_jsonl
from repro.simulator import Cluster, machine_preset


def _collective(machine="flat", words=16, **overrides):
    config = dict(kind="collective", machine=machine, operation="scan",
                  impl="rbc", vendor="ibm", words=words, num_ranks=16,
                  repetitions=2)
    config.update(overrides)
    return Scenario.from_dict(config)


# ---------------------------------------------------------------------------
# Single-scenario execution.
# ---------------------------------------------------------------------------

def _direct_durations(scenario):
    """Max-over-ranks duration of ``scenario``'s collective per repetition,
    straight from ``Cluster.run`` (no runner, no harness)."""
    durations = []
    for _ in range(scenario.repetitions):
        result = Cluster(scenario.num_ranks,
                         machine_preset(scenario.machine)).run(
            collective_program, operation=scenario.operation,
            impl=scenario.impl, vendor=scenario.vendor, words=scenario.words)
        durations.append(max(result.results))
    return tuple(durations)


def test_collective_scenario_matches_hand_written_bench():
    """A flat scenario cell is exactly the max over ranks of a direct run
    of the collective program, once per repetition."""
    scenario = _collective()
    result = execute_scenario(scenario)
    assert result.ok

    expected = _direct_durations(scenario)
    assert result.durations_us == expected
    assert result.time_ms == Measurement.from_samples(expected).mean_ms


def test_hierarchical_machine_cell_matches_direct_run():
    scenario = _collective(machine="fat_tree", words=256)
    result = execute_scenario(scenario)
    assert result.durations_us == _direct_durations(scenario)


def test_scenario_telemetry_counts_only_its_own_runs():
    result = execute_scenario(_collective())
    assert result.telemetry["cluster_runs"] == 2  # one per repetition
    assert result.telemetry["simulated_us"] > 0
    assert result.telemetry["events_processed"] > 0


def test_jquick_scenario_is_deterministic():
    scenario = Scenario.from_dict(dict(
        kind="jquick", machine="two_tier", impl="rbc", vendor="generic",
        num_ranks=8, n_per_proc=32, repetitions=2, seed=11))
    first = execute_scenario(scenario)
    second = execute_scenario(scenario)
    assert first.ok, first.error
    assert first.durations_us == second.durations_us
    assert first.durations_us[0] != first.durations_us[1]  # per-rep seeds


def test_failures_are_captured_not_raised():
    broken = Scenario(machine="not-a-machine")  # bypasses from_dict validation
    result = execute_scenario(broken)
    assert not result.ok
    assert "not-a-machine" in result.error
    with pytest.raises(RuntimeError, match="failed"):
        result.measurement()


def test_parallel_run_captures_failures_like_the_serial_path():
    """One invalid scenario must not abort the pool or lose other results."""
    scenarios = [Scenario(machine="not-a-machine"), _collective()]
    serial = list(run_scenarios(scenarios, workers=1))
    parallel = list(run_scenarios(scenarios, workers=2))
    for results in (serial, parallel):
        assert [r.ok for r in results] == [False, True]
        assert "not-a-machine" in results[0].error
    assert serial[1].durations_us == parallel[1].durations_us


# ---------------------------------------------------------------------------
# Sweeps: ordering, parallelism, telemetry routing.
# ---------------------------------------------------------------------------

def _mini_spec():
    return ExperimentSpec(name="mini", grids=[Grid(
        fixed=dict(kind="collective", operation="bcast", impl="rbc",
                   vendor="generic", num_ranks=16, repetitions=1),
        axes={"machine": ["flat", "fat_tree"], "words": [4, 64]},
    )])


def test_parallel_run_equals_serial_run():
    # The pool rebuilds a scenario from ``canonical()``, which has to carry
    # the comm_create fields (method, schedule, words, num_bcasts).
    fig6 = figure_spec("fig6_overlapping", "tiny").override(num_ranks=16)
    fig7 = figure_spec("fig7_range_bcast", "tiny").override(num_ranks=16,
                                                           words=[4])
    for spec in (_mini_spec(), fig6, fig7):
        serial = run_spec(spec, workers=1)
        parallel = run_spec(spec, workers=2)
        assert serial.failed == 0
        assert [r.scenario.scenario_id for r in serial.results] == \
            [r.scenario.scenario_id for r in parallel.results]
        assert [r.durations_us for r in serial.results] == \
            [r.durations_us for r in parallel.results]
        assert serial.telemetry().snapshot() == parallel.telemetry().snapshot()


def test_parallel_run_feeds_global_telemetry():
    """Worker-process simulations must land in the BENCH_*.json sink."""
    before = TELEMETRY.snapshot()
    run = run_spec(_mini_spec(), workers=2)
    after = TELEMETRY.snapshot()
    executed = run.telemetry().snapshot()
    assert executed["cluster_runs"] == 4
    assert after["cluster_runs"] - before["cluster_runs"] == 4
    assert after["simulated_us"] - before["simulated_us"] == \
        pytest.approx(executed["simulated_us"])


def test_progress_callback_sees_every_result():
    seen = []
    run_spec(_mini_spec(), progress=seen.append)
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# Cache.
# ---------------------------------------------------------------------------

def test_second_run_hits_cache_for_all_unchanged_scenarios(tmp_path):
    spec = _mini_spec()
    cache = ResultCache(str(tmp_path))
    first = run_spec(spec, cache=cache)
    assert (first.executed, first.cached) == (4, 0)

    second = run_spec(spec, cache=cache)
    assert (second.executed, second.cached) == (0, 4)
    assert [r.durations_us for r in first.results] == \
        [r.durations_us for r in second.results]
    # Cache hits ran no fresh simulation: the executed-telemetry is empty.
    assert second.telemetry().cluster_runs == 0

    forced = run_spec(spec, cache=cache, force=True)
    assert (forced.executed, forced.cached) == (4, 0)


def test_changed_scenario_misses_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_spec(_mini_spec(), cache=cache)
    grown = _mini_spec()
    grown.grids[0].axes["words"] = [4, 64, 256]
    rerun = run_spec(grown, cache=cache)
    assert (rerun.executed, rerun.cached) == (2, 4)


def test_code_fingerprint_partitions_the_cache(tmp_path):
    scenario = _collective()
    cache = ResultCache(str(tmp_path), fingerprint="aaaa")
    cache.put(execute_scenario(scenario))
    assert cache.get(scenario) is not None
    other_code = ResultCache(str(tmp_path), fingerprint="bbbb")
    assert other_code.get(scenario) is None
    assert cache.key(scenario).endswith("-aaaa")
    removed = other_code.prune()
    assert len(removed) == 1
    assert cache.get(scenario) is None


def test_cache_rejects_failed_results_and_tampered_entries(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="aaaa")
    failed = execute_scenario(Scenario(machine="nope"))
    with pytest.raises(ValueError, match="failed"):
        cache.put(failed)

    scenario = _collective()
    path = cache.put(execute_scenario(scenario))
    # A hand-edited entry whose stored scenario no longer matches is a miss.
    import json
    with open(path) as handle:
        data = json.load(handle)
    data["scenario"]["words"] = 999
    with open(path, "w") as handle:
        json.dump(data, handle)
    assert cache.get(scenario) is None


@pytest.mark.parametrize("blob", [b"[]", b'"x"', b"null", b"\xff\xfe\x00",
                                  b'{"scenario": {"kind": "coll'],
                         ids=["list", "string", "null", "not-utf8", "cut-off"])
def test_corrupt_cache_entry_is_a_miss_and_gets_overwritten(tmp_path, blob):
    """Valid JSON that is no object, bytes that are no UTF-8 and a cut-off
    entry are misses, not a crashed sweep: the scenario re-runs and its
    entry is rewritten."""
    spec = _mini_spec()
    cache = ResultCache(str(tmp_path))
    cold = run_spec(spec, cache=cache)
    scenario = cold.results[0].scenario
    with open(cache.path_for(scenario), "wb") as handle:
        handle.write(blob)
    assert cache.get(scenario) is None
    again = run_spec(spec, cache=cache)
    assert (again.executed, again.cached, again.failed) == (1, 3, 0)
    assert [r.durations_us for r in again.results] == \
        [r.durations_us for r in cold.results]
    assert cache.get(scenario).durations_us == cold.results[0].durations_us


def test_cached_results_marked_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    scenario = _collective()
    assert cache.get(scenario) is None
    fresh = execute_scenario(scenario)
    cache.put(fresh)
    assert not fresh.cached
    hit = cache.get(scenario)
    assert hit.cached and hit.durations_us == fresh.durations_us


def test_traced_run_after_untraced_run_writes_the_artifacts(tmp_path):
    """``run SPEC`` then ``run SPEC --trace``: the cached results carry no
    trace, so the traced sweep must re-run them, not serve four hits and
    leave ``show --trace`` with nothing to read."""
    spec = _mini_spec()
    cache = ResultCache(str(tmp_path))
    untraced = run_spec(spec, cache=cache)
    traced = run_spec(spec, cache=cache, trace=True)
    assert (traced.executed, traced.cached) == (4, 0)
    assert [r.durations_us for r in traced.results] == \
        [r.durations_us for r in untraced.results]
    for result in traced.results:
        trace = load_jsonl(cache.trace_path_for(result.scenario))
        assert critical_path(trace).total == trace.total_time

    warm = run_spec(spec, cache=cache, trace=True)
    assert (warm.executed, warm.cached) == (0, 4)
    # Untraced sweeps never look at the artifacts.
    assert run_spec(spec, cache=cache).cached == 4


@pytest.mark.parametrize("damage", ["cut mid-line", "cut at a line boundary",
                                    "another schema"])
def test_traced_hit_needs_a_complete_artifact(tmp_path, damage):
    spec = _mini_spec()
    cache = ResultCache(str(tmp_path))
    first = run_spec(spec, cache=cache, trace=True)
    victim = first.results[2].scenario
    path = cache.trace_path_for(victim)
    with open(path) as handle:
        text = handle.read()
    header, newline, tables = text.partition("\n")
    with open(path, "w") as handle:
        handle.write({"cut mid-line": text[:len(text) // 2],
                      "cut at a line boundary": header + newline,
                      "another schema": text.replace(JSONL_SCHEMA,
                                                     "repro-trace/v1", 1),
                      }[damage])
    assert not cache.has_trace(victim)
    with pytest.raises(TraceFormatError):
        load_jsonl(path)

    again = run_spec(spec, cache=cache, trace=True)
    assert [r.cached for r in again.results] == [True, True, False, True]
    with open(path) as handle:
        assert handle.read() == text


def test_cache_writes_go_through_a_rename(tmp_path, monkeypatch):
    """A write that dies half way leaves the previous entry (or nothing) in
    place and no temporary file behind."""
    cache = ResultCache(str(tmp_path), fingerprint="aaaa")
    scenario = _collective()
    result = execute_scenario(scenario)
    path = cache.put(result)
    with open(path) as handle:
        before = handle.read()

    import os

    def failing_replace(source, target):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.put(result)
    with pytest.raises(OSError, match="disk full"):
        cache.put_trace(scenario, "half a tra")
    monkeypatch.undo()

    with open(path) as handle:
        assert handle.read() == before
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
    assert not cache.has_trace(scenario)


# ---------------------------------------------------------------------------
# The acceptance grid: the shipped fig4 spec, downscaled.
# ---------------------------------------------------------------------------

def test_shipped_fig4_grid_runs_parallel_and_matches_single_config_cells():
    spec = ExperimentSpec.load("fig4_grid").override(num_ranks=16,
                                                    words=[1, 64])
    scenarios = spec.scenarios()
    assert len(scenarios) >= 12
    assert len({s.machine for s in scenarios}) >= 3

    run = run_spec(spec, workers=2)
    assert run.failed == 0

    # Overlapping cells (the flat machine) must reproduce the exact numbers
    # of the single-configuration fig4 bench path.
    flat = [r for r in run.results if r.scenario.machine == "flat"]
    assert flat
    for result in flat:
        assert result.durations_us == _direct_durations(result.scenario)
