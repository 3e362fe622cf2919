"""Regression tests for the trajectory gate (``benchmarks/check_trajectory.py``).

The gate must fail hard on an ungated bench: a fresh ``BENCH_*.json`` with no
committed baseline, and a committed baseline whose benchmark no longer exists
in any ``bench_*.py`` (deleted/renamed bench).  Both used to be silently
skipped, which let new benchmarks ship without a perf gate.
"""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "benchmarks", "check_trajectory.py")


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("check_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bench_json(directory, name, **overrides):
    payload = {"schema": "repro-bench-result/v1", "name": name,
               "wall_clock_s": 1.0, "simulated_us": 123.0,
               "events_processed": 10, "scale": "tiny"}
    payload.update(overrides)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


@pytest.fixture
def dirs(tmp_path):
    results = tmp_path / "bench_results"
    baselines = tmp_path / "baselines"
    bench_dir = tmp_path / "benches"
    for d in (results, baselines, bench_dir):
        d.mkdir()
    (bench_dir / "bench_alpha.py").write_text(
        "def test_alpha(benchmark, scale):\n    pass\n"
        "def test_alpha_extra(benchmark, scale):\n    pass\n")
    return results, baselines, bench_dir


def _argv(results, baselines, bench_dir, *extra):
    return ["--results", str(results), "--baselines", str(baselines),
            "--bench-dir", str(bench_dir), *extra]


def test_matching_results_pass(trajectory, dirs):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0


def test_simulated_us_drift_fails(trajectory, dirs):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha", simulated_us=124.0)
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1


def test_messages_sent_drift_fails(trajectory, dirs, capsys):
    """A lower event count is a STALE baseline; another message count is a
    different schedule, whatever ``simulated_us`` reads."""
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha", events_processed=8,
                      messages_sent=41)
    _write_bench_json(baselines, "test_alpha", messages_sent=42)
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    assert "messages_sent changed: 41 != baseline 42" in capsys.readouterr().err


@pytest.mark.parametrize("fresh_events", [8, 12])
def test_events_drift_within_bounds_passes_but_is_called_stale(
        trajectory, dirs, capsys, fresh_events):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha", events_processed=fresh_events)
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0
    out = capsys.readouterr().out
    assert f"STALE BENCH_test_alpha.json: events_processed {fresh_events} " \
        "!= baseline 10" in out
    assert "OK    BENCH_test_alpha.json" in out


def test_equal_events_and_growth_past_the_ratio_are_not_stale(
        trajectory, dirs, capsys):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0
    _write_bench_json(results, "test_alpha", events_processed=13)
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    assert "STALE" not in capsys.readouterr().out


def test_fresh_result_without_baseline_fails(trajectory, dirs, capsys):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(results, "test_alpha_extra")
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    err = capsys.readouterr().err
    assert "test_alpha_extra" in err
    assert "--rebaseline" in err


def test_orphaned_baseline_fails(trajectory, dirs, capsys):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(baselines, "test_alpha")
    _write_bench_json(baselines, "test_deleted_bench")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    err = capsys.readouterr().err
    assert "test_deleted_bench" in err
    assert "orphaned" in err


def test_not_rerun_baseline_skips(trajectory, dirs):
    """A baseline whose bench exists but was not rerun stays a SKIP (CI only
    regenerates a subset of the suite)."""
    results, baselines, bench_dir = dirs
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--require-all")) == 1


def test_parametrized_bench_names_are_not_orphans(trajectory, dirs):
    """``test_alpha[small]`` is sanitised to ``test_alpha_small_`` by the
    bench conftest; it must map back to ``test_alpha``."""
    results, baselines, bench_dir = dirs
    _write_bench_json(baselines, "test_alpha_small_")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0


def test_empty_bench_dir_refuses_instead_of_orphaning_everything(
        trajectory, dirs, tmp_path, capsys):
    """Regression: with zero collected tests every file would look orphaned —
    a mistyped --bench-dir must refuse, not mass-delete baselines."""
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    baseline = _write_bench_json(baselines, "test_alpha")
    empty = tmp_path / "no-benches-here"
    empty.mkdir()
    assert trajectory.main(_argv(results, baselines, empty)) == 1
    assert trajectory.main(_argv(results, baselines, empty,
                                 "--rebaseline")) == 1
    assert os.path.exists(baseline)
    assert "refusing" in capsys.readouterr().err


def test_rebaseline_adopts_new_and_drops_orphans(trajectory, dirs):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha", simulated_us=999.0)
    _write_bench_json(results, "test_alpha_extra")
    _write_bench_json(baselines, "test_alpha")
    orphan = _write_bench_json(baselines, "test_deleted_bench")
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--rebaseline")) == 0
    assert not os.path.exists(orphan)
    with open(os.path.join(baselines, "BENCH_test_alpha.json")) as handle:
        assert json.load(handle)["simulated_us"] == 999.0
    assert os.path.exists(os.path.join(baselines,
                                       "BENCH_test_alpha_extra.json"))
    # After the rebaseline the gate passes again.
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0


def test_rebaseline_drops_orphan_even_with_stale_fresh_result(trajectory, dirs):
    """Regression: a renamed bench can leave BOTH a stale fresh result and an
    orphaned baseline behind; --rebaseline must still drop the baseline (and
    not adopt the stale fresh file), or the gate fails forever."""
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(results, "test_deleted_bench")
    _write_bench_json(baselines, "test_alpha")
    orphan = _write_bench_json(baselines, "test_deleted_bench")
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--rebaseline")) == 0
    assert not os.path.exists(orphan)
    # The stale fresh file is dropped too, so the gate passes right away.
    assert not os.path.exists(
        os.path.join(results, "BENCH_test_deleted_bench.json"))
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 0


def test_rebaseline_does_not_adopt_orphaned_fresh(trajectory, dirs):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_stale_deleted")
    _write_bench_json(results, "test_alpha")
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--rebaseline")) == 0
    assert not os.path.exists(
        os.path.join(baselines, "BENCH_test_stale_deleted.json"))
    # The stale fresh file itself is deleted, not adopted.
    assert not os.path.exists(
        os.path.join(results, "BENCH_test_stale_deleted.json"))


def test_stale_fresh_result_fails_with_cleanup_hint(trajectory, dirs, capsys):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(results, "test_stale_deleted")
    _write_bench_json(baselines, "test_alpha")
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    err = capsys.readouterr().err
    assert "stale fresh result" in err


# ---------------------------------------------------------------------------
# --scale: CI runs the tiny sweep and the paper-scale gate as separate
# passes, each ignoring the other's files entirely.
# ---------------------------------------------------------------------------

def test_scale_filter_ignores_other_scales(trajectory, dirs):
    """A paper-scale fresh result without a baseline must not fail the tiny
    pass (and vice versa); the --scale filter drops the files outright."""
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")
    _write_bench_json(baselines, "test_alpha")
    _write_bench_json(results, "test_alpha_extra", scale="paper")
    # Unfiltered: the paper file has no baseline -> hard failure.
    assert trajectory.main(_argv(results, baselines, bench_dir)) == 1
    # Tiny pass: the paper file is invisible.
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--scale", "tiny")) == 0
    # Paper pass: now only the paper file is checked (and still ungated).
    assert trajectory.main(
        _argv(results, baselines, bench_dir, "--scale", "paper")) == 1


def test_scale_filter_with_require_all(trajectory, dirs):
    """--require-all only demands fresh results for baselines of the
    selected scale."""
    results, baselines, bench_dir = dirs
    _write_bench_json(baselines, "test_alpha")                  # tiny
    _write_bench_json(baselines, "test_alpha_extra", scale="paper")
    _write_bench_json(results, "test_alpha_extra", scale="paper")
    assert trajectory.main(
        _argv(results, baselines, bench_dir,
              "--scale", "paper", "--require-all")) == 0
    assert trajectory.main(
        _argv(results, baselines, bench_dir,
              "--scale", "tiny", "--require-all")) == 1


def test_scale_filtered_rebaseline_only_adopts_that_scale(trajectory, dirs):
    results, baselines, bench_dir = dirs
    _write_bench_json(results, "test_alpha")                    # tiny
    _write_bench_json(results, "test_alpha_extra", scale="paper",
                      simulated_us=999.0)
    assert trajectory.main(
        _argv(results, baselines, bench_dir,
              "--rebaseline", "--scale", "paper")) == 0
    assert not os.path.exists(
        os.path.join(baselines, "BENCH_test_alpha.json"))
    adopted = os.path.join(baselines, "BENCH_test_alpha_extra.json")
    assert os.path.exists(adopted)
    with open(adopted) as handle:
        assert json.load(handle)["simulated_us"] == 999.0
