"""Aggregation tables, CSV export and the ``python -m repro.experiments`` CLI."""

import csv
import json
import os

import pytest

from repro.bench.tables import Table
from repro.experiments import (
    RESULT_COLUMNS,
    Scenario,
    aggregate_results,
    execute_scenario,
    write_csv,
)
from repro.experiments.cli import main


def _results():
    good = execute_scenario(Scenario.from_dict(dict(
        kind="collective", operation="bcast", impl="rbc", vendor="generic",
        num_ranks=8, words=16, repetitions=2, label="RBC bcast")))
    bad = execute_scenario(Scenario(machine="missing"))
    return [good, bad]


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def test_aggregate_results_is_a_bench_table():
    results = _results()
    table = aggregate_results(results, title="sweep", notes=["a note"])
    assert isinstance(table, Table)
    assert list(table.columns) == list(RESULT_COLUMNS)
    assert len(table.rows) == 2

    good_row, bad_row = table.rows
    assert good_row["label"] == "RBC bcast"
    assert good_row["status"] == "ok"
    assert good_row["time_ms"] == results[0].time_ms
    assert good_row["n_per_proc"] == 16
    assert good_row["repetitions"] == 2
    assert good_row["simulated_us"] > 0

    assert bad_row["status"] == "failed"
    assert bad_row["time_ms"] is None
    assert "failed" in table.to_text()  # renders despite the None cells


def test_aggregate_custom_columns():
    table = aggregate_results(_results()[:1],
                              columns=("machine", "time_ms"))
    assert list(table.columns) == ["machine", "time_ms"]
    assert set(table.rows[0]) == {"machine", "time_ms"}


def test_write_csv_round_trip(tmp_path):
    table = aggregate_results(_results())
    path = write_csv(table, str(tmp_path / "out.csv"))
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["time_ms"]) == table.rows[0]["time_ms"]
    assert rows[1]["time_ms"] == ""  # None -> empty cell


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_list_and_show(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4_grid" in out and "smoke" in out

    assert main(["show", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "4 scenario(s)" in out


def test_cli_run_smoke_twice_hits_cache(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    cache_dir = str(tmp_path / "cache")
    argv = ["run", "smoke", "--workers", "2", "--out", out_dir,
            "--cache-dir", cache_dir]

    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "4 executed, 0 cached, 0 failed" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 executed, 4 cached, 0 failed" in second

    for artifact in ("smoke.txt", "smoke.json", "smoke.csv",
                     "smoke_results.json", "BENCH_smoke.json"):
        assert os.path.exists(os.path.join(out_dir, artifact)), artifact

    with open(os.path.join(out_dir, "BENCH_smoke.json")) as handle:
        bench = json.load(handle)
    assert bench["schema"] == "repro-bench-result/v1"
    assert bench["scenarios"] == 4
    # The second (fully cached) run executed no fresh simulation.
    assert bench["cluster_runs"] == 0 and bench["cached_scenarios"] == 4

    with open(os.path.join(out_dir, "smoke_results.json")) as handle:
        results = json.load(handle)
    assert len(results) == 4 and all(r["cached"] for r in results)


def test_cli_set_overrides_and_no_cache(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "smoke", "--no-cache", "--out", out_dir,
                 "--set", "num_ranks=8", "--set", "words=[4]"]) == 0
    out = capsys.readouterr().out
    assert "2 scenario(s) — 2 executed" in out  # words axis collapsed
    assert "p=8" in out


def test_cli_run_reports_failures_with_nonzero_exit(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({
        "name": "bad",
        "grid": [{"fixed": {"kind": "collective", "num_ranks": 4,
                            "impl": "rbc", "vendor": "generic",
                            "operation": "bcast"},
                  "axes": {"words": [8]}}],
    }))
    # Valid spec, but the runtime fails: patch in an unknown machine after
    # validation by pointing the spec at a machine preset that exists only
    # in the file system of another build.  Simpler: an invalid spec file
    # fails at expansion with a SystemExit-free ValueError.
    bad = json.loads(spec_path.read_text())
    bad["grid"][0]["fixed"]["machine"] = "warp_drive"
    spec_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="machine preset"):
        main(["run", str(spec_path), "--no-cache",
              "--out", str(tmp_path / "out")])


def test_cli_show_trace_after_untraced_run_and_on_a_broken_artifact(tmp_path,
                                                                   capsys):
    run = ["run", "smoke", "--out", str(tmp_path / "out"),
           "--cache-dir", str(tmp_path / "cache")]
    show = ["show", "smoke", "--trace", "--cache-dir", str(tmp_path / "cache")]
    assert main(run) == 0
    assert main(show) == 0
    assert "4 scenario(s) have no trace artifact" in capsys.readouterr().out

    # The results are cached, the traces are not: --trace re-runs them.
    assert main(run + ["--trace"]) == 0
    assert "4 executed, 0 cached" in capsys.readouterr().out
    assert main(show) == 0
    out = capsys.readouterr().out
    assert out.count("critical path") == 4 and "no trace artifact" not in out

    fingerprint_dir, = (tmp_path / "cache").iterdir()
    broken = sorted(fingerprint_dir.glob("*.trace.jsonl"))[0]
    broken.write_text(broken.read_text()[:-40])
    assert main(show) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "TraceFormatError" in line]
    assert len(lines) == 1 and str(broken) in lines[0]


def test_cli_unknown_spec_name_exits():
    with pytest.raises(SystemExit):
        main(["run", "no_such_spec"])
    with pytest.raises(SystemExit, match="field=value"):
        main(["run", "smoke", "--set", "oops"])


# ---------------------------------------------------------------------------
# compare: cell-by-cell ratio tables between two archived result sets.
# ---------------------------------------------------------------------------

def _archived(scenario_id, durations_us=(1000.0,), messages=10,
              simulated_us=500.0, error=None):
    return {
        "scenario_id": scenario_id,
        "scenario": {},
        "durations_us": list(durations_us),
        "messages": messages,
        "telemetry": {"simulated_us": simulated_us},
        "wall_clock_s": 0.1,
        "error": error,
        "cached": False,
    }


def test_compare_result_sets_ratios():
    from repro.experiments.aggregate import compare_result_sets

    baseline = [_archived("aaa"), _archived("bbb", durations_us=(2000.0,))]
    candidate = [_archived("aaa", durations_us=(2000.0,), messages=20,
                           simulated_us=250.0),
                 _archived("bbb", durations_us=(2000.0,))]
    table = compare_result_sets(baseline, candidate)
    row_a, row_b = table.rows
    assert row_a["scenario_id"] == "aaa" and row_a["status"] == "ok"
    assert row_a["time_ms_base"] == 1.0 and row_a["time_ms_new"] == 2.0
    assert row_a["time_ms_ratio"] == 2.0
    assert row_a["simulated_us_ratio"] == 0.5
    assert row_a["messages_ratio"] == 2.0
    assert row_b["time_ms_ratio"] == 1.0 and row_b["status"] == "ok"


def test_compare_result_sets_flags_mismatches():
    from repro.experiments.aggregate import compare_result_sets

    baseline = [_archived("only-base"), _archived("both"),
                _archived("broken", error="boom")]
    candidate = [_archived("both"), _archived("only-cand"),
                 _archived("broken")]
    table = compare_result_sets(baseline, candidate)
    status = {row["scenario_id"]: row["status"] for row in table.rows}
    assert status == {"only-base": "missing-candidate", "both": "ok",
                      "broken": "failed", "only-cand": "missing-baseline"}
    # Baseline order first, then candidate-only scenarios.
    assert [row["scenario_id"] for row in table.rows] \
        == ["only-base", "both", "broken", "only-cand"]


def _write_archive(path, entries):
    with open(path, "w") as handle:
        json.dump(entries, handle)
    return str(path)


def test_cli_compare_matching_sets(tmp_path, capsys):
    base = _write_archive(tmp_path / "base.json",
                          [_archived("aaa"), _archived("bbb")])
    cand = _write_archive(tmp_path / "cand.json",
                          [_archived("aaa"), _archived("bbb")])
    out_dir = str(tmp_path / "cmp")
    assert main(["compare", base, cand, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "aaa" in out and "bbb" in out
    for artifact in ("compare.txt", "compare.json", "compare.csv"):
        assert os.path.exists(os.path.join(out_dir, artifact)), artifact
    with open(os.path.join(out_dir, "compare.csv"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert all(float(row["time_ms_ratio"]) == 1.0 for row in rows)


def test_cli_compare_fail_above_gate(tmp_path, capsys):
    base = _write_archive(tmp_path / "base.json", [_archived("aaa")])
    cand = _write_archive(tmp_path / "cand.json",
                          [_archived("aaa", durations_us=(3000.0,))])
    assert main(["compare", base, cand]) == 0
    capsys.readouterr()
    assert main(["compare", base, cand, "--fail-above", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "3.000" in err


def test_cli_compare_unmatched_scenarios_exit_nonzero(tmp_path, capsys):
    base = _write_archive(tmp_path / "base.json", [_archived("aaa")])
    cand = _write_archive(tmp_path / "cand.json", [_archived("zzz")])
    assert main(["compare", base, cand]) == 1
    err = capsys.readouterr().err
    assert "missing-candidate" in err and "missing-baseline" in err


def test_cli_compare_rejects_malformed_archive(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    good = _write_archive(tmp_path / "good.json", [_archived("aaa")])
    with pytest.raises(SystemExit, match="expected a JSON array"):
        main(["compare", str(bad), good])
    with pytest.raises(SystemExit):
        main(["compare", str(tmp_path / "missing.json"), good])
