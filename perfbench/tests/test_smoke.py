"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs every workload at its warm-up shape (rank counts / 8), the whole
measuring process once on a shrunken workload, and checks that the names it
prints are the names ``BENCHMARK.json`` promises.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time

import pytest

from repro.simulator.cluster import add_run_observer, remove_run_observer

from perfbench import child, cli, metrics, spans, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def collector():
    sink = workloads.SimCollector()
    add_run_observer(sink)
    yield sink
    remove_run_observer(sink)


def _warmup(name, collector, seed=1000):
    cells = workloads.WORKLOADS[name].cells(workloads.WARMUP_SHRINK)
    return cells, workloads.run_pass(
        cells, workloads.make_inputs(cells, seed), collector)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_warmup_pass_has_no_failures(name, collector):
    _cells, results = _warmup(name, collector)
    attempted, failed, reasons = child.judge(results, [], None)
    assert attempted >= 1
    assert failed == 0, reasons


def test_benchmark_json_matches_the_code():
    with open(os.path.join(cli.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perfbench"]
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert manifest["run_seconds"] == metrics.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(name, w.why) for name, w in workloads.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == metrics.PER_LAYER
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[kind]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_measuring_process_prints_every_named_metric(monkeypatch, capsys,
                                                     tmp_path):
    # The whole child, traced mode, on sort_janus with its timed shape
    # replaced by the warm-up shape (seed 7 is not pinned).
    full = workloads.WORKLOADS["sort_janus"]
    monkeypatch.setitem(
        workloads.WORKLOADS, "sort_janus", dataclasses.replace(
            full, cells=lambda shrink: full.cells(workloads.WARMUP_SHRINK)))
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    assert child.main(["--workload", "sort_janus", "--seed", "7",
                       "--seconds", "0", "--mode", "traced"]) == 0
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert document["failed"] == 0 and document["attempted"] >= 1
    assert document["pinned"] is False
    assert len(document["passes"]) == child.MIN_PASSES
    assert list(document["end_to_end"]) == [m[0] for m in metrics.END_TO_END]
    assert list(document["per_layer"]) == [m[0] for m in metrics.PER_LAYER]
    assert all(value > 0 for value in document["end_to_end"].values())
    # The bypass design, and the span bookkeeping: self times telescope to
    # the independently measured wall of the traced pass.
    assert document["per_layer"]["sorting.batched.levels"] == 0
    assert document["per_layer"]["obs.spans"] == 0
    assert document["spans_self_s"] == pytest.approx(
        document["traced_wall_s"], rel=0.02)


def test_corrupted_pin_counts_as_failed(collector):
    _cells, results = _warmup("comm_create", collector)
    pins = {cell.key: cell.signatures() for cell in results}
    assert child.judge([], [results], pins)[1] == 0
    pins["fig5_intel_split"] = [["0x1.0p+0", "0x1.0p+0", 1]]
    attempted, failed, reasons = child.judge([], [results], pins)
    assert failed == 1 and attempted == len(results)
    assert "differs from the pin" in reasons[0]


def test_unsorted_output_counts_as_failed(collector):
    cells = workloads.WORKLOADS["sort_batched"].cells(workloads.WARMUP_SHRINK)

    def unsorted(data, run=cells[0].run):
        result = run(data)
        result.results.reverse()
        return result

    cells = [dataclasses.replace(cells[0], run=unsorted)]
    results = workloads.run_pass(
        cells, workloads.make_inputs(cells, 1000), collector)
    attempted, failed, reasons = child.judge(results, [], None)
    assert (attempted, failed) == (1, 1)
    assert "not globally sorted" in reasons[0]


def test_span_self_times_sum_to_the_wall():
    recorder = spans.SpanRecorder()

    def leaf():
        time.sleep(0.002)

    hot_leaf = recorder.wrap("toy.leaf", leaf, hot=True)

    def middle():
        time.sleep(0.001)
        hot_leaf()
        hot_leaf()

    middle = recorder.wrap("toy.middle", middle)

    def root():
        middle()
        time.sleep(0.001)
        middle()

    start = time.perf_counter()
    recorder.wrap("toy.root", root)()
    wall = time.perf_counter() - start
    assert recorder.count("toy.leaf") == 4 and recorder.count("toy.middle") == 2
    assert recorder.total_self_s() == pytest.approx(wall, rel=0.02)
    assert recorder.self_s("toy.leaf") >= 0.008
    assert recorder.self_s("toy.root") < recorder.stats["toy.root"][1]
    # Cold spans keep their parent; hot ones only the accumulators.
    cold = [span[0] for span in recorder.spans]
    assert cold == ["toy.root", "toy.middle", "toy.middle"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 0]
