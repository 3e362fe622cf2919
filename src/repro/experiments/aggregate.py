"""Figure-grade aggregation of sweep results.

Turns a stream of :class:`~repro.experiments.runner.ScenarioResult` objects
into the paper's statistics — per scenario the *max over ranks* is taken
inside the simulation and the *mean over repetitions/seeds* here — and emits
them as :class:`repro.bench.tables.Table` rows (the container the figure
benches look their cells up in), plus CSV for external plotting tools.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable, Optional, Sequence

from ..bench.tables import Table
from .runner import ScenarioResult

__all__ = ["RESULT_COLUMNS", "COMPARE_METRICS", "aggregate_results",
           "compare_result_sets", "load_results_json", "write_csv",
           "write_results_json"]

#: Default column set of an aggregate table: the scenario coordinates the
#: paper's figures index by, then the timing statistics.
RESULT_COLUMNS = (
    "scenario_id", "label", "kind", "machine", "num_ranks", "operation",
    "impl", "vendor", "n_per_proc", "num_bcasts", "time_ms", "min_ms",
    "max_ms", "repetitions", "messages", "simulated_us", "status",
)


def _coordinates(scenario) -> dict:
    """The kind's own fields under the table's shared column names."""
    if scenario.kind == "collective":
        return dict(operation=scenario.operation, impl=scenario.impl,
                    n_per_proc=scenario.words)
    if scenario.kind == "jquick":
        return dict(operation="jquick", impl=scenario.impl,
                    n_per_proc=scenario.n_per_proc)
    coordinates = dict(operation=scenario.operation, impl=scenario.method)
    if scenario.operation == "range_bcast":
        coordinates.update(n_per_proc=scenario.words,
                           num_bcasts=scenario.num_bcasts)
    return coordinates


def _row_of(result: ScenarioResult) -> dict:
    scenario = result.scenario
    row = _coordinates(scenario)
    row.update({
        "scenario_id": scenario.scenario_id,
        "label": scenario.label if scenario.label is not None
        else f"{row['impl']}/{scenario.vendor}",
        "kind": scenario.kind,
        "machine": scenario.machine,
        "num_ranks": scenario.num_ranks,
        "vendor": scenario.vendor,
        "repetitions": scenario.repetitions,
        "status": "failed" if not result.ok
        else ("cached" if result.cached else "ok"),
        "simulated_us": result.telemetry.get("simulated_us"),
    })
    if result.ok:
        measurement = result.measurement()
        row.update(time_ms=measurement.mean_ms, min_ms=measurement.min_ms,
                   max_ms=measurement.max_ms, messages=measurement.messages)
    else:
        row.update(time_ms=None, min_ms=None, max_ms=None, messages=None)
    return row


def aggregate_results(results: Iterable[ScenarioResult], *,
                      title: str = "Experiment sweep",
                      columns: Sequence[str] = RESULT_COLUMNS,
                      notes: Optional[Sequence[str]] = None) -> Table:
    """One table row per scenario (max-over-ranks, mean-over-repetitions)."""
    table = Table(title=title, columns=list(columns))
    for result in results:
        row = _row_of(result)
        table.add_row(**{column: row.get(column) for column in columns})
    for note in notes or ():
        table.add_note(note)
    return table


def write_csv(table: Table, path: str) -> str:
    """Write ``table`` as CSV (empty cells for None); returns ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(table.columns),
                                extrasaction="ignore", restval="")
        writer.writeheader()
        for row in table.rows:
            writer.writerow({key: ("" if value is None else value)
                             for key, value in row.items()
                             if key in table.columns})
    return path


# ---------------------------------------------------------------------------
# Result-set comparison (``python -m repro.experiments compare``).
# ---------------------------------------------------------------------------

#: Metrics the comparison reports per scenario, in column order.
COMPARE_METRICS = ("time_ms", "simulated_us", "messages")


def load_results_json(path: str) -> list[dict]:
    """Load a ``<spec>_results.json`` archive back into raw result dicts."""
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON array of scenario results")
    return entries


def _compare_metrics_of(entry: dict) -> dict:
    """The comparable metrics of one archived scenario result."""
    durations = entry.get("durations_us") or ()
    telemetry = entry.get("telemetry") or {}
    return {
        "time_ms": (sum(durations) / len(durations)) / 1000.0
        if durations else None,
        "simulated_us": telemetry.get("simulated_us"),
        "messages": entry.get("messages"),
    }


def _ratio(base, new):
    if base is None or new is None:
        return None
    if base == 0:
        return None if new != 0 else 1.0
    return new / base


def compare_result_sets(baseline: Sequence[dict], candidate: Sequence[dict], *,
                        title: str = "Result-set comparison",
                        metrics: Sequence[str] = COMPARE_METRICS) -> Table:
    """Cell-by-cell ratio table between two archived result sets.

    Scenarios are matched by ``scenario_id``; each row carries the baseline
    value, the candidate value and their ratio (candidate / baseline) for
    every metric.  Scenarios present on only one side are kept with status
    ``missing-baseline`` / ``missing-candidate`` so drift in the scenario
    grid itself is visible, and failed runs are flagged rather than silently
    compared.
    """
    columns = ["scenario_id"]
    for metric in metrics:
        columns += [f"{metric}_base", f"{metric}_new", f"{metric}_ratio"]
    columns.append("status")
    table = Table(title=title, columns=columns)

    base_by_id = {entry["scenario_id"]: entry for entry in baseline}
    cand_by_id = {entry["scenario_id"]: entry for entry in candidate}
    ordered = list(base_by_id)
    ordered += [sid for sid in cand_by_id if sid not in base_by_id]

    for scenario_id in ordered:
        base = base_by_id.get(scenario_id)
        cand = cand_by_id.get(scenario_id)
        row: dict = {"scenario_id": scenario_id}
        base_metrics = _compare_metrics_of(base) if base is not None else {}
        cand_metrics = _compare_metrics_of(cand) if cand is not None else {}
        for metric in metrics:
            b = base_metrics.get(metric)
            n = cand_metrics.get(metric)
            row[f"{metric}_base"] = b
            row[f"{metric}_new"] = n
            row[f"{metric}_ratio"] = _ratio(b, n)
        if base is None:
            row["status"] = "missing-baseline"
        elif cand is None:
            row["status"] = "missing-candidate"
        elif base.get("error") or cand.get("error"):
            row["status"] = "failed"
        else:
            row["status"] = "ok"
        table.add_row(**row)
    return table


def write_results_json(results: Sequence[ScenarioResult], path: str) -> str:
    """Archive the raw per-scenario results (timings, telemetry, errors)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump([result.to_dict() for result in results], handle,
                  indent=2, default=str)
        handle.write("\n")
    return path
