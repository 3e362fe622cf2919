"""Declarative experiment orchestration over the simulator.

The paper's evaluation is a matrix — algorithms x payload sizes x rank
counts x machine models x MPI baselines.  This package turns the simulator,
the cost-model presets and the vendor models into an arbitrary-scenario
machine:

* :mod:`~repro.experiments.spec` — validated :class:`Scenario` cells and
  :class:`ExperimentSpec` grids (TOML/JSON or programmatic), with stable
  content-hash scenario IDs;
* :mod:`~repro.experiments.figures` — the paper's Fig. 4-9 and the machine
  sweep as specs, ``figure_spec(name, scale)``;
* :mod:`~repro.experiments.runner` — parallel scenario execution with
  per-scenario failure capture and :class:`~repro.bench.harness.BenchTelemetry`
  routing;
* :mod:`~repro.experiments.cache` — an on-disk result store keyed by
  scenario hash + code fingerprint, so unchanged re-runs are incremental;
* :mod:`~repro.experiments.aggregate` — figure-grade tables
  (max-over-ranks, mean-over-repetitions) compatible with
  :mod:`repro.bench.tables`, plus CSV export;
* :mod:`~repro.experiments.cli` — ``python -m repro.experiments
  run/list/show`` over spec files and shipped spec names (the figures at
  every scale, the fig4/fig8/fig9 machine grids).
"""

from .aggregate import RESULT_COLUMNS, aggregate_results, write_csv, write_results_json
from .cache import ResultCache, code_fingerprint, default_cache_dir
from .figures import figure_spec
from .runner import ExperimentRun, ScenarioResult, execute_scenario, run_scenarios, run_spec
from .spec import (
    SCENARIO_KINDS,
    ExperimentSpec,
    Grid,
    Scenario,
    build_placement,
    shipped_spec_names,
    shipped_spec_path,
)

__all__ = [
    "RESULT_COLUMNS",
    "SCENARIO_KINDS",
    "ExperimentRun",
    "ExperimentSpec",
    "Grid",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "aggregate_results",
    "build_placement",
    "code_fingerprint",
    "default_cache_dir",
    "execute_scenario",
    "figure_spec",
    "run_scenarios",
    "run_spec",
    "shipped_spec_names",
    "shipped_spec_path",
    "write_csv",
    "write_results_json",
]
