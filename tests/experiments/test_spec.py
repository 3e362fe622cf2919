"""Scenario/ExperimentSpec model: validation, IDs, grids, spec files."""

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    Grid,
    Scenario,
    build_placement,
    shipped_spec_names,
)
from repro.simulator import MACHINE_PRESETS, HierarchicalParams, NetworkParams


def test_workloads_match_bench_registry():
    from repro.bench.workloads import WORKLOADS
    from repro.experiments.spec import _WORKLOADS

    assert set(_WORKLOADS) == set(WORKLOADS)


# ---------------------------------------------------------------------------
# Scenario validation.
# ---------------------------------------------------------------------------

def test_default_scenario_is_valid():
    Scenario().validate()


@pytest.mark.parametrize("overrides, match", [
    (dict(kind="mystery"), "scenario kind"),
    (dict(machine="supermuc2"), "machine preset"),
    (dict(num_ranks=0), "num_ranks"),
    (dict(repetitions=0), "repetitions"),
    (dict(impl="openmpi"), "impl"),
    (dict(vendor="cray"), "vendor"),
    (dict(operation="alltoall"), "operation"),
    (dict(words=-1), "words"),
    (dict(kind="jquick", num_ranks=12), "power-of-two"),
    (dict(kind="jquick", workload="lumpy"), "workload"),
    (dict(kind="jquick", schedule="eager"), "schedule"),
    (dict(placement={"kind": "spiral"}), "placement kind"),
    (dict(kind="comm_create"), "comm_create operation"),
    (dict(kind="comm_create", operation="split_halves", method="dup"),
     "method"),
    (dict(kind="comm_create", operation="overlapping", method="split"),
     "overlapping"),
    (dict(kind="comm_create", operation="overlapping", schedule="eager"),
     "schedule"),
    (dict(kind="comm_create", operation="range_bcast", words=-1), "words"),
    (dict(kind="comm_create", operation="range_bcast", num_bcasts=0),
     "num_bcasts"),
])
def test_invalid_scenarios_are_rejected(overrides, match):
    with pytest.raises(ValueError, match=match):
        Scenario(**overrides).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown scenario field"):
        Scenario.from_dict({"wordz": 4})


# ---------------------------------------------------------------------------
# Content-hash IDs.
# ---------------------------------------------------------------------------

def test_scenario_id_is_stable_and_content_addressed():
    a = Scenario(operation="scan", words=64)
    b = Scenario(operation="scan", words=64)
    c = Scenario(operation="scan", words=128)
    assert a.scenario_id == b.scenario_id
    assert a.scenario_id != c.scenario_id
    assert len(a.scenario_id) == 12
    int(a.scenario_id, 16)  # hex digest


def test_scenario_id_ignores_other_kinds_fields():
    """Collective IDs must not move when jquick-only defaults change."""
    a = Scenario(kind="collective", words=16)
    b = Scenario(kind="collective", words=16, n_per_proc=999,
                 workload="zipf", schedule="cascaded")
    assert a.scenario_id == b.scenario_id
    assert "n_per_proc" not in a.canonical()
    # ... nor when a comm_create-only field does.
    c = Scenario(kind="collective", words=16, method="split", num_bcasts=9)
    assert a.scenario_id == c.scenario_id
    assert {"method", "num_bcasts"} <= set(Scenario(
        kind="comm_create", operation="range_bcast").canonical())


def test_canonical_is_json_stable():
    scenario = Scenario(placement={"kind": "regular", "ranks_per_node": 4,
                                   "nodes_per_island": 2})
    payload = json.dumps(scenario.canonical(), sort_keys=True)
    assert json.loads(payload) == scenario.canonical()


# ---------------------------------------------------------------------------
# Machine/placement resolution.
# ---------------------------------------------------------------------------

def test_resolve_machine_uses_preset_table():
    params, placement = Scenario(machine="flat").resolve_machine()
    assert isinstance(params, NetworkParams)
    assert placement is None
    params, _ = Scenario(machine="dragonfly").resolve_machine()
    assert isinstance(params, HierarchicalParams)


def test_build_placement_kinds():
    assert build_placement(None, 8) is None
    single = build_placement({"kind": "single_node"}, 8)
    assert single.num_nodes() == 1
    regular = build_placement({"kind": "regular", "ranks_per_node": 2,
                               "nodes_per_island": 2}, 8)
    assert regular.num_nodes() == 4 and regular.num_islands() == 2
    cyclic = build_placement({"kind": "cyclic", "num_nodes": 4}, 8)
    assert cyclic.nodes[:5] == (0, 1, 2, 3, 0)


# ---------------------------------------------------------------------------
# Grid expansion.
# ---------------------------------------------------------------------------

def test_grid_expansion_is_row_major_and_merges_mapping_axes():
    grid = Grid(
        fixed=dict(kind="collective", operation="scan", num_ranks=8),
        axes={
            "impl": [dict(impl="rbc", vendor="ibm", label="RBC"),
                     dict(impl="mpi", vendor="intel", label="Intel")],
            "words": [1, 2],
        },
    )
    scenarios = grid.expand()
    assert [(s.label, s.words) for s in scenarios] == [
        ("RBC", 1), ("RBC", 2), ("Intel", 1), ("Intel", 2)]
    assert scenarios[2].vendor == "intel"


def test_grid_rejects_empty_axis():
    with pytest.raises(ValueError, match="non-empty list"):
        Grid(axes={"words": []}).expand()


def test_spec_rejects_duplicate_scenarios():
    grid = Grid(fixed=dict(num_ranks=8), axes={"words": [1, 1]})
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentSpec(name="dup", grids=[grid]).scenarios()


def test_override_pins_field_and_drops_axis():
    grid = Grid(fixed=dict(operation="scan"),
                axes={"num_ranks": [8, 16], "words": [1, 2]})
    spec = ExperimentSpec(name="s", grids=[grid]).override(num_ranks=4)
    scenarios = spec.scenarios()
    assert len(scenarios) == 2
    assert {s.num_ranks for s in scenarios} == {4}


def test_override_wins_over_mapping_axes():
    """A pinned field must not be shadowed by a multi-field axis entry."""
    spec = ExperimentSpec.load("fig4_grid").override(vendor="generic")
    scenarios = spec.scenarios()
    assert {s.vendor for s in scenarios} == {"generic"}
    # The rest of the mapping axis (impl, label) still varies.
    assert {s.impl for s in scenarios} == {"rbc", "mpi"}


def test_override_keeps_covarying_fields_of_a_mapping_axis():
    """Pinning a field a mapping axis co-varies must keep the axis's other
    fields (vendor/label panels), not drop the axis wholesale."""
    spec = ExperimentSpec.load("fig4_grid").override(impl="mpi")
    scenarios = spec.scenarios()
    assert {s.impl for s in scenarios} == {"mpi"}
    assert {s.vendor for s in scenarios} == {"ibm", "intel"}
    assert {s.label for s in scenarios} == {
        "RBC::Iscan", "Intel MPI Iscan", "IBM MPI Iscan"}


def test_override_drops_axis_fully_consumed_by_the_override():
    grid = Grid(fixed=dict(operation="scan"),
                axes={"impl": [dict(impl="rbc"), dict(impl="mpi")],
                      "words": [1, 2]})
    spec = ExperimentSpec(name="s", grids=[grid]).override(impl="mpi")
    scenarios = spec.scenarios()  # no duplicate-scenario error
    assert len(scenarios) == 2
    assert {s.impl for s in scenarios} == {"mpi"}


# ---------------------------------------------------------------------------
# Spec files.
# ---------------------------------------------------------------------------

def test_shipped_specs_load_and_expand():
    names = shipped_spec_names()
    assert {"fig4_grid", "fig9_grid", "smoke"} <= set(names)
    for name in names:
        spec = ExperimentSpec.load(name)
        scenarios = spec.scenarios()
        assert scenarios, name
        for scenario in scenarios:
            assert scenario.machine in MACHINE_PRESETS


def test_shipped_fig4_grid_shape():
    """The acceptance grid: >= 12 scenarios across >= 3 machine presets."""
    scenarios = ExperimentSpec.load("fig4_grid").scenarios()
    machines = {s.machine for s in scenarios}
    assert len(scenarios) >= 12
    assert len(machines) >= 3
    assert all(s.operation == "scan" for s in scenarios)


def test_smoke_spec_is_exactly_four_scenarios():
    assert len(ExperimentSpec.load("smoke").scenarios()) == 4


def test_spec_from_json_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({
        "name": "mini",
        "grid": [{"fixed": {"num_ranks": 8}, "axes": {"words": [1, 2]}}],
    }))
    spec = ExperimentSpec.from_file(str(path))
    assert [s.words for s in spec.scenarios()] == [1, 2]


def test_spec_load_unknown_name():
    with pytest.raises(FileNotFoundError, match="no shipped spec"):
        ExperimentSpec.load("nonexistent_spec")


def test_spec_requires_grids_and_name():
    with pytest.raises(ValueError, match="name"):
        ExperimentSpec.from_dict({})
    with pytest.raises(ValueError, match="no \\[\\[grid\\]\\]"):
        ExperimentSpec.from_dict({"name": "empty"})
    with pytest.raises(ValueError, match="unknown grid key"):
        ExperimentSpec.from_dict({"name": "bad",
                                  "grid": [{"fixd": {}}]})
