"""Hierarchical machines — JQuick / RBC collectives on flat vs. hierarchical
cost models.

Asserts the physical sensibility of the pluggable cost-model layer: running
the *same* deterministic program on machines that only differ in how many
hierarchy tiers their placement crosses must order the simulated times
``single-node <= multi-node <= multi-island`` (strictly, for workloads that
actually communicate across the widened tiers), and the hierarchical times
must differ from the flat alpha-beta machine's.
"""

from repro.experiments.figures import MACHINE_SWEEP


def test_hierarchical_machines(figure_table):
    table = figure_table("hierarchical_machines")

    workloads = sorted({(row["operation"], row["n_per_proc"])
                        for row in table.rows})
    assert len(workloads) >= 2, "collectives and jquick must both be present"

    for workload, size in workloads:
        times = {machine: table.lookup("time_ms", label=machine,
                                       operation=workload, n_per_proc=size)
                 for machine in MACHINE_SWEEP}
        assert all(t is not None and t > 0 for t in times.values()), \
            f"{workload}/{size}: every machine must produce a time"

        # Wider hierarchies cost more: intra-node <= inter-node <= inter-island.
        assert times["single-node"] <= times["multi-node"] <= times["multi-island"], \
            f"{workload}/{size}: simulated times must follow the hierarchy"
        # The widened tiers are actually exercised (strict increase).
        assert times["single-node"] < times["multi-island"], \
            f"{workload}/{size}: multi-island traffic must cost strictly more"

        # The hierarchical machines are genuinely different models, not a
        # re-labelling of the flat machine.
        assert times["flat"] != times["single-node"], \
            f"{workload}/{size}: hierarchical must differ from flat"
        assert times["flat"] != times["multi-island"], \
            f"{workload}/{size}: hierarchical must differ from flat"
