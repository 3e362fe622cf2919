"""Smoke tests of the remaining figure specs and ablations (tiny sizes).

The full sweeps (with the paper's qualitative claims asserted) live in
``benchmarks/``; here we only check that every figure runs, produces the
expected table structure, and behaves sanely at very small sizes so the unit
test suite stays fast.
"""

import pytest

from repro.bench import ablations


def test_fig7_driver_structure(figure_table):
    table = figure_table("fig7_range_bcast", num_ranks=32)
    assert {"label", "num_bcasts", "n_per_proc", "time_ms"} <= set(table.columns)
    assert len({row["label"] for row in table.rows}) == 3
    assert {row["num_bcasts"] for row in table.rows} == {1, 10}
    assert all(row["time_ms"] > 0 for row in table.rows)


def test_fig8_driver_structure(figure_table):
    table = figure_table("fig8_jquick", num_ranks=16)
    assert len({row["label"] for row in table.rows}) == 3
    rbc = [row["time_ms"] for row in table.rows if row["label"] == "RBC"]
    ibm = [row["time_ms"] for row in table.rows if row["label"] == "IBM MPI"]
    assert all(a < b for a, b in zip(rbc, ibm)), "RBC should win at every size"


def test_fig9_driver_single_panel(figure_table):
    table = figure_table("fig9_collectives", num_ranks=32)
    assert len({row["label"] for row in table.rows}) == 8
    panel = table.filter(label="9a")
    assert {row["impl"] for row in panel.rows} == {"rbc", "mpi"}
    assert {row["operation"] for row in panel.rows} == {"bcast"}


def test_schedule_ablation_small():
    table = ablations.schedule_ablation(p=16, n_per_proc=4)
    assert len(table.rows) == 4
    mpi_alt = table.lookup("time_ms", backend="mpi", schedule="alternating")
    rbc_alt = table.lookup("time_ms", backend="rbc", schedule="alternating")
    assert mpi_alt > rbc_alt


def test_pivot_ablation_small():
    table = ablations.pivot_ablation(p=16, n_per_proc=8)
    strategies = {row["strategy"] for row in table.rows}
    assert strategies == {"sampled_median", "random_element"}
    assert all(row["levels"] >= 1 for row in table.rows)


def test_assignment_stats_small():
    table = ablations.assignment_stats(p=16)
    for row in table.rows:
        assert row["max_messages_per_step"] <= row["bound_min_p_nproc"]


def test_sorter_comparison_small():
    table = ablations.sorter_comparison(p=8, n_per_proc=16)
    jq = table.filter(algorithm="jquick").rows[0]
    assert jq["perfectly_balanced"]
    assert {row["algorithm"] for row in table.rows} == {"jquick", "hypercube", "samplesort", "multilevel"}


def test_tiebreak_ablation_small():
    table = ablations.tiebreak_ablation(p=8, n_per_proc=8)
    with_tb = table.filter(tie_breaking=True)
    assert all(row["completed"] for row in with_tb.rows)
    without_tb_few = table.filter(tie_breaking=False, workload="few_distinct").rows[0]
    assert not without_tb_few["completed"]


def test_sorter_comparison_requires_power_of_two():
    with pytest.raises(ValueError):
        ablations.sorter_comparison(p=6, n_per_proc=4)


def test_collective_algorithm_ablation_small():
    table = ablations.collective_algorithm_ablation(p=16, exponents=(2, 14))
    assert set(table.columns) == {"operation", "algorithm", "words", "time_ms"}
    operations = {row["operation"] for row in table.rows}
    assert operations == {"bcast", "allreduce"}
    # Every (operation, algorithm, words) combination produced a positive time.
    assert all(row["time_ms"] > 0 for row in table.rows)
    # At 2^14 words on 16 ranks the ring allreduce already beats reduce+bcast.
    ring = table.lookup("time_ms", operation="allreduce", algorithm="ring", words=2 ** 14)
    tree = table.lookup("time_ms", operation="allreduce", algorithm="reduce_bcast", words=2 ** 14)
    assert ring < tree
