"""Figure 4 — nonblocking scan: RBC vs. Intel MPI vs. IBM MPI.

Asserts the two observations of Section VIII-B ("Collective operations"): all
implementations are comparable for moderate inputs, and RBC wins for larger
inputs (paper: by a factor of up to 16).
"""

def test_fig4_iscan(figure_table):
    table = figure_table("fig4_iscan")

    sizes = sorted({row["n_per_proc"] for row in table.rows})
    smallest, largest = sizes[0], sizes[-1]

    rbc_small = table.lookup("time_ms", label="RBC::Iscan", n_per_proc=smallest)
    intel_small = table.lookup("time_ms", label="Intel MPI Iscan", n_per_proc=smallest)
    ibm_small = table.lookup("time_ms", label="IBM MPI Iscan", n_per_proc=smallest)
    rbc_large = table.lookup("time_ms", label="RBC::Iscan", n_per_proc=largest)
    intel_large = table.lookup("time_ms", label="Intel MPI Iscan", n_per_proc=largest)
    ibm_large = table.lookup("time_ms", label="IBM MPI Iscan", n_per_proc=largest)

    # Moderate inputs: all implementations need about the same amount of time
    # (startup overhead dominates).
    assert intel_small / rbc_small < 2.0
    assert ibm_small / rbc_small < 2.0

    # Large inputs: RBC outperforms both vendor implementations.
    assert ibm_large / rbc_large > 2.0
    assert intel_large / rbc_large > 1.5
    # ... and never loses.
    for size in sizes:
        rbc = table.lookup("time_ms", label="RBC::Iscan", n_per_proc=size)
        intel = table.lookup("time_ms", label="Intel MPI Iscan", n_per_proc=size)
        ibm = table.lookup("time_ms", label="IBM MPI Iscan", n_per_proc=size)
        assert rbc <= intel * 1.1
        assert rbc <= ibm * 1.1
