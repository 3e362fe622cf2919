"""Figure 5 — communicator splitting: native MPI vs. RBC.

Regenerates the running times of splitting a communicator of p processes into
two halves with ``MPI_Comm_create_group`` / ``MPI_Comm_split`` (Intel and IBM
cost models) and with ``rbc::Split_RBC_Comm``, and asserts the qualitative
claims of Section VIII-B ("Communicator splitting").
"""

def test_fig5_comm_split(figure_table):
    table = figure_table("fig5_comm_split")

    proc_counts = sorted({row["num_ranks"] for row in table.rows})
    p_small, p_large = proc_counts[0], proc_counts[-1]

    rbc_large = table.lookup("time_ms", label="RBC - Comm create group", num_ranks=p_large)
    intel_cg_small = table.lookup("time_ms", label="Intel - MPI Comm create group", num_ranks=p_small)
    intel_cg_large = table.lookup("time_ms", label="Intel - MPI Comm create group", num_ranks=p_large)
    intel_split_large = table.lookup("time_ms", label="Intel - MPI Comm split", num_ranks=p_large)
    ibm_cg_large = table.lookup("time_ms", label="IBM - MPI Comm create group", num_ranks=p_large)

    # RBC communicator creation is constant and negligible.
    rbc_times = table.filter(label="RBC - Comm create group").column("time_ms")
    assert max(rbc_times) < 0.01, "RBC split should be negligible (<10 µs)"
    assert max(rbc_times) <= min(rbc_times) * 1.5 + 1e-9, "RBC split should be constant in p"

    # Headline claim: communicator creation faster by a factor of more than 400.
    assert intel_cg_large / rbc_large > 400
    assert ibm_cg_large / rbc_large > 400

    # Intel create_group grows with p (explicit group construction).  The
    # linear term only dominates the fixed startup/agreement costs for large
    # p, so the stronger growth bound is asserted once p reaches 2^10.
    intel_cg = [table.lookup("time_ms", label="Intel - MPI Comm create group", num_ranks=p)
                for p in proc_counts]
    assert all(a <= b * 1.05 for a, b in zip(intel_cg, intel_cg[1:])), \
        "Intel create_group must grow monotonically with p"
    if p_large >= 1024:
        assert intel_cg_large > intel_cg_small * (p_large / p_small) ** 0.5

    # MPI_Comm_split is slower than Intel's create_group for large p (paper: ~2x).
    assert intel_split_large > intel_cg_large * 1.3

    # IBM's create_group is far slower than Intel's.
    assert ibm_cg_large > intel_cg_large * 5
