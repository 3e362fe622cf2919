"""Figure 6 — overlapping communicators: cascaded vs. alternating schedules.

Asserts the observations of Section VIII-B ("Overlapping communicators"): RBC
creation is negligible and schedule-independent, while cascaded creation with
native MPI becomes much slower than the alternating schedule for large p.
"""

def test_fig6_overlapping(figure_table):
    table = figure_table("fig6_overlapping")

    proc_counts = sorted({row["num_ranks"] for row in table.rows})
    p_large = proc_counts[-1]

    rbc_cascade = table.lookup("time_ms", label="RBC - Cascade", num_ranks=p_large)
    rbc_alt = table.lookup("time_ms", label="RBC - Alternating", num_ranks=p_large)
    intel_cascade = table.lookup(
        "time_ms", label="Intel - Cascade MPI Comm create group", num_ranks=p_large)
    intel_alt = table.lookup(
        "time_ms", label="Intel - Alternating MPI Comm create group", num_ranks=p_large)

    # RBC: negligible, and no difference between the two schedules.
    assert rbc_cascade < 0.01 and rbc_alt < 0.01
    assert abs(rbc_cascade - rbc_alt) <= 0.2 * max(rbc_cascade, rbc_alt) + 1e-9

    # Native MPI: the cascaded schedule is dramatically slower at scale and
    # grows with p, while the alternating schedule stays roughly flat.
    assert intel_cascade > intel_alt * 2
    intel_cascade_small = table.lookup(
        "time_ms", label="Intel - Cascade MPI Comm create group", num_ranks=proc_counts[0])
    assert intel_cascade > intel_cascade_small * 2

    # RBC is orders of magnitude faster than native creation either way.
    assert intel_alt / max(rbc_alt, 1e-9) > 50
