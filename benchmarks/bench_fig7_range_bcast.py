"""Figure 7 — broadcast on a sub-range of processes (MPI/RBC ratio).

Asserts the observations of Section VIII-B ("Range-based collective"): the
ratio is large for moderate n with a single broadcast, smaller when 50
broadcasts amortise the communicator creation, and shrinks as n grows.
"""

RBC = "RBC - Split RBC Comm + Ibcast"


def test_fig7_range_bcast(figure_table):
    table = figure_table("fig7_range_bcast")

    sizes = sorted({row["n_per_proc"] for row in table.rows})
    counts = sorted({row["num_bcasts"] for row in table.rows})
    single, many = counts[0], counts[-1]
    smallest, largest = sizes[0], sizes[-1]

    def ratio(curve, bcasts, n):
        """MPI time / RBC time of one (broadcast count, payload) cell."""
        return (table.lookup("time_ms", label=curve, num_bcasts=bcasts,
                             n_per_proc=n)
                / table.lookup("time_ms", label=RBC, num_bcasts=bcasts,
                               n_per_proc=n))

    for curve in sorted({row["label"] for row in table.rows} - {RBC}):
        # MPI (creation + broadcast) never beats RBC.
        ratios = [ratio(curve, bcasts, n) for bcasts in counts for n in sizes]
        assert all(r > 0.9 for r in ratios), f"{curve}: RBC should not lose"

        ratio_single_small = ratio(curve, single, smallest)
        ratio_many_small = ratio(curve, many, smallest)
        ratio_single_large = ratio(curve, single, largest)

        # A single broadcast on a moderate payload: creation dominates, large ratio.
        assert ratio_single_small > 3
        # Amortising over many broadcasts shrinks the ratio.
        assert ratio_many_small < ratio_single_small
        # Large payloads shrink the ratio as the broadcast itself dominates.
        # The paper observes this convergence for IBM MPI, while Intel MPI
        # "fluctuates for large n" — so the monotonicity claim is only checked
        # on the IBM curve.
        if curve.startswith("IBM"):
            assert ratio_single_large < ratio_single_small
