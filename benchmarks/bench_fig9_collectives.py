"""Figure 9 (appendix) — nonblocking collectives: RBC vs. native MPI.

Asserts the conclusion of Section VIII-B: "our range-based communicator
creation does not come with hidden overheads in communication operations of
RBC" — RBC's collectives are comparable to the native ones for small inputs
and never substantially slower anywhere in the sweep.
"""

def test_fig9_collectives(figure_table):
    table = figure_table("fig9_collectives")

    panels = sorted({row["label"] for row in table.rows})
    assert len(panels) == 8, "all eight panels (9a-9h) must be present"

    for panel in panels:
        sub = table.filter(label=panel)
        sizes = sorted({row["n_per_proc"] for row in sub.rows})
        smallest = sizes[0]

        rbc_small = sub.lookup("time_ms", impl="rbc", n_per_proc=smallest)
        mpi_small = sub.lookup("time_ms", impl="mpi", n_per_proc=smallest)

        # Small inputs: comparable running times (startups dominate).
        assert mpi_small / rbc_small < 2.5, f"panel {panel}: small-input parity"

        # Nowhere in the sweep is RBC substantially slower than native MPI.
        for size in sizes:
            rbc = sub.lookup("time_ms", impl="rbc", n_per_proc=size)
            mpi = sub.lookup("time_ms", impl="mpi", n_per_proc=size)
            assert rbc <= mpi * 1.25, (
                f"panel {panel}, n/p={size}: RBC should not be slower than MPI")
