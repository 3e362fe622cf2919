#!/usr/bin/env python
"""Collective operation on a sub-range of processes (Fig. 7 in miniature).

Broadcasting n elements to the first half of a communicator requires native
MPI to create a sub-communicator first — a blocking collective.  With RBC the
sub-range communicator is created locally and the broadcast can start
immediately.  The example prints the running-time ratio MPI / RBC for one
broadcast and for 50 broadcasts (which amortise the communicator creation).

Run with::

    python examples/range_broadcast.py [num_ranks] [elements]
"""

import sys

from repro.bench.programs import range_bcast_program
from repro.simulator import Cluster


def measure(num_ranks: int, method: str, vendor: str, words: int, bcasts: int) -> float:
    result = Cluster(num_ranks).run(range_bcast_program, method=method,
                                    vendor=vendor, words=words, num_bcasts=bcasts)
    durations = [d for d in result.results if d is not None]
    return max(durations) / 1000.0


def main() -> None:
    num_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    words = int(sys.argv[2]) if len(sys.argv) > 2 else 64

    print(f"broadcast of {words} doubles on a sub-range of {num_ranks // 2} out of "
          f"{num_ranks} simulated processes\n")
    header = f"{'repetitions':>12} {'RBC [ms]':>10} {'Intel create_group [ms]':>24} " \
             f"{'IBM comm_split [ms]':>20} {'Intel/RBC':>10} {'IBM/RBC':>9}"
    print(header)
    for bcasts in (1, 50):
        rbc = measure(num_ranks, "rbc", "generic", words, bcasts)
        intel = measure(num_ranks, "create_group", "intel", words, bcasts)
        ibm = measure(num_ranks, "split", "ibm", words, bcasts)
        print(f"{bcasts:>12} {rbc:>10.3f} {intel:>24.3f} {ibm:>20.3f} "
              f"{intel / rbc:>10.1f} {ibm / rbc:>9.1f}")

    print("\nA single broadcast is dominated by the blocking communicator creation "
          "of native MPI; with 50 broadcasts the creation amortises, but RBC still wins.")


if __name__ == "__main__":
    main()
