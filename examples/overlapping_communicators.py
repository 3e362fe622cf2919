#!/usr/bin/env python
"""Overlapping communicator creation: cascaded vs. alternating schedules (Fig. 6).

A communicator of p processes is split into overlapping communicators of size
4 (processes 0..3, 3..6, 6..9, ...).  Every third process belongs to two of
them and must pick a creation order.  With blocking native MPI creation the
*cascaded* order serialises the whole chain, the *alternating* order does not;
with RBC both orders are local and essentially free.

Run with::

    python examples/overlapping_communicators.py [num_ranks]
"""

import sys

from repro.bench.programs import overlapping_groups, overlapping_program
from repro.simulator import Cluster


def measure(num_ranks: int, method: str, vendor: str, schedule: str) -> float:
    cluster = Cluster(num_ranks)
    result = cluster.run(overlapping_program, method=method, vendor=vendor,
                         schedule=schedule)
    return max(d for d in result.results if d is not None) / 1000.0


def main() -> None:
    num_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    groups = overlapping_groups(num_ranks)
    print(f"{len(groups)} overlapping size-4 communicators over {num_ranks} "
          f"simulated processes\n")

    rows = [
        ("RBC split, cascaded", "rbc", "generic", "cascaded"),
        ("RBC split, alternating", "rbc", "generic", "alternating"),
        ("MPI_Comm_create_group (Intel), cascaded", "create_group", "intel", "cascaded"),
        ("MPI_Comm_create_group (Intel), alternating", "create_group", "intel", "alternating"),
    ]
    times = {}
    for label, method, vendor, schedule in rows:
        times[label] = measure(num_ranks, method, vendor, schedule)
        print(f"{label:45s} {times[label]:10.3f} ms")

    cascade = times["MPI_Comm_create_group (Intel), cascaded"]
    alternating = times["MPI_Comm_create_group (Intel), alternating"]
    print(f"\ncascade penalty with native MPI: {cascade / alternating:.1f}x")
    print("RBC is schedule-independent because both communicators are created "
          "locally, without any communication.")


if __name__ == "__main__":
    main()
