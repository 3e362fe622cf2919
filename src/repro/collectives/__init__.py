"""Generic collective-operation algorithms over point-to-point messages.

The algorithms here are shared by the simulated native-MPI layer
(:mod:`repro.mpi`) and by the RBC library (:mod:`repro.rbc`): both implement
their collectives "with point-to-point communication" using binomial-tree /
dissemination communication patterns, exactly as Section V-D of the paper
describes.  What differs between the two layers is the endpoint (rank
translation, context, tag discipline) and the vendor cost model applied to
native MPI.

* :mod:`repro.collectives.topology` — binomial-tree and dissemination helpers.
* :mod:`repro.collectives.endpoint` — the frozen, rank-free description of a
  collective instance, shared by its members: communicator, tag, rank
  translation and vendor cost factors.
* :mod:`repro.collectives.machines` — the collective request (progressed by
  ``test()``; it is the port its schedule posts sends and receives on) and
  the flat schedules.
* :mod:`repro.collectives.large` — large-input algorithms (scatter,
  scatter-allgather broadcast, pipelined broadcast, ring reduce-scatter and
  ring allreduce) plus the crossover heuristics for ``algorithm="auto"``.
* :mod:`repro.collectives.hierarchical` — the node/island hierarchy of a
  group and the interpreter of the node-leader schedules
  (:mod:`repro.collectives.ir`) built from it.
* :mod:`repro.collectives.dispatch` — ``start``: the one place a collective
  picks its schedule (flat, node-leader, large-input) and its execution tier.
"""

from .endpoint import TransportEndpoint
from .hierarchical import (
    Hierarchy,
    SubgroupEndpoint,
    build_hierarchy,
    hierarchy_of,
)
from .large import (
    allreduce_ring_schedule,
    bcast_scatter_allgather_schedule,
    block_bounds,
    block_sizes,
    choose_allreduce_algorithm,
    choose_bcast_algorithm,
    pipeline_bcast_schedule,
    reduce_scatter_ring_schedule,
    ring_allgather_schedule,
    scatter_schedule,
    split_blocks,
)
from .machines import (
    CollectiveRequest,
    allgather_schedule,
    allreduce_schedule,
    alltoallv_schedule,
    barrier_schedule,
    bcast_schedule,
    exscan_schedule,
    gather_schedule,
    reduce_schedule,
    scan_schedule,
)
from .topology import binomial_children, binomial_parent, ceil_log2

__all__ = [
    "CollectiveRequest",
    "Hierarchy",
    "SubgroupEndpoint",
    "TransportEndpoint",
    "build_hierarchy",
    "hierarchy_of",
    "allgather_schedule",
    "allreduce_ring_schedule",
    "allreduce_schedule",
    "alltoallv_schedule",
    "barrier_schedule",
    "bcast_scatter_allgather_schedule",
    "bcast_schedule",
    "binomial_children",
    "binomial_parent",
    "block_bounds",
    "block_sizes",
    "ceil_log2",
    "choose_allreduce_algorithm",
    "choose_bcast_algorithm",
    "exscan_schedule",
    "gather_schedule",
    "pipeline_bcast_schedule",
    "reduce_scatter_ring_schedule",
    "reduce_schedule",
    "ring_allgather_schedule",
    "scan_schedule",
    "scatter_schedule",
    "split_blocks",
]
