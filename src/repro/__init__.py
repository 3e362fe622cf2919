"""Reproduction of "Lightweight MPI Communicators with Applications to
Perfectly Balanced Quicksort" (Axtmann, Wiebigke, Sanders — IPDPS 2018).

Package layout
--------------

* :mod:`repro.simulator` — discrete-event single-ported machine model (the
  hardware substrate replacing SuperMUC) with pluggable cost models: flat
  alpha-beta (:class:`~repro.simulator.NetworkParams`) or hierarchical
  intra-node / inter-node / inter-island
  (:class:`~repro.simulator.HierarchicalParams`).
* :mod:`repro.mpi` — simulated MPI-3 layer with vendor cost models (the
  "native MPI" baselines: Intel MPI, IBM MPI).
* :mod:`repro.collectives` — generic binomial-tree / dissemination collective
  algorithms shared by the MPI layer and RBC.
* :mod:`repro.rbc` (re-exported as :mod:`repro.core`) — the RBC library:
  range-based communicators created locally in constant time, plus the
  Section VI ``MPI_Icomm_create_group`` proposal.
* :mod:`repro.sorting` — Janus Quicksort (JQuick) and the baseline sorters.
* :mod:`repro.bench` — the measurement library: timing convention, rank
  programs of the paper's figures, sort inputs, result tables.
* :mod:`repro.experiments` — declarative scenario grids run in parallel
  behind a result cache; the paper's Fig. 4-9 are specs there
  (``python -m repro.experiments run fig5_comm_split_paper``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
