"""The paper's figures (Fig. 4-9) and the machine sweep as experiment specs.

A figure is a grid — its curves and the axis it sweeps — at three sizes:
``tiny`` (seconds; the test suite and CI), ``small`` (the default of
``pytest benchmarks/``) and ``paper`` (the closest to the paper's parameters
the pure-Python simulator can afford).  ``_FIGURES`` holds, per figure, what
the paper observes in it (the spec's description; the benches under
``benchmarks/`` assert it), the function returning its grids at one size,
and the sizes; :func:`figure_spec` builds the spec, and every
``<figure>_<scale>`` name resolves through :meth:`ExperimentSpec.load`, so

    python -m repro.experiments run fig5_comm_split_paper --workers 4

runs a figure cached, in parallel and traceable like any other spec, and
``--set field=value`` resizes it.

Axes are ordered like the loops of the drivers these grids replaced (curve
outer, swept size inner; Fig. 7 broadcast count outermost): the order of the
cells is the order of the simulations, and ``BENCH_*.json`` sums their
simulated times in that order.
"""

from __future__ import annotations

from typing import List

from .spec import ExperimentSpec, Grid

__all__ = ["SCALES", "MACHINE_SWEEP", "figure_spec", "figure_spec_names"]

SCALES = ("tiny", "small", "paper")


def _powers_of_two(exponents) -> List[int]:
    return [2 ** exponent for exponent in exponents]


def _curves(*curves: tuple, fields: tuple) -> List[dict]:
    """One mapping-valued axis entry per curve: ``label`` plus ``fields``."""
    return [dict(zip(("label",) + fields, curve)) for curve in curves]


def _fig4_iscan(num_ranks, exponents, repetitions):
    return [Grid(
        fixed=dict(kind="collective", operation="scan", num_ranks=num_ranks,
                   repetitions=repetitions),
        axes={
            "curve": _curves(("RBC::Iscan", "rbc", "ibm"),
                             ("Intel MPI Iscan", "mpi", "intel"),
                             ("IBM MPI Iscan", "mpi", "ibm"),
                             fields=("impl", "vendor")),
            "words": _powers_of_two(exponents),
        })]


def _fig5_comm_split(proc_counts, repetitions):
    return [Grid(
        fixed=dict(kind="comm_create", operation="split_halves",
                   repetitions=repetitions),
        axes={
            "curve": _curves(
                ("RBC - Comm create group", "rbc", "generic"),
                ("Intel - MPI Comm create group", "create_group", "intel"),
                ("Intel - MPI Comm split", "split", "intel"),
                ("IBM - MPI Comm create group", "create_group", "ibm"),
                ("IBM - MPI Comm split", "split", "ibm"),
                fields=("method", "vendor")),
            "num_ranks": list(proc_counts),
        })]


def _fig6_overlapping(proc_counts, repetitions):
    return [Grid(
        fixed=dict(kind="comm_create", operation="overlapping",
                   repetitions=repetitions),
        axes={
            "curve": _curves(
                ("RBC - Cascade", "rbc", "generic", "cascaded"),
                ("RBC - Alternating", "rbc", "generic", "alternating"),
                ("Intel - Cascade MPI Comm create group",
                 "create_group", "intel", "cascaded"),
                ("Intel - Alternating MPI Comm create group",
                 "create_group", "intel", "alternating"),
                fields=("method", "vendor", "schedule")),
            "num_ranks": list(proc_counts),
        })]


def _fig7_range_bcast(num_ranks, exponents, bcast_counts, repetitions):
    # Per vendor the fastest creation method found in Fig. 5.
    return [Grid(
        fixed=dict(kind="comm_create", operation="range_bcast",
                   num_ranks=num_ranks, repetitions=repetitions),
        axes={
            "num_bcasts": list(bcast_counts),
            "curve": _curves(
                ("RBC - Split RBC Comm + Ibcast", "rbc", "generic"),
                ("Intel - MPI Comm create group + Ibcast",
                 "create_group", "intel"),
                ("IBM - MPI Comm split + Ibcast", "split", "ibm"),
                fields=("method", "vendor")),
            "words": _powers_of_two(exponents),
        })]


def _fig8_jquick(num_ranks, exponents, repetitions):
    # RBC behaves identically on top of either vendor's point-to-point layer
    # in the simulator, so a single RBC curve stands for "RBC (Intel p2p)"
    # and "RBC (IBM p2p)".
    return [Grid(
        fixed=dict(kind="jquick", seed=1000, num_ranks=num_ranks,
                   repetitions=repetitions),
        axes={
            "curve": _curves(("RBC", "rbc", "generic"),
                             ("Intel MPI", "mpi", "intel"),
                             ("IBM MPI", "mpi", "ibm"),
                             fields=("impl", "vendor")),
            "n_per_proc": _powers_of_two(exponents),
        })]


def _fig9_collectives(num_ranks, exponents, gather_exponents, repetitions):
    panels = (("9a", "bcast", "ibm"), ("9b", "bcast", "intel"),
              ("9c", "reduce", "ibm"), ("9d", "reduce", "intel"),
              ("9e", "scan", "ibm"), ("9f", "scan", "intel"),
              ("9g", "gather", "ibm"), ("9h", "gather", "intel"))
    return [Grid(
        fixed=dict(kind="collective", operation=operation, vendor=vendor,
                   label=panel, num_ranks=num_ranks, repetitions=repetitions),
        axes={
            "impl": ["mpi", "rbc"],
            # The root's memory bounds the gather sweep (paper: n/p <= 2^10).
            "words": _powers_of_two(gather_exponents if operation == "gather"
                                    else exponents),
        }) for panel, operation, vendor in panels]


#: Machine labels of the sweep in increasing order of hierarchy width.
MACHINE_SWEEP = ("flat", "single-node", "multi-node", "multi-island")


def _hierarchical_machines(num_ranks, collective_words, jquick_n_per_proc,
                           repetitions):
    # The hierarchical machines share one set of link tiers and differ only
    # in the placement: everything on one node, packed onto few-rank nodes
    # of a single island, or spread across islands.
    ranks_per_node = max(1, num_ranks // 8)
    machines = (
        dict(machine="flat", placement=None),
        dict(machine="supermuc", placement=dict(kind="single_node")),
        dict(machine="supermuc", placement=dict(
            kind="regular", ranks_per_node=ranks_per_node,
            nodes_per_island=8)),
        dict(machine="supermuc", placement=dict(
            kind="regular", ranks_per_node=ranks_per_node,
            nodes_per_island=2)),
    )
    return [Grid(
        fixed=dict(impl="rbc", vendor="generic", num_ranks=num_ranks,
                   repetitions=repetitions),
        axes={
            "machine": [dict(label=label, **machine)
                        for label, machine in zip(MACHINE_SWEEP, machines)],
            "workload": [dict(kind="collective", operation="bcast",
                              words=words) for words in collective_words]
            + [dict(kind="jquick", seed=4000, n_per_proc=jquick_n_per_proc)],
        })]


#: figure -> (what the paper observes, its grids at one size, the sizes).
_FIGURES = {
    "fig4_iscan": (
        "Fig. 4 — Iscan, RBC vs Intel MPI vs IBM MPI (paper: p=2^15, n/p in "
        "2^0..2^18): comparable for moderate inputs, where startups "
        "dominate; RBC up to 16x faster for large ones",
        _fig4_iscan, {
        "tiny": dict(num_ranks=64, exponents=range(0, 11, 2), repetitions=1),
        "small": dict(num_ranks=512, exponents=range(0, 15, 2),
                      repetitions=2),
        "paper": dict(num_ranks=4096, exponents=range(0, 19, 2),
                      repetitions=3)}),
    "fig5_comm_split": (
        "Fig. 5 — splitting p processes into halves (paper: p in "
        "2^10..2^15): the RBC split is constant and negligible (> 400x "
        "faster), Intel's create_group grows linearly with p, "
        "MPI_Comm_split is ~2x slower than that, IBM's create_group slower "
        "by orders of magnitude",
        _fig5_comm_split, {
        "tiny": dict(proc_counts=(32, 64, 128), repetitions=1),
        "small": dict(proc_counts=(256, 512, 1024, 2048, 4096),
                      repetitions=1),
        "paper": dict(proc_counts=(1024, 2048, 4096, 8192, 16384, 32768),
                      repetitions=3)}),
    "fig6_overlapping": (
        "Fig. 6 — overlapping size-4 communicators 0..3, 3..6, 6..9, ... "
        "(paper: p in 2^9..2^13; IBM omitted, see Fig. 5): blocking native "
        "creation serialises under the cascaded schedule but not under the "
        "alternating one; RBC is negligible and schedule-independent",
        _fig6_overlapping, {
        "tiny": dict(proc_counts=(16, 64), repetitions=1),
        "small": dict(proc_counts=(64, 128, 256, 512, 1024), repetitions=2),
        "paper": dict(proc_counts=(512, 1024, 2048, 4096, 8192),
                      repetitions=3)}),
    "fig7_range_bcast": (
        "Fig. 7 — create the first half's communicator, then broadcast on "
        "it once or many times (paper: 2^14 of 2^15 processes; plotted as "
        "the ratio MPI / RBC): tens to hundreds for one broadcast of "
        "moderate n, single digits once 50 broadcasts amortise the "
        "creation, towards 1 for large n",
        _fig7_range_bcast, {
        "tiny": dict(num_ranks=64, exponents=range(0, 11, 4),
                     bcast_counts=(1, 10), repetitions=1),
        "small": dict(num_ranks=512, exponents=range(0, 15, 2),
                      bcast_counts=(1, 50), repetitions=1),
        "paper": dict(num_ranks=4096, exponents=range(0, 19, 2),
                      bcast_counts=(1, 50), repetitions=3)}),
    "fig8_jquick": (
        "Fig. 8 — JQuick on uniform doubles, RBC vs native communicators on "
        "every level (paper: p=2^15, n/p in 2^0..2^20): RBC wins 3.5x "
        "(Intel) to 16.9x (IBM) at n/p = 1 and by orders of magnitude for "
        "moderate n/p; the curves converge for large inputs",
        _fig8_jquick, {
        "tiny": dict(num_ranks=32, exponents=(0, 2, 4, 12), repetitions=1),
        "small": dict(num_ranks=256, exponents=(0, 2, 4, 6, 8, 10, 14),
                      repetitions=1),
        "paper": dict(num_ranks=1024,
                      exponents=(0, 2, 4, 6, 8, 10, 12, 14, 16),
                      repetitions=2)}),
    "fig9_collectives": (
        "Fig. 9 — bcast, reduce, scan and gather, RBC vs IBM MPI and Intel "
        "MPI (paper: p=2^15, n/p in 2^0..2^18): RBC performs like the "
        "native collectives — range-based creation has no hidden cost in "
        "the operations",
        _fig9_collectives, {
        "tiny": dict(num_ranks=64, exponents=range(0, 11, 4),
                     gather_exponents=range(0, 9, 4), repetitions=1),
        "small": dict(num_ranks=256, exponents=range(0, 15, 2),
                      gather_exponents=range(0, 11, 2), repetitions=1),
        "paper": dict(num_ranks=2048, exponents=range(0, 19, 2),
                      gather_exponents=range(0, 11, 2), repetitions=3)}),
    "hierarchical_machines": (
        "Machine sweep — an RBC broadcast and a JQuick sort on the flat "
        "machine and on SuperMUC's link tiers under three placements: the "
        "same program must cost single-node <= multi-node <= multi-island, "
        "and every hierarchical machine must differ from the flat one",
        _hierarchical_machines, {
        "tiny": dict(num_ranks=16, collective_words=(16, 4096),
                     jquick_n_per_proc=64, repetitions=1),
        "small": dict(num_ranks=64, collective_words=(16, 1024, 16384),
                      jquick_n_per_proc=256, repetitions=1),
        "paper": dict(num_ranks=512,
                      collective_words=(16, 1024, 16384, 262144),
                      jquick_n_per_proc=4096, repetitions=2)}),
}


def figure_spec_names() -> List[str]:
    """Every ``<figure>_<scale>`` name :meth:`ExperimentSpec.load` resolves."""
    return [f"{name}_{scale}" for name in _FIGURES for scale in SCALES]


def figure_spec(name: str, scale: str) -> ExperimentSpec:
    """The spec ``<name>_<scale>`` of figure ``name`` at size ``scale``."""
    if name not in _FIGURES:
        raise KeyError(f"unknown figure {name!r}; expected one of "
                       f"{list(_FIGURES)}")
    claim, grids, sizes = _FIGURES[name]
    if scale not in sizes:
        raise KeyError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return ExperimentSpec(name=f"{name}_{scale}", description=claim,
                          grids=grids(**sizes[scale]))
