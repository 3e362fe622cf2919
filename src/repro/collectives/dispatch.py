"""The one place a collective picks its schedule and its execution tier.

Both API layers — :mod:`repro.rbc.collectives` and the simulated native MPI
of :mod:`repro.mpi.comm` — build an endpoint and call :func:`start`; nothing
else chooses between the point-to-point schedules of Section V-D or between
the tiers that price them.

**Schedule.**  Every dispatched operation has a *flat* schedule (binomial
tree, or dissemination for scan and barrier: :mod:`.machines`) and a
*node-leader* schedule (the op's :mod:`.ir` program over the group's
:class:`~.hierarchical.Hierarchy`); bcast and allreduce add the large-input
algorithms of :mod:`.large`.  ``algorithm=None`` — the default, and the only
value the MPI layer passes — runs the node-leader schedule when the caller
is ``node_aware`` and the machine gives the group a hierarchy worth
exploiting (:func:`~.hierarchical.hierarchy_of`: tiered link prices, several
nodes), and the flat one otherwise, so flat machines and topology-blind
vendors keep their historical schedules bit for bit.  Two operations ask
more of the hierarchy: scan needs node blocks in rank order (the segmented
recombination does), and barrier needs nodes that share NIC ports (with a
port per rank the dissemination barrier's ``log p`` rounds beat the tree
barrier's ``2 log p``).  An explicit ``algorithm`` names the schedule;
``"hierarchical"`` is portable — without a usable hierarchy it runs the flat
schedule rather than raising — and ``"auto"`` applies the crossover
heuristics of :mod:`.large`.

**Tier.**  A default call fuses into the lockstep tier of
:mod:`repro.core.spmd` when the program opted in
(``env.lockstep_collectives``) and the endpoint is eligible
(:func:`repro.core.spmd.lockstep_eligible`): flat schedules through the
per-op phase kinds, node-leader schedules through the ``hier_*`` kinds that
replay the same IR — same simulated times bit for bit, far fewer engine
events.  An explicit ``algorithm`` asks for the event-by-event
:class:`~.machines.CollectiveRequest`; the one exception is the
``"hierarchical"`` barrier, whose default never selects the tree on the
per-rank-port machines lockstep is eligible on, so the explicit name is how
its ``hier_barrier`` kind is reached.

The label a scalar request's traced span carries and the lockstep kind are
one name: the operation's for the flat schedule, ``hier_<op>`` for the
node-leader one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..messaging import Request
from ..simulator.network import payload_words
from .endpoint import TransportEndpoint
from .hierarchical import Hierarchy, hierarchy_of, run_schedule
from .ir import schedule_for
from .large import (
    DEFAULT_SEGMENT_WORDS,
    allreduce_ring_schedule,
    bcast_scatter_allgather_schedule,
    choose_allreduce_algorithm,
    choose_bcast_algorithm,
    pipeline_bcast_schedule,
)
from .machines import (
    CollectiveRequest,
    allreduce_schedule,
    barrier_schedule,
    bcast_schedule,
    gather_schedule,
    reduce_schedule,
    scan_schedule,
)

__all__ = ["start"]

#: op -> (its noun in error messages, the name of its flat algorithm, the
#: flat schedule behind the uniform ``(port, value, op, root)`` signature).
_FLAT = {
    "bcast": ("broadcast", "binomial",
              lambda port, value, op, root:
                  bcast_schedule(port, value, root)),
    "reduce": ("reduce", "binomial", reduce_schedule),
    "allreduce": ("allreduce", "reduce_bcast",
                  lambda port, value, op, root:
                      allreduce_schedule(port, value, op)),
    "scan": ("scan", "dissemination",
             lambda port, value, op, root: scan_schedule(port, value, op)),
    "gather": ("gather", "binomial",
               lambda port, value, op, root:
                   gather_schedule(port, value, root)),
    "barrier": ("barrier", "dissemination",
                lambda port, value, op, root: barrier_schedule(port)),
}

#: op -> {large-input algorithm: (span label, schedule)}.  These are the
#: operations that also accept ``"auto"``.
_LARGE = {
    "bcast": {
        "scatter_allgather": (
            "bcast_scatter_allgather",
            lambda port, value, op, root, segment_words:
                bcast_scatter_allgather_schedule(port, value, root)),
        "pipeline": (
            "pipeline_bcast",
            lambda port, value, op, root, segment_words:
                pipeline_bcast_schedule(port, value, root, segment_words)),
    },
    "allreduce": {
        "ring": (
            "allreduce_ring",
            lambda port, value, op, root, segment_words:
                allreduce_ring_schedule(port, value, op)),
    },
}


def _select(ep: TransportEndpoint, name: str, algorithm: Optional[str],
            node_aware: bool):
    """``(label, hierarchy, large)`` of ``algorithm`` for operation ``name``.

    ``hierarchy`` is what the node-leader schedule runs on (None: the flat
    schedule runs), ``large`` the large-input schedule when one was named.
    """
    if algorithm is None or algorithm == "hierarchical":
        if not node_aware:
            hierarchy = None
        elif name == "barrier" and algorithm is None \
                and not getattr(ep.cost_model, "ports_per_node", None):
            # By default the tree barrier is for nodes that share NIC ports.
            hierarchy = None
        else:
            hierarchy = hierarchy_of(ep)
            if name == "scan" and hierarchy is not None \
                    and not hierarchy.contiguous:
                # The segmented scan needs node blocks in rank order.
                hierarchy = None
        if hierarchy is None and algorithm is None:
            return name, None, None
        return "hier_" + name, hierarchy, None
    noun, flat_name, _ = _FLAT[name]
    if algorithm == flat_name:
        return name, None, None
    large = _LARGE.get(name, {})
    if algorithm in large:
        return large[algorithm][0], None, large[algorithm][1]
    names = (["auto"] if large else []) + [flat_name, "hierarchical", *large]
    raise ValueError(
        f"unknown {noun} algorithm {algorithm!r}; expected one of "
        + ", ".join(repr(known) for known in names))


def _schedule(port, name: str, value: Any, op, root: int,
              segment_words: int, hierarchy: Optional[Hierarchy], large):
    """The schedule generator of one :func:`_select` outcome on ``port``."""
    if large is not None:
        return large(port, value, op, root, segment_words)
    if hierarchy is not None:
        return run_schedule(port, schedule_for(hierarchy, name, root), value,
                            op)
    return _FLAT[name][2](port, value, op, root)


def _auto_bcast(port, value: Any, root: int, segment_words: int):
    """Broadcast whose root picks the algorithm from the payload size.

    Only the root knows the payload, so it broadcasts its one-word choice
    down the binomial tree first (a single ``alpha log p`` term, negligible
    for the large payloads ``"auto"`` is about).
    """
    ep = port.ep
    choice = None
    if ep.rank == root:
        choice = choose_bcast_algorithm(
            payload_words(value), ep.size, value, model=ep.cost_model,
            hierarchical=hierarchy_of(ep) is not None)
    choice = yield from bcast_schedule(port, choice, root)
    _, hierarchy, large = _select(ep, "bcast", choice, True)
    result = yield from _schedule(port, "bcast", value, None, root,
                                  segment_words, hierarchy, large)
    return result


# repro.core.spmd cannot be imported at module load time: repro.core's
# package __init__ re-exports the RBC facade, which imports this module.
# Imported by the first call that needs it (an import statement per
# collective call costs ~0.7 us, which shows at p = 4096).
_spmd = None


def start(ep: TransportEndpoint, name: str, value: Any = None,
          op: Optional[Callable[[Any, Any], Any]] = None, root: int = 0, *,
          algorithm: Optional[str] = None, node_aware: bool = True,
          segment_words: int = DEFAULT_SEGMENT_WORDS) -> Request:
    """Start collective ``name`` (one of ``bcast``, ``reduce``,
    ``allreduce``, ``scan``, ``gather``, ``barrier``) on ``ep``.

    Returns this rank's request: a lockstep join or a
    :class:`~.machines.CollectiveRequest` driving the selected schedule
    (see the module docstring for the selection).  ``node_aware=False`` is
    a topology-blind caller (``VendorModel.node_aware``); ``segment_words``
    only concerns the pipelined broadcast.  Unknown names raise
    ``ValueError``.
    """
    if algorithm == "auto" and name == "bcast":
        return CollectiveRequest(ep, _auto_bcast, value, root, segment_words)
    if algorithm == "auto" and name == "allreduce":
        # Every rank contributes the same amount, so every rank picks alike.
        algorithm = choose_allreduce_algorithm(
            payload_words(value), ep.size, value, model=ep.cost_model,
            hierarchical=hierarchy_of(ep) is not None)
    label, hierarchy, large = _select(ep, name, algorithm, node_aware)
    if (algorithm is None or (name == "barrier" and hierarchy is not None)) \
            and getattr(ep.env, "lockstep_collectives", False):
        global _spmd
        if _spmd is None:
            from ..core import spmd as _spmd
        if _spmd.lockstep_eligible(ep):
            return _spmd.join_lockstep(ep, label, value, op, root)
    return CollectiveRequest(
        ep, _schedule, name, value, op, root, segment_words, hierarchy, large,
        label=label)
