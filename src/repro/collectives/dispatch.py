"""The one place a collective picks its schedule and its execution tier.

Both API layers — :mod:`repro.rbc.collectives` and the simulated native MPI
of :mod:`repro.mpi.comm` — look up the (rank-free, shared) endpoint and call
:func:`start` with the caller's ``env``; nothing
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

**Tier.**  The tier follows the selected schedule.  When the program opted
in (``env.lockstep_collectives``) and the endpoint is eligible
(:func:`repro.core.spmd.lockstep_eligible`), a default call's schedule and
every node-leader schedule are handed to the lockstep tier of
:mod:`repro.core.spmd` — one phase kind per operation, priced by its flat
phase class or, for a node-leader schedule, by the replay of that very IR
object — same simulated times bit for bit, far fewer engine events.  A flat
schedule named explicitly, the large-input schedules and the ``"auto"``
broadcast run event by event in the :class:`~.machines.CollectiveRequest`,
and an opted-in program's ``tier_declined`` counter says why, once per call.

One name labels a schedule in both tiers (a traced span, a lockstep
phase): the operation's for the flat schedule,
:meth:`~.ir.Schedule.ir_token` for the node-leader one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..messaging import Request
from ..simulator.network import payload_words
from .endpoint import TransportEndpoint
from .hierarchical import hierarchy_of, run_schedule
from .ir import Schedule, schedule_for
from .large import (
    DEFAULT_SEGMENT_WORDS,
    allreduce_ring_schedule,
    bcast_scatter_allgather_schedule,
    choose_allreduce_algorithm,
    choose_bcast_algorithm,
    pipeline_bcast_schedule,
)
from .machines import SCHEDULES, CollectiveRequest, bcast_schedule

__all__ = ["start"]

#: op -> (its noun in error messages, the name of its flat algorithm).
_NAMES = {
    "bcast": ("broadcast", "binomial"),
    "reduce": ("reduce", "binomial"),
    "allreduce": ("allreduce", "reduce_bcast"),
    "scan": ("scan", "dissemination"),
    "gather": ("gather", "binomial"),
    "barrier": ("barrier", "dissemination"),
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
            node_aware: bool, root: int):
    """``(schedule, large)`` of ``algorithm`` for operation ``name``.

    ``schedule`` is the node-leader :class:`~.ir.Schedule` (None: the flat
    schedule runs), ``large`` the ``(label, schedule)`` of the large-input
    algorithm when one was named.
    """
    if algorithm is None or algorithm == "hierarchical":
        if not node_aware or (name == "barrier" and algorithm is None
                              and not getattr(ep.cost_model, "ports_per_node",
                                              None)):
            # By default the tree barrier is for nodes that share NIC ports.
            return None, None
        hierarchy = hierarchy_of(ep)
        if hierarchy is None or (name == "scan" and not hierarchy.contiguous):
            # The segmented scan needs node blocks in rank order.
            return None, None
        return schedule_for(hierarchy, name, root), None
    noun, flat_name = _NAMES[name]
    if algorithm == flat_name:
        return None, None
    large = _LARGE.get(name, {})
    if algorithm in large:
        return None, large[algorithm]
    names = (["auto"] if large else []) + [flat_name, "hierarchical", *large]
    raise ValueError(
        f"unknown {noun} algorithm {algorithm!r}; expected one of "
        + ", ".join(repr(known) for known in names))


def _schedule(port, name: str, value: Any, op, root: int,
              segment_words: int, schedule: Optional[Schedule], large):
    """The schedule generator of one :func:`_select` outcome on ``port``."""
    if large is not None:
        return large[1](port, value, op, root, segment_words)
    if schedule is not None:
        return run_schedule(port, schedule, value, op)
    return SCHEDULES[name](port, value, op, root)


def _auto_bcast(port, value: Any, root: int, segment_words: int):
    """Broadcast whose root picks the algorithm from the payload size.

    Only the root knows the payload, so it broadcasts its one-word choice
    down the binomial tree first (a single ``alpha log p`` term, negligible
    for the large payloads ``"auto"`` is about).
    """
    ep = port.ep
    choice = None
    if port.rank == root:
        choice = choose_bcast_algorithm(
            payload_words(value), ep.size, value, model=ep.cost_model,
            hierarchical=hierarchy_of(ep) is not None)
    choice = yield from bcast_schedule(port, choice, root)
    schedule, large = _select(ep, "bcast", choice, True, root)
    result = yield from _schedule(port, "bcast", value, None, root,
                                  segment_words, schedule, large)
    return result


# repro.core.spmd cannot be imported at module load time: repro.core's
# package __init__ re-exports the RBC facade, which imports this module.
# Imported by the first call that needs it (an import statement per
# collective call costs ~0.7 us, which shows at p = 4096).
_spmd = None


def _eligible(env, ep: TransportEndpoint) -> bool:
    """Whether ``env``'s call on ``ep`` may run in lockstep
    (:func:`repro.core.spmd.lockstep_eligible`, which counts the reason
    when an opted-in call may not)."""
    if not getattr(env, "lockstep_collectives", False):
        return False
    global _spmd
    if _spmd is None:
        from ..core import spmd as _spmd
    return _spmd.lockstep_eligible(env, ep)


def _decline(env, ep: TransportEndpoint, reason: str) -> None:
    """Record why a call that lockstep could otherwise price runs event by
    event, so ``tier_declined`` gives one reason per scalar collective."""
    if _eligible(env, ep):
        ep.transport.decline_tier(f"lockstep: {reason}")


def start(env, ep: TransportEndpoint, name: str, value: Any = None,
          op: Optional[Callable[[Any, Any], Any]] = None, root: int = 0, *,
          algorithm: Optional[str] = None, node_aware: bool = True,
          segment_words: int = DEFAULT_SEGMENT_WORDS) -> Request:
    """Start collective ``name`` (one of ``bcast``, ``reduce``,
    ``allreduce``, ``scan``, ``gather``, ``barrier``) for the rank of ``env``
    on ``ep``.

    Returns this rank's request: a lockstep join or a
    :class:`~.machines.CollectiveRequest` driving the selected schedule
    (see the module docstring for the selection).  ``node_aware=False`` is
    a topology-blind caller (``VendorModel.node_aware``); ``segment_words``
    only concerns the pipelined broadcast.  Unknown names raise
    ``ValueError``.
    """
    if algorithm == "auto" and name == "bcast":
        _decline(env, ep, "_auto_bcast has no lockstep pricer")
        return CollectiveRequest(env, ep, _auto_bcast, value, root,
                                 segment_words)
    if algorithm == "auto" and name == "allreduce":
        # Every rank contributes the same amount, so every rank picks alike.
        algorithm = choose_allreduce_algorithm(
            payload_words(value), ep.size, value, model=ep.cost_model,
            hierarchical=hierarchy_of(ep) is not None)
    schedule, large = _select(ep, name, algorithm, node_aware, root)
    if large is not None:
        label = large[0]
        _decline(env, ep, f"{label} has no lockstep pricer")
    elif algorithm is not None and schedule is None:
        # The flat phase classes fold a port-write tie between two
        # unsynchronised repetitions in generation order without proving
        # that it commutes, so a flat schedule named explicitly keeps the
        # event tier.
        label = name
        _decline(env, ep, f"explicit {algorithm!r} {name} runs event by event")
    elif _eligible(env, ep):
        return _spmd.join_lockstep(env, ep, name, value, op, root, schedule)
    else:
        label = name if schedule is None else schedule.ir_token()
    return CollectiveRequest(
        env, ep, _schedule, name, value, op, root, segment_words, schedule,
        large,
        label=label)
