"""The frozen description of one collective instance.

A collective schedule only speaks in group-local ranks.  The endpoint says
where those live: the communicator's context and the collective's tag that
every message is stamped with, this process's rank and the group size
*within the collective*, the translation from group-local to world ranks,
and the cost factors of the layer executing the collective (native MPI
implementations may pay extra per-word and per-message overheads — see
:mod:`repro.mpi.vendor`).

The endpoint does not send or receive.  It is what the deciding layers read —
:mod:`repro.collectives.dispatch` (schedule and tier),
:func:`~repro.collectives.hierarchical.hierarchy_of` (the group's node
structure) and :mod:`repro.core.spmd` (lockstep pricing) — and what a
:class:`~repro.collectives.machines.CollectiveRequest` is built from: the
request is the *port* its schedule talks to, and it applies the translation
and the cost factors described here to every message it posts.  Endpoints
are immutable and shared (the RBC layer caches one per communicator and
tag), so nothing per-collective is ever stored on them.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simulator.costmodel import CostModel
from ..simulator.network import Transport
from ..simulator.process import RankEnv

__all__ = ["TransportEndpoint"]


class TransportEndpoint:
    """Where one collective instance lives: group, envelope and cost factors.

    Parameters
    ----------
    env:
        Environment of the calling rank.
    transport:
        Shared network transport.
    context:
        Context identifier stamped on every message (the underlying MPI
        communicator's context id for both MPI and RBC collectives).
    tag:
        Tag used by this collective instance.
    rank, size:
        This process's rank and the group size *within the collective*.
    to_world:
        Translation from group-local rank to world rank.
    word_cost_factor:
        Multiplier applied to the wire size of every message (models less
        efficient data paths inside vendor nonblocking collectives).
    per_message_delay:
        Extra local delay in microseconds before each message is injected
        (models per-message software overhead of vendor collectives).
    """

    __slots__ = (
        "env",
        "transport",
        "context",
        "tag",
        "rank",
        "size",
        "to_world",
        "word_cost_factor",
        "per_message_delay",
        "_affine",
    )

    def __init__(self, env: RankEnv, transport: Transport, *, context, tag: int,
                 rank: int, size: int, to_world: Callable[[int], int],
                 word_cost_factor: float = 1.0, per_message_delay: float = 0.0,
                 world_affine: Optional[tuple[int, int]] = None):
        self.env = env
        self.transport = transport
        self.context = context
        self.tag = tag
        self.rank = rank
        self.size = size
        self.to_world = to_world
        self.word_cost_factor = word_cost_factor
        self.per_message_delay = per_message_delay
        # (first, stride) when group -> world is one multiply-add; the port
        # inlines it so the hot path skips the translation call entirely.
        self._affine = world_affine

    # ------------------------------------------------------------------ costs

    @property
    def cost_model(self) -> CostModel:
        """The machine cost model of the cluster executing this collective.

        Algorithm-selection heuristics (``algorithm="auto"``) must consult
        this instead of assuming flat ``alpha``/``beta`` attributes.
        """
        return self.env.params

    @property
    def placement(self):
        """The cluster-owned rank -> (node, island) placement (world ranks)."""
        return self.transport.placement
