"""The frozen, rank-free description of one collective instance.

A collective schedule only speaks in group-local ranks.  The endpoint says
where those live: the communicator's context and the collective's tag that
every message is stamped with, the group size *within the collective*, the
translation between group-local and world ranks, and the cost factors of the
layer executing the collective (native MPI implementations may pay extra
per-word and per-message overheads — see :mod:`repro.mpi.vendor`).

Nothing in it depends on which member asks, so one endpoint serves every
member: the layers building them intern each on the transport
(:meth:`~repro.simulator.network.Transport.intern`), keyed by everything it
carries, and :meth:`Transport.close` empties that table with the run.  The
caller supplies its own ``env`` wherever a member acts —
:class:`~repro.collectives.machines.CollectiveRequest`,
:func:`repro.collectives.dispatch.start`, the lockstep joins of
:mod:`repro.core.spmd` — and its group rank follows from the description
(:meth:`TransportEndpoint.rank_of`: one division for an affine group, the
group's index otherwise).

The endpoint does not send or receive.  It is what the deciding layers read —
:mod:`repro.collectives.dispatch` (schedule and tier),
:func:`~repro.collectives.hierarchical.hierarchy_of` (the group's node
structure, cached on the endpoint) and :mod:`repro.core.spmd` (lockstep
pricing) — and what a request is built from: the request is the *port* its
schedule talks to, and it applies the translation and the cost factors
described here to every message it posts.  Nothing per-collective or
per-member is ever stored on an endpoint.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simulator.costmodel import CostModel
from ..simulator.network import Transport

__all__ = ["AffineMap", "TransportEndpoint"]


class AffineMap:
    """Group rank -> world rank ``first + rank * stride`` for ``size`` ranks.

    Out-of-range ranks raise, so a schedule bug cannot deliver into an
    unrelated rank's mailbox.
    """

    __slots__ = ("first", "stride", "size")

    def __init__(self, first: int, stride: int, size: int):
        self.first = first
        self.stride = stride
        self.size = size

    def __call__(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise ValueError(f"group rank {rank} out of range [0, {self.size})")
        return self.first + rank * self.stride


class TransportEndpoint:
    """Where one collective instance lives: group, envelope and cost factors.

    Parameters
    ----------
    transport:
        Shared network transport.
    context:
        Context identifier stamped on every message (the underlying MPI
        communicator's context id for both MPI and RBC collectives).
    tag:
        Tag used by this collective instance.
    size:
        The group size *within the collective*.
    to_world:
        Translation from group-local rank to world rank; defaults to the
        affine map when ``world_affine`` is given.
    word_cost_factor:
        Multiplier applied to the wire size of every message (models less
        efficient data paths inside vendor nonblocking collectives).
    per_message_delay:
        Extra local delay in microseconds before each message is injected
        (models per-message software overhead of vendor collectives).
    world_affine:
        ``(first, stride)`` when group -> world is one multiply-add; the port
        inlines it so the hot path skips the translation call entirely.
    from_world:
        World rank -> group rank (anything outside ``[0, size)`` for a
        non-member) of a group that is not affine; by default
        :meth:`rank_of` indexes ``to_world`` on first use.
    """

    __slots__ = (
        "transport",
        "context",
        "tag",
        "size",
        "to_world",
        "word_cost_factor",
        "per_message_delay",
        "_affine",
        "_from_world",
        "_hierarchy",
    )

    def __init__(self, transport: Transport, *, context, tag: int, size: int,
                 to_world: Optional[Callable[[int], int]] = None,
                 word_cost_factor: float = 1.0, per_message_delay: float = 0.0,
                 world_affine: Optional[tuple[int, int]] = None,
                 from_world: Optional[Callable[[int], Optional[int]]] = None):
        if to_world is None:
            to_world = AffineMap(world_affine[0], world_affine[1], size)
        self.transport = transport
        self.context = context
        self.tag = tag
        self.size = size
        self.to_world = to_world
        self.word_cost_factor = word_cost_factor
        self.per_message_delay = per_message_delay
        self._affine = world_affine
        self._from_world = from_world
        # hierarchy_of's answer for this group (False: not asked yet).
        self._hierarchy = False

    def rank_of(self, world_rank: int) -> int:
        """The group rank of ``world_rank``; ``ValueError`` for a non-member."""
        affine = self._affine
        if affine is not None:
            rank, off = divmod(world_rank - affine[0], affine[1])
            if not off and 0 <= rank < self.size:
                return rank
        else:
            from_world = self._from_world
            if from_world is None:
                to_world = self.to_world
                from_world = self._from_world = {
                    to_world(rank): rank for rank in range(self.size)}.get
            rank = from_world(world_rank)
            if rank is not None and 0 <= rank < self.size:
                return rank
        raise ValueError(
            f"world rank {world_rank} is not a member of this group")

    # ------------------------------------------------------------------ costs

    @property
    def cost_model(self) -> CostModel:
        """The machine cost model of the cluster executing this collective.

        Algorithm-selection heuristics (``algorithm="auto"``) must consult
        this instead of assuming flat ``alpha``/``beta`` attributes.
        """
        return self.transport.params

    @property
    def placement(self):
        """The cluster-owned rank -> (node, island) placement (world ranks)."""
        return self.transport.placement
