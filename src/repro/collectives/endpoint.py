"""Endpoint adapter binding a collective instance to a communicator and a tag.

A collective schedule only speaks in group-local ranks.  The endpoint
translates these to world ranks, stamps the communicator's context and the
collective's tag onto every message, and applies the cost model of the layer
executing the collective (native MPI implementations may pay extra per-word
and per-message overheads — see :mod:`repro.mpi.vendor`).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..messaging import RecvRequest
from ..simulator.costmodel import CostModel
from ..simulator.network import Transport, payload_words
from ..simulator.process import RankEnv

__all__ = ["TransportEndpoint"]


class TransportEndpoint:
    """Point-to-point adapter used by collective state machines.

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
        # (first, stride) when group -> world is one multiply-add; inlined in
        # isend/irecv so the hot path skips the translation call entirely.
        self._affine = world_affine

    # ------------------------------------------------------------------- p2p

    def isend(self, payload, dest: int, *, local_delay: float = 0.0,
              words: Optional[int] = None):
        """Nonblocking send of ``payload`` to group rank ``dest``.

        Returns the transport's :class:`~repro.simulator.network.SendHandle`,
        which implements the request protocol (``test``/``result``) directly.
        ``words`` is the payload's word count when the caller already knows
        it (a forwarder read it off the message it received); it travels on
        with the message unscaled, whatever the wire is charged.
        """
        if words is None:
            words = payload_words(payload)
        factor = self.word_cost_factor
        wire_words = words if factor == 1.0 else int(round(words * factor))
        affine = self._affine
        # The bounds check keeps the fail-loud behaviour of to_world for
        # out-of-range group ranks (a schedule bug must not silently deliver
        # into an unrelated rank's mailbox).
        dst = (affine[0] + dest * affine[1]) \
            if affine is not None and 0 <= dest < self.size \
            else self.to_world(dest)
        return self.transport.post_send(
            self.env.rank,
            dst,
            self.tag,
            self.context,
            payload,
            wire_words,
            local_delay + self.per_message_delay,
            words,
        )

    def irecv(self, source: int) -> RecvRequest:
        """Nonblocking receive from group rank ``source`` on this collective's tag."""
        affine = self._affine
        src = (affine[0] + source * affine[1]) \
            if affine is not None and 0 <= source < self.size \
            else self.to_world(source)
        return RecvRequest(
            self.env,
            self.transport,
            self.context,
            src,
            self.tag,
        )

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

    def op_delay(self, words: int) -> float:
        """Local time to apply a reduction operator to ``words`` words."""
        return self.env.params.compute_cost(words)
