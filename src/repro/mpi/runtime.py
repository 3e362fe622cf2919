"""Per-rank state of the simulated MPI library."""

from __future__ import annotations

from typing import Optional, Union

from ..simulator.process import RankEnv
from .comm import MpiCommunicator
from .context import ContextIdPool, TupleContextId
from .group import MpiGroup
from .vendor import VendorModel, get_vendor

__all__ = ["MpiRuntime", "init_mpi"]


class MpiRuntime:
    """Everything one simulated process knows about its MPI library.

    Holds the process's context-ID pool (the bit mask used for communicator
    creation), the vendor cost model, and the counter used by the Section VI
    ``MPI_Icomm_create_group`` proposal.  Communicators reference their
    runtime, never the other way round (no reference cycle per rank):
    COMM_WORLD — all ranks of the cluster, context ID 0 — is what
    :func:`init_mpi` returns.
    """

    __slots__ = ("env", "vendor", "context_pool", "creation_counter")

    WORLD_CONTEXT_ID = 0

    def __init__(self, env: RankEnv, vendor: Union[str, VendorModel] = "generic"):
        self.env = env
        self.vendor = get_vendor(vendor)
        self.context_pool = ContextIdPool(reserved=(self.WORLD_CONTEXT_ID,))
        #: Counter `b` of the Section VI proposal (per-process creation counter).
        self.creation_counter = 0

    # ----------------------------------------------------------------- context

    def release_context(self, context_id) -> None:
        """Release an integer context id; tuple context ids need no bookkeeping."""
        if isinstance(context_id, int) and context_id != self.WORLD_CONTEXT_ID:
            self.context_pool.release(context_id)

    def next_creation_counter(self) -> int:
        value = self.creation_counter
        self.creation_counter += 1
        return value

    def make_communicator(self, group: MpiGroup, context_id) -> MpiCommunicator:
        return MpiCommunicator(self, group, context_id)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MpiRuntime(rank={self.env.rank}, vendor={self.vendor.name})"


def init_mpi(env: RankEnv, vendor: Union[str, VendorModel] = "generic") -> MpiCommunicator:
    """Initialise the simulated MPI library on this rank; returns COMM_WORLD.

    Mirrors ``MPI_Init`` + ``MPI_COMM_WORLD``: call it once at the top of a
    rank program::

        def program(env):
            world = init_mpi(env, vendor="intel")
            ...

    The world group is immutable and the same on every rank, so the ranks
    of one transport share one, interned on it (``Transport.intern``).
    """
    transport = env.transport
    key = ("mpi world group", env.size)
    group = transport._interned.get(key)
    if group is None:
        group = transport.intern(key, MpiGroup.contiguous(0, env.size - 1))
    return MpiRuntime(env, vendor).make_communicator(
        group, MpiRuntime.WORLD_CONTEXT_ID)
