"""Per-rank execution environment handed to simulated rank programs."""

from __future__ import annotations

from typing import Callable, Optional

from .costmodel import CostModel
from .engine import WAIT_NOTIFY, Engine, Sleep
from .network import Transport

__all__ = ["RankEnv"]


class RankEnv:
    """Everything a rank program needs to talk to the simulated machine.

    A rank program is a generator function ``program(env, ...)``.  All
    suspending operations offered here are generators themselves and must be
    invoked with ``yield from``::

        def program(env):
            yield from env.compute(100)          # charge 100 elementary ops
            yield from env.wait_until(pred)      # block until pred() is true

    The environment also exposes the shared :class:`Transport` so the MPI and
    RBC layers can post and match messages.
    """

    __slots__ = ("rank", "size", "engine", "transport", "params", "_proc",
                 "lockstep_collectives")

    def __init__(self, rank: int, size: int, engine: Engine, transport: Transport):
        self.rank = rank
        self.size = size
        self.engine = engine
        self.transport = transport
        self.params: CostModel = transport.params
        self._proc = None  # filled in by the cluster once the process exists
        # Opt-in for SPMD lockstep collective pricing (repro.core.spmd).
        # Only programs that keep member ports quiet between collectives may
        # enable it; see the module docstring over there for the contract.
        # A declaration, not a switch: the oracle cluster ignores it.
        self.lockstep_collectives = False

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.engine._now

    # ------------------------------------------------------------ suspension

    def sleep(self, duration: float):
        """Suspend for ``duration`` microseconds of virtual time."""
        if duration > 0:
            yield Sleep(duration)

    def compute(self, operations: float):
        """Charge ``operations`` elementary local operations (gamma each)."""
        cost = self.params.compute_cost(operations)
        if self.transport.tracer is not None:
            self.transport.tracer.record_compute(self.rank, cost)
        if cost > 0:
            yield Sleep(cost)

    def compute_time(self, duration: float):
        """Charge an explicit amount of local time (already in microseconds)."""
        if self.transport.tracer is not None:
            self.transport.tracer.record_compute(self.rank, duration)
        if duration > 0:
            yield Sleep(duration)

    def wait_until(self, predicate: Callable[[], bool]):
        """Block until ``predicate()`` returns true.

        The predicate is re-evaluated every time this rank is notified (a
        message arrived for it or one of its sends completed).  Predicates may
        have side effects — nonblocking request ``test()`` methods make
        progress exactly when they are polled, mirroring the paper's
        progression-by-``Test`` design.
        """
        while not predicate():
            yield WAIT_NOTIFY

    def wait_notify(self):
        """Block until the next notification for this rank (low-level)."""
        yield WAIT_NOTIFY

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RankEnv(rank={self.rank}, size={self.size})"
