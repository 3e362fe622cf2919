"""Cluster façade: run a rank program on ``p`` simulated processes, on the
default cluster or on the oracle (``reference_engine=True``)."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from .costmodel import CostModel, NetworkParams, Placement
from .engine import Engine
from .network import IndexedMailbox, LinearScanMailbox, Transport
from .process import RankEnv
from .trace import TraceStats, Tracer

__all__ = ["Cluster", "ClusterResult", "run_program", "add_run_observer",
           "remove_run_observer"]

#: Callbacks invoked with every :class:`ClusterResult` a cluster produces.
#: The benchmark harness registers its telemetry sink here so that *every*
#: simulation is counted, no matter which code path constructed the cluster.
_run_observers: list[Callable[["ClusterResult"], None]] = []


def add_run_observer(observer: Callable[["ClusterResult"], None]) -> None:
    """Register ``observer`` to be called with every finished run's result."""
    if observer not in _run_observers:
        _run_observers.append(observer)


def remove_run_observer(observer: Callable[["ClusterResult"], None]) -> None:
    """Unregister a previously added run observer (missing ones are ignored)."""
    if observer in _run_observers:
        _run_observers.remove(observer)


@dataclass
class ClusterResult:
    """Outcome of one simulated run.

    Attributes
    ----------
    results:
        Per-rank return values of the rank program.
    finish_times:
        Per-rank virtual completion times (microseconds).
    total_time:
        Virtual time when the last rank finished.
    stats:
        Aggregate communication statistics.
    events_processed:
        Number of discrete events the engine processed for this run (the
        benchmark harness reports it alongside wall-clock and virtual time).
    """

    results: list[Any]
    finish_times: list[float]
    total_time: float
    stats: TraceStats
    events_processed: int = 0
    #: Transport message-pool effectiveness counters
    #: (:meth:`~repro.simulator.network.Transport.message_pool_stats`).
    message_pool: Optional[dict] = None
    #: Unified observability snapshot: tier-attribution counters (phases
    #: priced per execution tier, lockstep refusals, fast-forward
    #: fallbacks, scalar collectives), message-pool hit rates, lazy
    #: mailbox materialisation and ``tier_declined`` (``{reason: count}`` of
    #: the faster tiers asked for that did not run) — one dict, always
    #: populated by :meth:`Cluster.run`.
    obs: Optional[dict] = None
    #: The structured trace recorder when the run was started with
    #: ``trace=...`` (a finalized :class:`repro.obs.TraceRecorder`).
    trace: Optional[Any] = None

    @property
    def max_finish_time(self) -> float:
        return max(self.finish_times) if self.finish_times else 0.0

    def per_rank(self, index: int) -> Any:
        return self.results[index]


class Cluster:
    """A simulated machine with ``num_ranks`` single-ported processes.

    The cluster owns the machine description: the cost model (``params``, any
    :class:`~repro.simulator.costmodel.CostModel` — flat
    :class:`~repro.simulator.costmodel.NetworkParams` by default) and the
    rank -> (node, island) ``placement`` hierarchical models price links
    from.  When no placement is given the cost model's default is used
    (flat: everything on one node; hierarchical: dense block placement of
    the model's machine shape).

    ``reference_engine=True`` is the *oracle*, every original implementation
    at once: the engine's tuple-heap event core instead of the batched
    bucket-queue core (:mod:`repro.simulator.batchcore`), linear-scan
    mailboxes, every collective priced event by event whatever the program
    opted into (:func:`repro.core.spmd.lockstep_eligible`), Janus Quicksort
    on the per-rank frontier.  The default cluster is the only other
    configuration — its fast paths engage from what the code observes — and
    must equal the oracle bit for bit or refuse; differential tests and
    ``perfbench pin --oracle`` check that one pairing.

    A cluster instance is single-use: build it, call :meth:`run`, inspect the
    result.  (Re-running would need fresh engine state; constructing a new
    cluster is cheap.)  It is also torn down: before :meth:`run` returns or
    raises it releases wake-up hooks, suspended rank generators, pending
    events, the lockstep coordinator's phases and the hierarchy views; the
    result, the engine's counters, the transport's port state and
    statistics and the per-rank environments stay readable.  The object
    graph of a simulation is acyclic, so :meth:`run` pauses Python's cyclic
    collector while it executes (restoring the caller's setting) and
    dropping the cluster frees it by reference counting.
    """

    def __init__(self, num_ranks: int, params: Optional[CostModel] = None,
                 *, placement: Optional[Placement] = None,
                 max_events: int = 200_000_000,
                 reference_engine: bool = False,
                 trace: Any = None):
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.params = params or NetworkParams.default()
        self.placement = placement if placement is not None \
            else self.params.default_placement(num_ranks)
        self.engine = Engine(max_events=max_events, reference=reference_engine)
        self.tracer = Tracer(num_ranks)
        self.transport = Transport(
            self.engine, num_ranks, self.params, self.tracer,
            placement=self.placement,
            mailbox_factory=LinearScanMailbox if reference_engine
            else IndexedMailbox)
        self.envs = [
            RankEnv(rank, num_ranks, self.engine, self.transport)
            for rank in range(num_ranks)
        ]
        # Opt-in structured tracing: trace=True builds a fresh recorder,
        # or pass a repro.obs.TraceRecorder instance directly.  The
        # recorder is installed on the engine and transport; every other
        # emit site (SPMD phases, batched tier, scalar collectives, RBC
        # comm creation) reads it from there.
        if trace is True:
            from repro.obs import TraceRecorder
            trace = TraceRecorder(num_ranks)
        self.trace = trace or None
        if self.trace is not None:
            if self.trace.num_ranks == 0:
                self.trace.num_ranks = num_ranks
            self.engine._obs = self.trace
            self.transport._obs = self.trace
        self._ran = False

    def _obs_snapshot(self) -> dict:
        """Unified tier-attribution + resource counters for this run."""
        transport = self.transport
        snapshot = {
            "scalar_collectives": transport.scalar_collectives,
            "phases_lockstep": 0,
            "phases_fastforward": 0,
            "phases_batched": 0,
            "lockstep_refusals": 0,
            "fastforward_fallbacks": 0,
            "mailboxes_materialized": transport.mailboxes_materialized(),
            "tier_declined": dict(transport.tier_declined),
        }
        coordinator = transport._spmd_coordinator
        if coordinator is not None:
            for tier, count in coordinator.tier_phases.items():
                snapshot[f"phases_{tier}"] = \
                    snapshot.get(f"phases_{tier}", 0) + count
            snapshot["lockstep_refusals"] = coordinator.refusals
            snapshot["fastforward_fallbacks"] = \
                coordinator.fastforward_fallbacks
        snapshot.update(transport.message_pool_stats())
        return snapshot

    def _teardown(self) -> None:
        """Release what no caller can use once the run is over."""
        self.engine.close()
        self.transport.close()
        for env in self.envs:
            env._proc = None

    def run(self, program: Callable, *args,
            rank_args: Optional[Sequence[tuple]] = None,
            rank_kwargs: Optional[Sequence[dict]] = None,
            **kwargs) -> ClusterResult:
        """Execute ``program(env, *args, **kwargs)`` on every rank.

        ``rank_args`` / ``rank_kwargs`` optionally provide per-rank positional
        and keyword arguments (e.g. each rank's slice of the input data); they
        are appended to / merged with the shared ones.
        """
        if self._ran:
            raise RuntimeError("Cluster instances are single-use; create a new one")
        self._ran = True

        # Collector paused from rank construction to result assembly:
        # nothing below creates cyclic garbage, and a generation-2 pass
        # walks every live object of all p ranks.
        collect = gc.isenabled()
        gc.disable()
        try:
            procs = []
            for rank in range(self.num_ranks):
                env = self.envs[rank]
                extra_args = tuple(rank_args[rank]) if rank_args is not None else ()
                extra_kwargs = dict(rank_kwargs[rank]) if rank_kwargs is not None else {}
                gen = program(env, *args, *extra_args, **kwargs, **extra_kwargs)
                proc = self.engine.add_process(gen)
                env._proc = proc
                # Bind the wake-up hook straight to engine.notify(proc): the
                # per-delivery call chain is one hop instead of three.
                self.transport.set_notify_hook(rank, partial(self.engine.notify, proc))
                procs.append(proc)

            total_time = self.engine.run()
            results = [p.result for p in procs]
            finish_times = [p.finish_time if p.finish_time is not None else total_time
                            for p in procs]
            obs = self._obs_snapshot()
            if self.trace is not None:
                self.trace.finalize(total_time, finish_times, obs)
            result = ClusterResult(
                results=results,
                finish_times=finish_times,
                total_time=total_time,
                stats=self.tracer.stats,
                events_processed=self.engine.events_processed,
                message_pool=self.transport.message_pool_stats(),
                obs=obs,
                trace=self.trace,
            )
            for observer in _run_observers:
                observer(result)
            return result
        finally:
            self._teardown()
            if collect:
                gc.enable()


def run_program(num_ranks: int, program: Callable, *args,
                params: Optional[CostModel] = None,
                placement: Optional[Placement] = None,
                rank_args: Optional[Sequence[tuple]] = None,
                rank_kwargs: Optional[Sequence[dict]] = None,
                reference_engine: bool = False,
                trace: Any = None,
                **kwargs) -> ClusterResult:
    """One-shot convenience wrapper around :class:`Cluster`."""
    cluster = Cluster(num_ranks, params, placement=placement,
                      reference_engine=reference_engine,
                      trace=trace)
    return cluster.run(program, *args, rank_args=rank_args,
                       rank_kwargs=rank_kwargs, **kwargs)
