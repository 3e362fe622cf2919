"""Discrete-event simulation engine.

The engine runs an arbitrary number of *simulated processes* (Python
generators) against a single virtual clock.  A process suspends itself by
yielding a :class:`Command`; the engine decides when to resume it.  Two
commands exist:

``Sleep(duration)``
    Resume the process after ``duration`` units of virtual time.  Used to
    charge local computation.

``WaitNotify()``
    Suspend until somebody calls :meth:`Engine.notify` for this process.
    Used by blocking communication primitives: the transport notifies a rank
    whenever a message arrives for it or one of its pending sends completes,
    and the blocked primitive then re-checks its condition.

The simulation is fully deterministic: events with equal timestamps are
ordered by their insertion sequence.

Scheduling internals
--------------------
Event storage and the drain loop live in a pluggable *event core*
(:mod:`repro.simulator.batchcore`).  The default is :class:`~repro.simulator
.batchcore.BatchedCore`, a bucket/calendar queue that executes maximal
same-timestamp runs of events in one pass and lets most pushes skip
``heapq`` entirely.  ``Engine(reference=True)`` selects
:class:`~repro.simulator.batchcore.HeapCore`, the original tuple-heap
scheduler; differential tests drive both cores over the same workload and
require bit-identical execution order, timestamps, and results.

:meth:`Engine.charge_batch` posts wake-ups for many processes in one call —
SPMD lockstep phases (:mod:`repro.core.spmd`) use it to schedule one event
per phase timestamp instead of one per rank.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .batchcore import (
    KIND_ACTION,
    KIND_CALL,
    KIND_STEP,
    BatchedCore,
    EventCore,
    HeapCore,
)
from .errors import DeadlockError, RankFailedError

__all__ = [
    "Command",
    "Sleep",
    "WaitNotify",
    "WAIT_NOTIFY",
    "Engine",
    "SimProcess",
    "run_processes",
]


class Command:
    """Base class of everything a simulated process may yield to the engine."""

    __slots__ = ()


class Sleep(Command):
    """Resume the yielding process after ``duration`` units of virtual time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        duration = float(duration)
        # A plain `duration < 0` check lets NaN through (every comparison
        # with NaN is false) and NaN would poison the event queue ordering;
        # +inf would park the process forever.  Reject both explicitly.
        if not (0.0 <= duration < float("inf")):
            raise ValueError(
                f"sleep duration must be finite and non-negative: {duration}"
            )
        self.duration = duration

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Sleep({self.duration})"


class WaitNotify(Command):
    """Suspend the yielding process until it is notified."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "WaitNotify()"


#: Shared ``WaitNotify`` instance — the command carries no state, so blocking
#: primitives yield this singleton instead of allocating one per suspension.
WAIT_NOTIFY = WaitNotify()


class SimProcess:
    """Bookkeeping for one simulated process (one generator).

    The engine tracks whether the process is currently runnable, sleeping,
    waiting for a notification, finished, or failed.  The generator's return
    value (via ``return x`` / ``StopIteration.value``) is stored in
    :attr:`result` on completion.
    """

    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"

    __slots__ = (
        "pid",
        "generator",
        "state",
        "result",
        "error",
        "finish_time",
        "_pending_notify",
    )

    def __init__(self, pid: int, generator: Generator):
        self.pid = pid
        self.generator = generator
        self.state = SimProcess.RUNNABLE
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finish_time: Optional[float] = None
        self._pending_notify = False

    @property
    def done(self) -> bool:
        return self.state in (SimProcess.FINISHED, SimProcess.FAILED)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SimProcess(pid={self.pid}, state={self.state})"


class Engine:
    """The discrete-event scheduler.

    Parameters
    ----------
    max_events:
        Safety limit on the number of processed events; exceeded means the
        simulated program is almost certainly in a livelock.
    max_time:
        Safety limit on virtual time.
    reference:
        Use the original tuple-heap event core instead of the batched
        bucket-queue core.  The observable behaviour (execution order,
        timestamps, results) is identical in both modes; the reference mode
        exists so differential tests can prove that.
    core:
        Explicit :class:`~repro.simulator.batchcore.EventCore` instance to
        run on, overriding ``reference``.  Test hook.
    """

    def __init__(self, *, max_events: int = 200_000_000, max_time: float = 1e15,
                 reference: bool = False, core: Optional[EventCore] = None):
        self._now = 0.0
        if core is None:
            core = HeapCore() if reference else BatchedCore()
        self._core = core
        self._processes: list[SimProcess] = []
        self._events_processed = 0
        self._max_events = max_events
        self._max_time = max_time
        self._reference = reference
        # Optional observability sink (repro.obs.TraceRecorder), installed
        # by Cluster(trace=...).  Every emit site guards on `is not None`
        # so the off path costs one predicate.
        self._obs = None

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def reference(self) -> bool:
        """True when the heap-only reference event core is active."""
        return self._reference

    @property
    def core(self) -> EventCore:
        """The active event core."""
        return self._core

    @property
    def _heap(self) -> list[tuple]:
        """Sorted snapshot of pending events as ``(time, seq, kind, a, b)``.

        Kept for introspection and historical callers; the live storage
        belongs to the event core and this is a copy, not the real queue.
        """
        return self._core.events()

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action()`` ``delay`` time units from now."""
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        self._core.push(time, KIND_ACTION, action, None)

    def schedule_call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute virtual time ``time``.

        Allocation-free variant of :meth:`schedule_at` for hot callers (the
        transport's deliver / sender-free events): callee and argument are
        stored directly in the event instead of a closure.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        self._core.push(time, KIND_CALL, fn, arg)

    def charge_batch(self, times: Iterable[float], procs: Iterable[SimProcess]) -> None:
        """Schedule wake-up notifications for many processes in one call.

        ``times[i]`` is the absolute virtual time at which ``procs[i]`` is
        notified.  Wake-ups sharing a timestamp are fused into a single
        event (one event per distinct time) on *both* cores, so differential
        runs see equal event counts.  Within one timestamp, processes are
        notified in the given order.
        """
        now = self._now
        times = list(times)
        for time in times:
            if time < now:
                raise ValueError(f"cannot schedule in the past: {time} < {now}")
        self._core.charge_batch(self, times, list(procs))

    # -------------------------------------------------------------- processes

    def add_process(self, generator: Generator) -> SimProcess:
        """Register a new simulated process and schedule its first step."""
        proc = SimProcess(len(self._processes), generator)
        self._processes.append(proc)
        self._schedule_step(proc)
        return proc

    @property
    def processes(self) -> tuple[SimProcess, ...]:
        return tuple(self._processes)

    def notify(self, proc: SimProcess) -> None:
        """Wake ``proc`` if it is waiting; otherwise remember the notification.

        A notification delivered while the process is running or sleeping is
        remembered so a subsequent ``WaitNotify`` returns immediately; blocked
        primitives always re-check their actual condition, so spurious
        wake-ups are harmless while lost wake-ups would deadlock.
        """
        state = proc.state
        if state == SimProcess.WAITING:
            proc.state = SimProcess.RUNNABLE
            self._schedule_step(proc)
        elif state != SimProcess.FINISHED and state != SimProcess.FAILED:
            proc._pending_notify = True

    def _schedule_step(self, proc: SimProcess) -> None:
        """Queue a zero-delay continuation of ``proc``."""
        self._core.push(self._now, KIND_STEP, proc, None)

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None) -> float:
        """Process events until none remain (or virtual time exceeds ``until``).

        Returns the final virtual time.  Raises :class:`DeadlockError` if the
        event queue drains while simulated processes are still blocked.
        """
        final = self._core.run(self, until)
        if self._core:
            # Stopped at the `until` bound with events still pending.
            return final
        blocked = [p.pid for p in self._processes if not p.done]
        if blocked:
            raise DeadlockError(blocked)
        return final

    def close(self) -> None:
        """Release what a finished (or failed) run leaves referenced.

        A run that raised leaves rank generators suspended mid-``yield`` and
        events pending; their frames and callbacks reach the environment,
        the transport and back to this engine, so they are closed and
        dropped here instead of waiting for a cyclic collection.  The
        failing rank's exception stays on the raised
        :class:`RankFailedError` (``original`` / ``__cause__``); the copy in
        :attr:`SimProcess.error` is dropped because its traceback holds the
        :meth:`_step` frame, which holds the process.  Results, finish
        times, states and :attr:`events_processed` stay readable.
        """
        self._core.clear()
        for proc in self._processes:
            if not proc.done:
                try:
                    proc.generator.close()
                except Exception:  # noqa: BLE001
                    # A program whose cleanup raises (or that swallows
                    # GeneratorExit) must not mask the run's own error.
                    pass
            proc.error = None

    # --------------------------------------------------------------- stepping

    def _step(self, proc: SimProcess, send_value) -> None:
        """Resume ``proc`` and interpret the command it yields next."""
        state = proc.state
        if state is SimProcess.FINISHED or state is SimProcess.FAILED:
            return
        try:
            command = proc.generator.send(send_value)
        except StopIteration as stop:
            proc.state = SimProcess.FINISHED
            proc.result = stop.value
            proc.finish_time = self._now
            return
        except BaseException as exc:  # noqa: BLE001 - surface rank failures
            proc.state = SimProcess.FAILED
            proc.error = exc
            proc.finish_time = self._now
            raise RankFailedError(proc.pid, exc) from exc

        # Fast dispatch: blocking primitives yield the shared WAIT_NOTIFY
        # singleton, by far the most common command.
        if command is WAIT_NOTIFY or isinstance(command, WaitNotify):
            if proc._pending_notify:
                proc._pending_notify = False
                proc.state = SimProcess.RUNNABLE
                self._schedule_step(proc)
            else:
                proc.state = SimProcess.WAITING
        elif isinstance(command, Sleep):
            proc.state = SimProcess.SLEEPING
            duration = command.duration
            obs = self._obs
            if obs is not None and duration > 0.0:
                if obs.suppress_compute != proc.pid:
                    # pid == rank for cluster runs (procs added in rank
                    # order).
                    obs.spans.append((proc.pid, self._now,
                                      self._now + duration,
                                      "compute", "compute"))
                else:
                    # The yielding site emitted its own categorized span
                    # for this charge (e.g. comm_create).
                    obs.suppress_compute = -1
            self._core.push(self._now + duration, KIND_STEP, proc, None)
        else:
            raise TypeError(
                f"process {proc.pid} yielded {command!r}; expected a Command"
            )


def run_processes(generators: Iterable[Generator], **engine_kwargs) -> list[Any]:
    """Convenience helper: run a set of generators to completion, return results."""
    engine = Engine(**engine_kwargs)
    procs = [engine.add_process(g) for g in generators]
    engine.run()
    return [p.result for p in procs]
