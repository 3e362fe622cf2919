"""Pluggable event cores for the discrete-event engine.

The engine's observable contract is a total order over events: ascending
timestamp, ties broken by insertion sequence.  How that order is *produced*
is the core's business, and this module provides two implementations behind
the :class:`EventCore` interface:

:class:`HeapCore`
    The original tuple-heap scheduler.  Every event is a
    ``(time, seq, kind, a, b)`` tuple on one binary heap; tuple comparison
    happens in C and never looks past ``seq`` because sequence numbers are
    unique.  This is the *reference* core: differential tests drive it
    against :class:`BatchedCore` and require bit-identical execution.

:class:`BatchedCore`
    A bucket (calendar) queue keyed by exact timestamps.  Events at the same
    time live in one FIFO deque; a heap orders only the *distinct* live
    times.  Pushing onto an already-live timestamp is a dict probe plus a
    deque append — no ``heapq`` at all — and the drain loop executes a
    maximal same-time run of events in one pass without re-consulting the
    heap between them.  No sequence numbers are needed: the engine only ever
    schedules at or after the current time, so all appends to a bucket happen
    in global insertion order and FIFO order *is* seq order.  Appends that
    happen while a bucket is being drained (zero-delay continuations,
    remembered notifications) land at the tail of the live bucket and are
    executed in the same pass — exactly where the heap would have put them.

Both cores additionally understand a fourth event kind, ``KIND_BATCH``: one
event carrying a list of processes to notify.  :meth:`EventCore.charge_batch`
is the entry point SPMD lockstep phases use to post one wake-up event per
*phase timestamp* instead of one per rank.  Both cores fuse identically —
``charge_batch`` is new API with no historical scheduling to preserve — so
differential runs see the same event counts in lockstep workloads too.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import SimulationLimitError

__all__ = [
    "KIND_STEP",
    "KIND_ACTION",
    "KIND_CALL",
    "KIND_BATCH",
    "EventCore",
    "HeapCore",
    "BatchedCore",
]

# Event kinds. STEP covers every process continuation: the initial step,
# wake-ups after notify, and resumes after a Sleep.
KIND_STEP = 0    # a = SimProcess, b unused
KIND_ACTION = 1  # a = zero-argument callable, b unused
KIND_CALL = 2    # a = one-argument callable, b = its argument
KIND_BATCH = 3   # a = list of SimProcess to notify, b unused


class EventCore:
    """Interface of an event store + drain loop the engine can run on."""

    __slots__ = ()

    def push(self, time: float, kind: int, a, b) -> None:
        """Insert one event; insertion order among equal times is preserved."""
        raise NotImplementedError

    def charge_batch(self, engine, times, procs) -> None:
        """Post wake-up notifications for many processes in one call."""
        raise NotImplementedError

    def run(self, engine, until):
        """Drain events, driving ``engine``; returns the final virtual time."""
        raise NotImplementedError

    def events(self) -> list:
        """Snapshot of pending events as sorted ``(time, seq, kind, a, b)``
        tuples (debugging / introspection; not a hot path)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every pending event (a run that failed leaves some behind)."""
        raise NotImplementedError

    def __bool__(self) -> bool:
        raise NotImplementedError


class HeapCore(EventCore):
    """Tuple-heap event core — the reference scheduler."""

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap: list[tuple] = []
        self._seq = 0

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: int, a, b) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, a, b))

    def charge_batch(self, engine, times, procs) -> None:
        # Same fusion as the batched core: one KIND_BATCH per distinct time,
        # ranks notified in the given order within each group.
        groups: dict[float, list] = {}
        for time, proc in zip(times, procs):
            group = groups.get(time)
            if group is None:
                groups[time] = [proc]
            else:
                group.append(proc)
        for time, group in groups.items():
            self.push(time, KIND_BATCH, group, None)

    def events(self) -> list:
        return sorted(self._heap)

    def clear(self) -> None:
        self._heap.clear()

    def run(self, engine, until):
        from .engine import SimProcess

        heap = self._heap
        heappop = heapq.heappop
        max_events = engine._max_events
        max_time = engine._max_time
        step = engine._step
        RUNNABLE = SimProcess.RUNNABLE
        FINISHED = SimProcess.FINISHED
        FAILED = SimProcess.FAILED
        # float('inf') folds the "no deadline" case into one cheap compare.
        until_bound = float("inf") if until is None else until
        events = engine._events_processed

        try:
            while heap:
                event_time = heap[0][0]
                if event_time > until_bound:
                    engine._now = until
                    return until
                events += 1
                if events > max_events:
                    raise SimulationLimitError(
                        f"event limit exceeded ({max_events}); likely livelock"
                    )
                if event_time > max_time:
                    raise SimulationLimitError(
                        f"virtual time limit exceeded ({max_time})"
                    )
                engine._now = event_time
                event = heappop(heap)
                kind = event[2]
                if kind == KIND_STEP:
                    proc = event[3]
                    state = proc.state
                    if state is not FINISHED and state is not FAILED:
                        proc.state = RUNNABLE
                        step(proc, None)
                elif kind == KIND_CALL:
                    event[3](event[4])
                elif kind == KIND_BATCH:
                    notify = engine.notify
                    for proc in event[3]:
                        notify(proc)
                else:  # KIND_ACTION
                    event[3]()
        finally:
            engine._events_processed = events
        return engine._now


class BatchedCore(EventCore):
    """Bucket/calendar event queue draining same-timestamp runs in one pass.

    ``_buckets`` maps an exact timestamp to the FIFO of events scheduled for
    it; ``_times`` is a heap over the distinct timestamps currently live.
    Equal timestamps come from equal float arithmetic (zero-delay resumes,
    uniform-delay schedules, same-phase wake-ups), so exact-key bucketing is
    the right quantisation — no epsilon merging, which would change observable
    timestamps.
    """

    __slots__ = ("_buckets", "_times")

    def __init__(self):
        self._buckets: dict[float, deque] = {}
        self._times: list[float] = []

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def push(self, time: float, kind: int, a, b) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque(((kind, a, b),))
            heapq.heappush(self._times, time)
        else:
            bucket.append((kind, a, b))

    def charge_batch(self, engine, times, procs) -> None:
        # Group wake-ups by timestamp, preserving the given (rank) order
        # within each group: one KIND_BATCH event per distinct time.
        groups: dict[float, list] = {}
        for time, proc in zip(times, procs):
            group = groups.get(time)
            if group is None:
                groups[time] = [proc]
            else:
                group.append(proc)
        for time, group in groups.items():
            self.push(time, KIND_BATCH, group, None)

    def events(self) -> list:
        out = []
        for time in sorted(self._buckets):
            for seq, (kind, a, b) in enumerate(self._buckets[time]):
                out.append((time, seq, kind, a, b))
        return out

    def clear(self) -> None:
        self._buckets.clear()
        self._times.clear()

    def run(self, engine, until):
        from .engine import SimProcess

        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        max_events = engine._max_events
        max_time = engine._max_time
        step = engine._step
        RUNNABLE = SimProcess.RUNNABLE
        FINISHED = SimProcess.FINISHED
        FAILED = SimProcess.FAILED
        until_bound = float("inf") if until is None else until
        events = engine._events_processed

        try:
            while times:
                event_time = times[0]
                if event_time > until_bound:
                    engine._now = until
                    return until
                if event_time > max_time:
                    raise SimulationLimitError(
                        f"virtual time limit exceeded ({max_time})"
                    )
                heappop(times)
                engine._now = event_time
                bucket = buckets[event_time]
                # Drain the maximal same-time run in one pass.  Events pushed
                # at the current time *during* the drain (zero-delay resumes,
                # remembered notifications) land at the tail of this bucket
                # and are executed in the same pass, in insertion order —
                # exactly the (time, seq) order of the reference heap.
                while bucket:
                    kind, a, b = bucket.popleft()
                    events += 1
                    if events > max_events:
                        raise SimulationLimitError(
                            f"event limit exceeded ({max_events}); likely livelock"
                        )
                    if kind == KIND_STEP:
                        state = a.state
                        if state is not FINISHED and state is not FAILED:
                            a.state = RUNNABLE
                            step(a, None)
                    elif kind == KIND_CALL:
                        a(b)
                    elif kind == KIND_BATCH:
                        notify = engine.notify
                        for proc in a:
                            notify(proc)
                    else:  # KIND_ACTION
                        a()
                del buckets[event_time]
        finally:
            engine._events_processed = events
        return engine._now
