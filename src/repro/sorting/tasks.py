"""Cooperative multi-tasking of sorting subtasks within one simulated process.

A *janus process* of Janus Quicksort works on two subtasks at the same time:
"Janus processes perform all local operations on both groups simultaneously
before they communicate again.  All communication operations are then executed
in nonblocking mode, again on both groups simultaneously" (Section VII).

We realise this with a tiny per-process task scheduler.  Each subtask is an
ordinary Python generator (a *task coroutine*) that yields one of three
directives:

``Pending(requests)``
    Wait — without blocking the process — until every request in the list has
    completed.  Other task coroutines of the same process keep running.
    A *bare request* (any object with a ``test()`` method) may be yielded
    directly as shorthand for a single-request window — the hot case, spared
    the ``Pending`` wrapper allocation.

``Blocking(generator)``
    Run an environment-level generator to completion, blocking the *whole*
    process (used for local computation and, in the native-MPI backend, for
    blocking communicator creation — which is exactly what makes that backend
    slow).  The generator's return value is sent back into the coroutine.

``Spawn(coroutine)``
    Add a new task coroutine (the janus's second subtask).  The spawning
    coroutine keeps running first, so the order in which a janus enters the
    two subtasks (and thus the communicator-creation *schedule*) is decided by
    which subtask the parent coroutine continues as.

The scheduler itself is an environment-level generator: when every coroutine
is waiting on ``Pending`` requests, it suspends the process until one of them
can make progress.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from ..messaging import RequestSet
from ..simulator.engine import WAIT_NOTIFY
from ..simulator.process import RankEnv

__all__ = ["Pending", "Blocking", "Spawn", "run_task_scheduler"]


class Pending:
    """Wait (cooperatively) until all ``requests`` have completed.

    Completion is tracked incrementally (via :class:`~repro.messaging.RequestSet`):
    every :meth:`ready` poll re-tests only the requests that were still
    incomplete last time, so a window of N requests costs O(N) tests over its
    lifetime instead of O(N²).

    (All three directives are plain ``__slots__`` classes: they are allocated
    once or more per task level, and a dataclass with a ``__dict__`` was
    measurable on the scheduling hot path.)
    """

    __slots__ = ("requests", "_tracker")

    def __init__(self, requests):
        self.requests = requests
        # Completion tester: the request itself for the (hot) single-request
        # window, a RequestSet otherwise — both expose ``test()``.
        self._tracker: Optional[Any] = None

    def ready(self) -> bool:
        tracker = self._tracker
        if tracker is None:
            requests = self.requests
            tracker = self._tracker = (
                requests[0] if len(requests) == 1 else RequestSet(requests))
        return tracker.test()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Pending({self.requests!r})"


class Blocking:
    """Run an env-level generator, blocking the whole process."""

    __slots__ = ("generator",)

    def __init__(self, generator: Generator):
        self.generator = generator


class Spawn:
    """Register an additional task coroutine with the scheduler."""

    __slots__ = ("coroutine",)

    def __init__(self, coroutine: Generator):
        self.coroutine = coroutine


class _Entry:
    __slots__ = ("coroutine", "waiting", "send_value", "done", "result")

    def __init__(self, coroutine: Generator):
        self.coroutine = coroutine
        #: Zero-argument readiness callable of the open window (None if
        #: runnable): ``Pending.ready`` or a bare request's ``test``.
        self.waiting: Optional[Any] = None
        self.send_value: Any = None
        self.done = False
        self.result: Any = None


def run_task_scheduler(env: RankEnv, coroutines: Iterable[Generator]):
    """Drive a set of task coroutines to completion (env-level generator).

    Returns the list of coroutine return values in completion-registration
    order (initial coroutines first, spawned ones appended as they appear).
    """
    entries: List[_Entry] = [_Entry(coroutine=c) for c in coroutines]

    if len(entries) == 1:
        # Single-chain fast path: a run that never spawns a janus subtask
        # (always the case at n == p) is one coroutine driven straight — no
        # sweep generator, no window bookkeeping, and one stack frame less
        # per engine resume.  The directive handling
        # and the test()-call sequence are identical to the generic loop
        # below, so request state machines progress exactly the same; on the
        # first Spawn the entry falls through to the generic scheduler in
        # the state the sweep would have left it (runnable, spawning entry
        # resumed first).
        entry = entries[0]
        coroutine = entry.coroutine
        spawned = False
        while not spawned:
            try:
                directive = coroutine.send(entry.send_value)
            except StopIteration as stop:
                entry.done = True
                entry.result = stop.value
                return [stop.value]
            entry.send_value = None
            cls = directive.__class__
            if cls is Pending:
                if directive.ready():
                    continue
                waiting = directive.ready
            elif cls is Blocking:
                entry.send_value = yield from directive.generator
                continue
            elif cls is Spawn:
                entries.append(_Entry(coroutine=directive.coroutine))
                spawned = True
                continue
            else:
                tester = getattr(directive, "test", None)
                if tester is None:
                    raise TypeError(
                        f"task coroutine yielded {directive!r}; expected "
                        "Pending, Blocking, Spawn or a testable request")
                if tester():
                    continue
                waiting = tester
            while not waiting():
                yield WAIT_NOTIFY

    unfinished = len(entries)

    def sweep():
        """Advance every runnable coroutine as far as possible.

        Entries whose ``Pending`` window is still open are skipped — the wake
        predicate (``any_entry_ready``) is the single place that polls and
        consumes readiness, so each wake-up tests every waiting window exactly
        once instead of twice.

        This is a generator because a ``Blocking`` directive must suspend the
        whole process; it is driven with ``yield from`` below.
        """
        nonlocal unfinished
        index = 0
        while index < len(entries):
            entry = entries[index]
            index += 1
            if entry.done or entry.waiting is not None:
                continue
            while True:
                try:
                    directive = entry.coroutine.send(entry.send_value)
                except StopIteration as stop:
                    entry.done = True
                    entry.result = stop.value
                    unfinished -= 1
                    break
                entry.send_value = None
                cls = directive.__class__
                if cls is Pending:
                    if directive.ready():
                        continue
                    entry.waiting = directive.ready
                    break
                if cls is Blocking:
                    entry.send_value = yield from directive.generator
                    continue
                if cls is Spawn:
                    entries.append(_Entry(coroutine=directive.coroutine))
                    unfinished += 1
                    continue
                # Bare single request (the hot case): poll its test() directly.
                tester = getattr(directive, "test", None)
                if tester is None:
                    raise TypeError(
                        f"task coroutine yielded {directive!r}; expected "
                        "Pending, Blocking, Spawn or a testable request")
                if tester():
                    continue
                entry.waiting = tester
                break

    def any_entry_ready() -> bool:
        """Poll every open window once; release the entries that completed."""
        found = False
        for e in entries:
            waiting = e.waiting
            if waiting is not None and not e.done and waiting():
                e.waiting = None
                e.send_value = None
                found = True
        return found

    while True:
        yield from sweep()
        if not unfinished:
            break
        # Every remaining coroutine waits on requests; suspend the process
        # until at least one of them can continue.  Testing the requests makes
        # progress on their state machines, mirroring progression-by-Test.
        # The wait loop is inlined (no env.wait_until generator per cycle):
        # this resume path runs on every wake-up of every rank.
        while not any_entry_ready():
            yield WAIT_NOTIFY

    return [entry.result for entry in entries]
