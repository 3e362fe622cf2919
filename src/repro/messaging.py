"""Message-envelope status and request objects for nonblocking operations.

This module sits directly on top of the simulator transport and below both
the simulated MPI layer and RBC: every nonblocking operation of either layer
returns one of these requests (or a wrapper around one).  Calling
:meth:`Request.test` makes local progress and reports completion;
:meth:`Request.wait` is a generator that blocks the calling rank until the
request completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from .simulator.network import ANY_SOURCE, ANY_TAG, Transport, payload_words
from .simulator.process import RankEnv

__all__ = [
    "Status",
    "Request",
    "CompletedRequest",
    "SendRequest",
    "RecvRequest",
    "RequestSet",
    "test_all",
    "test_any",
    "wait_all",
    "wait_any",
]


def _identity_rank(world: int) -> int:
    """Default source translation: world rank is the communicator rank.

    Module-level so that every :class:`RecvRequest` without an explicit
    translator shares one function object instead of allocating a lambda per
    receive.
    """
    return world


@dataclass(slots=True)
class Status:
    """Envelope information of a received or probed message (``MPI_Status``).

    Attributes
    ----------
    source:
        Rank of the sender, expressed in the communicator the receive or
        probe was issued on (RBC rank for RBC operations, MPI rank for MPI
        operations).
    tag:
        Tag of the message.
    count:
        Number of machine words of the payload.
    """

    source: int = -1
    tag: int = -1
    count: int = 0
    cancelled: bool = False

    def get_source(self) -> int:
        return self.source

    def get_tag(self) -> int:
        return self.tag

    def get_count(self) -> int:
        return self.count


class Request:
    """Abstract nonblocking-operation handle."""

    __slots__ = ()

    #: Environment of the rank that owns the request (used by ``wait``).
    env: RankEnv

    def test(self) -> bool:
        """Make progress; return True once the operation has completed."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return self.test()

    def peek(self) -> Optional[bool]:
        """Completion as far as it can be read *without* making progress.

        ``test()`` may post sends and consume messages; ``peek`` never does,
        which is what ``repr`` and a debugger need.  ``None`` means only
        ``test()`` can tell.
        """
        return None

    def wait(self):
        """Generator: block the calling rank until the operation completes."""
        yield from self.env.wait_until(self.test)
        return self.result()

    def result(self) -> Any:
        """Operation outcome (received data for receives, None otherwise)."""
        return None

    def get_status(self) -> Optional[Status]:
        """Status of the completed operation, if applicable."""
        return None


class CompletedRequest(Request):
    """A request that is already complete (e.g. send/recv to ``PROC_NULL``)."""

    __slots__ = ("env", "_value", "_status")

    def __init__(self, env: RankEnv, value: Any = None, status: Optional[Status] = None):
        self.env = env
        self._value = value
        self._status = status

    def test(self) -> bool:
        return True

    peek = test

    def result(self) -> Any:
        return self._value

    def get_status(self) -> Optional[Status]:
        return self._status


class SendRequest(Request):
    """Handle of a nonblocking send; completes when the send buffer is free."""

    __slots__ = ("env", "_handle")

    def __init__(self, env: RankEnv, handle):
        self.env = env
        self._handle = handle

    def test(self) -> bool:
        return self._handle.done

    def peek(self) -> bool:
        # The handle's own test would arm the sender's wake-up event.
        handle = self._handle
        return handle._engine._now >= handle.complete_time


class RecvRequest(Request):
    """Handle of a nonblocking receive.

    ``test()`` attempts to match an arrived message in the rank's mailbox.
    The optional ``source_filter`` supports RBC's wildcard semantics: when
    receiving with ``ANY_SOURCE`` on a range-based communicator, only messages
    whose sender belongs to the range may be matched.
    """

    __slots__ = ("env", "_transport", "_context", "_source_world", "_tag",
                 "_source_filter", "_translate_source", "_message", "_status",
                 "_mailbox", "_key")

    def __init__(self, env: RankEnv, transport: Transport,
                 context=None, source_world: int = ANY_SOURCE, tag: int = ANY_TAG,
                 source_filter: Optional[Callable[[int], bool]] = None,
                 translate_source: Optional[Callable[[int], int]] = None):
        self.env = env
        self._translate_source = translate_source or _identity_rank
        self._message = None
        self._status: Optional[Status] = None
        # Wildcard-free receives — the overwhelmingly common case — poll the
        # destination mailbox directly with their exact (context, src, tag)
        # key: one dict probe per test instead of a transport call chain.
        # The wildcard-only fields stay unset on this path (``__slots__``
        # without value): nothing reads them when ``_mailbox`` is set, and a
        # receive is constructed for every message in the simulation.
        if source_world != ANY_SOURCE and tag != ANY_TAG:
            self._mailbox = transport.mailbox_of(env.rank)
            self._key = (context, source_world, tag)
        else:
            self._mailbox = None
            self._key = None
            self._transport = transport
            self._context = context
            self._source_world = source_world
            self._tag = tag
            self._source_filter = source_filter

    def test(self) -> bool:
        if self._message is not None:
            return True
        if self._mailbox is not None:
            message = self._mailbox.take_exact(self._key)
        else:
            message = self._match()
        if message is None:
            return False
        self._message = message
        return True

    def peek(self) -> bool:
        return self._message is not None

    def _match(self):
        transport = self._transport
        rank = self.env.rank
        if self._source_world != ANY_SOURCE or self._source_filter is None:
            return transport.take_match(rank, self._source_world, self._tag, self._context)
        # Wildcard receive restricted to a subset of senders (RBC ranges):
        # take the earliest arrived message whose sender qualifies.
        return transport.take_match_where(rank, self._tag, self._context,
                                          self._source_filter)

    def result(self) -> Any:
        if self._message is None:
            return None
        return self._message.payload

    def take(self) -> Any:
        """Return the matched payload and re-arm the request (multi-shot).

        After ``take`` the request is incomplete again; the next ``test()``
        matches the next message with the same envelope/filter.  Drain-style
        receive loops (the sorters' data exchanges) use this to consume a
        stream of same-envelope messages through one request object instead
        of allocating a request per message.  Call only when ``test()`` has
        returned True.

        The drained message is provably dead here — matched out of its
        mailbox, payload extracted, request re-armed — so it is recycled
        into the transport's free list
        (:meth:`~repro.simulator.network.Transport.release_message`).
        """
        message = self._message
        self._message = None
        self._status = None
        payload = message.payload
        self.env.transport.release_message(message)
        return payload

    def get_status(self) -> Optional[Status]:
        # The Status object is built lazily on first demand: most receives
        # (collective state machines, data exchanges) never look at it, so
        # eager construction was pure per-message garbage.
        status = self._status
        if status is None:
            message = self._message
            if message is None:
                return None
            status = self._status = Status(
                source=self._translate_source(message.src),
                tag=message.tag,
                count=message.words,
            )
        return status


# --------------------------------------------------------------------------
# Request-set helpers (MPI_Testall / MPI_Waitall / MPI_Waitany analogues).
# --------------------------------------------------------------------------

class RequestSet:
    """Incremental completion tracking over a set of requests.

    Re-polling a whole N-request window on every wake-up makes completion
    O(N²) across the window's lifetime; a :class:`RequestSet` remembers which
    requests are still incomplete and re-tests only those, so each request is
    polled past completion exactly once (O(N) total plus the genuine pending
    polls).  The relative test order of still-pending requests is preserved,
    which keeps request side effects (mailbox matching) deterministic.
    """

    __slots__ = ("requests", "_pending")

    def __init__(self, requests: Iterable[Request]):
        self.requests = list(requests)
        self._pending = list(self.requests)

    def test(self) -> bool:
        """Progress the incomplete requests; True once all have completed."""
        pending = self._pending
        if not pending:
            return True
        write = 0
        for request in pending:
            if not request.test():
                pending[write] = request
                write += 1
        del pending[write:]
        return not pending

    @property
    def done(self) -> bool:
        return self.test()

    def results(self) -> list:
        """Results of all requests (call once :meth:`test` returned True)."""
        return [request.result() for request in self.requests]


def test_all(requests: Iterable[Request]) -> bool:
    """True once every request in the set has completed (progresses all).

    Stateless one-shot variant; loops that re-test the same window should
    hold a :class:`RequestSet` (or use :func:`wait_all`) instead so completed
    requests are not re-polled on every wake-up.
    """
    done = True
    for request in requests:
        if not request.test():
            done = False
    return done


def test_any(requests: Sequence[Request]) -> tuple[bool, Optional[int]]:
    """(True, index) for the first completed request, else (False, None)."""
    for index, request in enumerate(requests):
        if request.test():
            return True, index
    return False, None


def wait_all(env: RankEnv, requests: Sequence[Request]):
    """Generator: block until every request has completed; return results.

    Tracks the incomplete subset so every wake-up re-tests only the requests
    that are still pending (O(N) across an N-request window instead of O(N²)).
    """
    tracker = RequestSet(requests)
    yield from env.wait_until(tracker.test)
    return tracker.results()


def wait_any(env: RankEnv, requests: Sequence[Request]):
    """Generator: block until at least one request completes; return its index."""
    found: list[Optional[int]] = [None]

    def predicate() -> bool:
        ok, index = test_any(requests)
        if ok:
            found[0] = index
        return ok

    yield from env.wait_until(predicate)
    return found[0]
