"""``rbc::Request`` — the smart-pointer request handle of RBC.

An RBC request wraps the request object of the specific nonblocking operation
(a point-to-point request or a collective state machine).  The user makes
progress by calling :func:`test` (or the method of the same name); the
blocking helpers :func:`wait`, :func:`wait_all` and :func:`test_all` mirror
``rbc::Wait``, ``rbc::Waitall`` and ``rbc::Testall`` from Table I of the
paper.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..messaging import RequestSet
from ..mpi.request import Request as _InnerRequest
from ..mpi.status import Status
from ..simulator.process import RankEnv

__all__ = ["RbcRequest", "test", "test_all", "wait", "wait_all", "wait_any"]


class RbcRequest:
    """Smart pointer to the request implementing a nonblocking RBC operation."""

    __slots__ = ("env", "_inner")

    def __init__(self, env: RankEnv, inner: _InnerRequest):
        self.env = env
        self._inner = inner

    @property
    def inner(self) -> _InnerRequest:
        """The request implementing the operation.

        Hot poll loops (the sorting backends) test the inner request directly
        — one fewer call frame per poll; the smart pointer exists for API
        fidelity, not behaviour.
        """
        return self._inner

    # ------------------------------------------------------------------ probe

    def test(self) -> bool:
        """Make progress on the operation; True once it has completed locally."""
        return self._inner.test()

    @property
    def done(self) -> bool:
        return self._inner.test()

    def result(self) -> Any:
        """Outcome of the completed operation (e.g. the received payload)."""
        return self._inner.result()

    def take(self) -> Any:
        """Multi-shot consume: forward to the inner request's ``take``.

        Only meaningful for receive requests whose implementation supports
        re-arming (see :meth:`repro.messaging.RecvRequest.take`).
        """
        return self._inner.take()

    def get_status(self) -> Optional[Status]:
        return self._inner.get_status()

    # ------------------------------------------------------------------- wait

    def wait(self):
        """Generator: repeatedly test until the operation completes (rbc::Wait)."""
        # Poll the inner request directly: one fewer hop per wake-up.
        yield from self.env.wait_until(self._inner.test)
        return self._inner.result()

    def __repr__(self):
        # Never ``test()`` here: that can post sends and consume messages, and
        # printing a request must not change the simulation.
        state = {True: "done", False: "pending",
                 None: "untested"}[self._inner.peek()]
        return f"RbcRequest({type(self._inner).__name__}, {state})"


# ---------------------------------------------------------------------------
# Free functions with the paper's names (rbc::Test, rbc::Wait, ...).
# ---------------------------------------------------------------------------

def test(request: RbcRequest) -> bool:
    """``rbc::Test``: progress the request; True if the operation completed."""
    return request.test()


def test_all(requests: Iterable[RbcRequest]) -> bool:
    """``rbc::Testall``: progress every request; True if all completed."""
    done = True
    for request in requests:
        if not request.test():
            done = False
    return done


def wait(request: RbcRequest):
    """``rbc::Wait`` (generator): block until the request completes."""
    result = yield from request.wait()
    return result


def wait_all(env: RankEnv, requests: Sequence[RbcRequest]):
    """``rbc::Waitall`` (generator): block until every request completes.

    Tracks the incomplete subset so each wake-up re-tests only still-pending
    requests (O(N) across an N-request window instead of O(N²)).
    """
    tracker = RequestSet(requests)
    yield from env.wait_until(tracker.test)
    return tracker.results()


def wait_any(env: RankEnv, requests: Sequence[RbcRequest]):
    """Block until at least one request completes; returns its index."""
    found: list[Optional[int]] = [None]

    def predicate() -> bool:
        for index, request in enumerate(requests):
            if request.test():
                found[0] = index
                return True
        return False

    yield from env.wait_until(predicate)
    return found[0]
