"""RBC point-to-point communication (Section V-C of the paper).

All operations take RBC ranks and a user tag; internally they call the
corresponding operation of the underlying MPI communicator with the
translated MPI rank and the *same* tag (RBC cannot add context information of
its own).  The interesting part is wildcard handling: a probe or receive with
``ANY_SOURCE`` may only match messages whose sender belongs to the RBC
communicator's range, which RBC implements by probing for *any* message and
checking membership of the source — exactly as described in the paper.
"""

from __future__ import annotations

from typing import Optional

from ..messaging import RecvRequest
from ..mpi.datatypes import ANY_SOURCE, ANY_TAG
from ..mpi.request import Request as _InnerRequest
from ..mpi.status import Status
from .comm import RbcComm
from .request import RbcRequest

__all__ = [
    "send",
    "isend",
    "recv",
    "irecv",
    "irecv_any_member",
    "probe",
    "iprobe",
]


# ---------------------------------------------------------------------------
# Sending.
# ---------------------------------------------------------------------------

def isend(comm: RbcComm, payload, dest: int, tag: int = 0) -> RbcRequest:
    """``rbc::Isend``: nonblocking send to RBC rank ``dest``."""
    mpi_dest = comm.to_mpi(dest)
    inner = comm.mpi_comm.isend(payload, mpi_dest, tag)
    return RbcRequest(comm.env, inner)


def send(comm: RbcComm, payload, dest: int, tag: int = 0):
    """``rbc::Send`` (generator): blocking send to RBC rank ``dest``."""
    request = isend(comm, payload, dest, tag)
    yield from request.wait()


# ---------------------------------------------------------------------------
# Probing.
# ---------------------------------------------------------------------------

def iprobe(comm: RbcComm, source: int, tag: int) -> tuple[bool, Optional[Status]]:
    """``rbc::Iprobe``: nonblocking probe.

    With a specific ``source`` this forwards to ``MPI_Iprobe``.  With
    ``ANY_SOURCE`` only messages whose sender is a member of this RBC
    communicator are reported (the paper's wildcard rule); the source in the
    returned status is an RBC rank.

    Implementation note: the paper checks only *the* message ``MPI_Iprobe``
    happens to return and reports false if its sender is foreign.  We probe
    for the earliest pending message from a *member* instead — this is
    strictly stronger (it never misreports a foreign message either) and in
    addition avoids starving the range when unrelated traffic with the same
    tag is queued in front of it.
    """
    mpi_comm = comm.mpi_comm
    if source != ANY_SOURCE:
        flag, status = mpi_comm.iprobe(comm.to_mpi(source), tag)
        if not flag:
            return False, None
        return True, Status(source=source, tag=status.tag, count=status.count)

    flag, status = mpi_comm.iprobe_where(tag, comm.world_member_predicate())
    if not flag:
        return False, None
    rbc_source = comm.from_mpi(status.source)
    return True, Status(source=rbc_source, tag=status.tag, count=status.count)


def probe(comm: RbcComm, source: int, tag: int):
    """``rbc::Probe`` (generator): blocking probe; returns the Status."""
    result: list[Optional[Status]] = [None]

    def ready() -> bool:
        flag, status = iprobe(comm, source, tag)
        if flag:
            result[0] = status
        return flag

    yield from comm.env.wait_until(ready)
    return result[0]


# ---------------------------------------------------------------------------
# Receiving.
# ---------------------------------------------------------------------------

class _WildcardRecvRequest(_InnerRequest):
    """Request implementing ``rbc::Irecv`` with ``ANY_SOURCE``.

    Every ``test()`` call probes for an incoming message sent over the same
    RBC communicator; once one is found, the request turns into an ordinary
    receive from that source (the two-step behaviour described in the paper).
    """

    def __init__(self, comm: RbcComm, tag: int):
        self.env = comm.env
        self._comm = comm
        self._tag = tag
        self._delegate: Optional[_InnerRequest] = None
        self._status: Optional[Status] = None

    def test(self) -> bool:
        if self._delegate is None:
            flag, status = iprobe(self._comm, ANY_SOURCE, self._tag)
            if not flag:
                return False
            self._status = status
            mpi_source = self._comm.to_mpi(status.source)
            self._delegate = self._comm.mpi_comm.irecv(mpi_source, self._tag)
        return self._delegate.test()

    def result(self):
        if self._delegate is None:
            return None
        return self._delegate.result()

    def get_status(self) -> Optional[Status]:
        return self._status


class _TranslatedRecvRequest(_InnerRequest):
    """Receive from a specific RBC rank; status reports the RBC source rank."""

    def __init__(self, comm: RbcComm, source: int, tag: int):
        self.env = comm.env
        self._source = source
        self._inner = comm.mpi_comm.irecv(comm.to_mpi(source), tag)

    def test(self) -> bool:
        return self._inner.test()

    def peek(self) -> Optional[bool]:
        return self._inner.peek()

    def result(self):
        return self._inner.result()

    def get_status(self) -> Optional[Status]:
        status = self._inner.get_status()
        if status is None:
            return None
        return Status(source=self._source, tag=status.tag, count=status.count)


def irecv(comm: RbcComm, source: int, tag: int) -> RbcRequest:
    """``rbc::Irecv``: nonblocking receive from RBC rank ``source`` (or ANY_SOURCE)."""
    if source == ANY_SOURCE:
        return RbcRequest(comm.env, _WildcardRecvRequest(comm, tag))
    return RbcRequest(comm.env, _TranslatedRecvRequest(comm, source, tag))


def irecv_any_member(comm: RbcComm, tag: int) -> RbcRequest:
    """Wildcard receive restricted to members — single-request fast path.

    Semantically identical to ``irecv(comm, ANY_SOURCE, tag)``: it completes
    with the earliest pending message on ``tag`` whose sender belongs to the
    communicator's range.  Instead of the paper's probe-then-receive two-step
    (re-run on every poll), it pushes the membership filter down into one
    transport-level receive, so each completion poll is a single filtered
    mailbox match.  Hot loops (the sorters' data exchanges) use this; the
    public ``irecv``/``recv`` keep the two-step construction the paper
    describes.
    """
    env = comm.env
    return RbcRequest(env, RecvRequest(
        env,
        env.transport,
        context=comm.mpi_context(),
        source_world=ANY_SOURCE,
        tag=tag,
        source_filter=comm.world_member_predicate(),
        translate_source=comm.from_world,
    ))


def recv(comm: RbcComm, source: int, tag: int, *, return_status: bool = False):
    """``rbc::Recv`` (generator): blocking receive.

    With ``ANY_SOURCE`` the source rank is determined with ``rbc::Probe``
    first (restricted to members of this communicator), then the message is
    received from that specific source — the paper's two-step recipe.
    """
    if source == ANY_SOURCE:
        status = yield from probe(comm, ANY_SOURCE, tag)
        source = status.source
    request = irecv(comm, source, tag)
    payload = yield from request.wait()
    if return_status:
        return payload, request.get_status()
    return payload
