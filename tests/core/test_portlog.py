"""Port-level differential test of :class:`repro.core.portlog.PortLog`.

A random write sequence goes through a port log in an *application* order
(what a lockstep pricer does) and through a bare ``Transport``, whose
engine posts the same sends in *engine* (time, seq) order.  Every write's
final arrival and every port's final free time must be ``float.hex``-equal,
or the port log must refuse with :class:`LockstepError`.  Caps are +inf, so
re-folds never refuse on cap grounds, and the prune bound is the earliest
post still to come, the bound the coordinator maintains.

Application and engine order agree wherever the log assumes they do: tied
writes of one owner, and tied writes of two flat (non-replay) owners.  A
tie with a schedule-IR replay write may be applied in any order; the log
proves it commutes or refuses.
"""

from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import portlog
from repro.core.portlog import LockstepError, PortLog
from repro.simulator.engine import Engine
from repro.simulator.network import NetworkParams, Transport

ALPHA = 1.0
BETA = 0.3
PORTS = 2        # receive ports; world ranks from PORTS up are the senders
#: Owner tokens and their replay flag: two flat phases and two replays.
OWNERS = [(object(), False), (object(), False), (object(), True),
          (object(), True)]


class Write(NamedTuple):
    post: float
    words: int
    port: int
    owner: int


def _engine(writes, engine_order):
    """Arrivals and port free times of the sends posted by an engine; each
    write has its own sender rank, so its leave is post + alpha + w*beta."""
    engine = Engine()
    transport = Transport(engine, PORTS + len(writes),
                          NetworkParams(alpha=ALPHA, beta=BETA))
    arrivals = [None] * len(writes)

    def post(index):
        write = writes[index]
        transport.post_send(PORTS + index, write.port, 0, "portlog", None,
                            words=write.words)
        arrivals[index] = transport._recv_port_free[write.port]

    for index in engine_order:
        engine.schedule_call_at(writes[index].post, post, index)
    engine.run()
    return arrivals, transport._recv_port_free[:PORTS]


def _logged(writes, order):
    """The same writes folded by a port log in application ``order``."""
    recv_free = [0.0] * PORTS
    ports = PortLog(recv_free, Engine())
    entries = [None] * len(writes)
    for step, index in enumerate(order):
        write = writes[index]
        ports.frontier = min(writes[later].post for later in order[step:])
        token, hier = OWNERS[write.owner]
        leave = write.post + 0.0 + ALPHA + write.words * BETA
        entry = ports.write(write.port, write.post, leave, write.words * BETA,
                            token, hier)
        entry[5] = float("inf")
        entries[index] = entry
        for log in ports.lists.values():
            posts = [logged[0] for logged in log]
            assert posts == sorted(posts)
    return [entry[4] for entry in entries], recv_free


def _check(writes, order, engine_order):
    try:
        arrivals, free = _logged(writes, order)
    except LockstepError:
        return "refused"
    native, native_free = _engine(writes, engine_order)
    assert [float.hex(time) for time in arrivals] == \
        [float.hex(time) for time in native]
    assert [float.hex(time) for time in free] == \
        [float.hex(time) for time in native_free]
    return "priced"


_WRITE = st.builds(Write,
                   post=st.sampled_from([0.0, 0.5, 1.0, 1.2, 2.0, 3.5, 7.0]),
                   words=st.integers(min_value=0, max_value=12),
                   port=st.integers(min_value=0, max_value=PORTS - 1),
                   owner=st.integers(min_value=0, max_value=len(OWNERS) - 1))


@st.composite
def _sequences(draw):
    """Writes, their application order and an engine order that agrees
    with it on every tie the log folds without a proof."""
    writes = draw(st.lists(_WRITE, min_size=1, max_size=40))
    size = len(writes)
    # Mostly post order, as pricers apply writes, with some applied late
    # and ties shuffled: the log stays long enough to prune.
    late = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.6, 2.5]),
                         min_size=size, max_size=size))
    shuffle = draw(st.permutations(range(size)))
    order = sorted(range(size), key=lambda index: (
        writes[index].post + late[index], shuffle[index]))
    applied = {index: step for step, index in enumerate(order)}
    # A replay owner's writes move as one block within a tie, before,
    # among or after the flat writes.
    shift = [0 if not hier else draw(st.sampled_from([-1, 0, 1]))
             for _, hier in OWNERS]
    engine_order = sorted(
        range(size),
        key=lambda index: (writes[index].post, shift[writes[index].owner],
                           applied[index]))
    return writes, order, engine_order


@given(sequence=_sequences(), prune_at=st.sampled_from([2, 5, 24]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_port_log_matches_the_transport_or_refuses(sequence, prune_at):
    """Random post times, exact ties, application orders that differ from
    post order, and prunes interleaved with the writes (a short trigger
    prunes after almost every write)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(portlog, "PRUNE_AT", prune_at)
        _check(*sequence)


@pytest.mark.parametrize("writes, order, engine_order, prune_at, outcome", [
    # Applied after a later-posted write: inserted before it, re-folding it.
    ([Write(0.0, 10, 0, 0), Write(1.0, 1, 0, 1)], [1, 0], [0, 1], 24,
     "priced"),
    # A replay tie whose place changes the tied write's arrival.
    ([Write(1.0, 10, 0, 0), Write(1.0, 1, 0, 2)], [0, 1], [1, 0], 24,
     "refused"),
    # A replay tie that leaves the tied write alone, but whose own arrival
    # depends on its place.
    ([Write(0.0, 12, 0, 0), Write(0.0, 0, 0, 2)], [0, 1], [1, 0], 24,
     "refused"),
    # The prune keeps a write posted at the bound: a tie still reaches it.
    ([Write(1.0, 12, 0, 0), Write(2.0, 0, 0, 1), Write(3.0, 0, 0, 1),
      Write(1.0, 0, 0, 2)], [0, 1, 2, 3], [3, 0, 1, 2], 2, "refused"),
])
def test_port_log_shapes(writes, order, engine_order, prune_at, outcome):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(portlog, "PRUNE_AT", prune_at)
        assert _check(writes, order, engine_order) == outcome


@pytest.mark.xfail(strict=True, reason=(
    "a flat tie between two owners folds in application order; the engine "
    "can post the other write first (ROADMAP item 1(i))"))
def test_cross_owner_flat_tie_applied_out_of_engine_order():
    """Two flat owners' writes tie at one instant; the engine posts the
    second-applied one first.  Today the log folds them in application
    order and misprices silently."""
    writes = [Write(1.0, 10, 0, 0), Write(1.0, 1, 0, 1)]
    _check(writes, [0, 1], [1, 0])
