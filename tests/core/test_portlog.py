"""Port-level differential test of :class:`repro.core.portlog.PortLog`.

A random message sequence goes through a port log in an *application*
order (what a lockstep pricer does) and through a bare ``Transport``, whose
engine posts the same sends in *engine* (time, seq) order.  The log prices
each message whole (:meth:`~PortLog.message`) or its send first and its
receive later (:meth:`~PortLog.send`, :meth:`~PortLog.receive`), as the
tree-up and scalar dissemination pricers do.  Every message's leave and
final arrival, every send and receive port's final free time must be
``float.hex``-equal and all four per-rank message counters equal, or the
port log must refuse with :class:`LockstepError`.  Caps are +inf, so
re-folds never refuse on cap grounds, and the prune bound is the earliest
post still to come, the bound the coordinator maintains.

Senders are shared, so send ports serialise; a sender's messages are
applied in engine order, as each pricer applies its member's sends.  Local
delays are random, and the tiered machine prices every edge through
``params.link`` on a two-node placement.

Application and engine order agree wherever the log assumes they do: tied
writes of one owner, and tied writes of two flat (non-replay) owners.  A
tie with a schedule-IR replay write may be applied in any order; the log
proves it commutes or refuses.
"""

from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import portlog
from repro.core.portlog import LockstepError, PortLog
from repro.simulator.costmodel import HierarchicalParams, Placement
from repro.simulator.engine import Engine
from repro.simulator.network import NetworkParams, Transport

PORTS = 2        # receive ports (world ranks 0 and 1)
SENDERS = 3      # shared sender ranks; a message without one has its own
#: Owner tokens and their replay flag: two flat phases and two replays.
OWNERS = [(object(), False), (object(), False), (object(), True),
          (object(), True)]
#: The flat machine, and a tiered one whose ranks alternate between two
#: nodes (one island), so both link tiers carry traffic.
MACHINES = {
    "flat": NetworkParams(alpha=1.0, beta=0.3),
    "tiered": HierarchicalParams(
        intra_node_alpha=0.25, intra_node_beta=0.1, inter_node_alpha=1.0,
        inter_node_beta=0.3, inter_island_alpha=1.5, inter_island_beta=0.5),
}


class Write(NamedTuple):
    post: float
    words: int
    port: int
    owner: int
    delay: float = 0.0               # the sender's local delay
    sender: Optional[int] = None     # a shared sender (< SENDERS), or none


def _transport(machine, writes):
    size = PORTS + SENDERS + len(writes)
    return Transport(Engine(), size, MACHINES[machine],
                     placement=Placement.cyclic(size, 2))


def _source(writes, index):
    sender = writes[index].sender
    return PORTS + (SENDERS + index if sender is None else sender)


def _observed(transport, leaves):
    """Leaves, both port arrays as hex, and the four per-rank counters."""
    stats = transport.tracer.stats
    return ([float.hex(time) for time in leaves],
            [float.hex(time) for time in transport._send_port_free],
            [float.hex(time) for time in transport._recv_port_free],
            stats.per_rank_messages_sent, stats.per_rank_words_sent,
            stats.per_rank_messages_received, stats.per_rank_words_received)


def _engine(machine, writes, engine_order):
    """Arrivals and observables of the sends posted by an engine."""
    transport = _transport(machine, writes)
    arrivals = [None] * len(writes)
    leaves = [None] * len(writes)

    def post(index):
        write = writes[index]
        leaves[index] = transport.post_send(
            _source(writes, index), write.port, 0, "portlog", None,
            words=write.words, local_delay=write.delay)
        arrivals[index] = transport._recv_port_free[write.port]

    for index in engine_order:
        transport.engine.schedule_call_at(writes[index].post, post, index)
    transport.engine.run()
    return arrivals, _observed(transport, leaves)


def _logged(machine, writes, order, split):
    """The same messages priced by a port log in application ``order``:
    whole, or (``split``) every send first and the receives after."""
    transport = _transport(machine, writes)
    ports = PortLog(transport)
    sends = {index: ports.send(_source(writes, index), writes[index].port,
                               writes[index].post + writes[index].delay,
                               writes[index].words)
             for index in order} if split else None
    entries = [None] * len(writes)
    for step, index in enumerate(order):
        write = writes[index]
        ports.frontier = min(writes[later].post for later in order[step:])
        token, hier = OWNERS[write.owner]
        if split:
            leave, transfer = sends[index]
            entry = ports.receive(write.port, write.post, leave, transfer,
                                  write.words, token, hier)
        else:
            entry = ports.message(_source(writes, index), write.port,
                                  write.post, write.post + write.delay,
                                  write.words, token, hier)
        entry[5] = float("inf")
        entries[index] = entry
        for log in ports.lists.values():
            posts = [logged[0] for logged in log]
            assert posts == sorted(posts)
    return ([entry[4] for entry in entries],
            _observed(transport, [entry[1] for entry in entries]))


def _check(writes, order, engine_order, machine="flat", split=False):
    try:
        arrivals, observed = _logged(machine, writes, order, split)
    except LockstepError:
        return "refused"
    native, native_observed = _engine(machine, writes, engine_order)
    assert [float.hex(time) for time in arrivals] == \
        [float.hex(time) for time in native]
    assert observed == native_observed
    return "priced"


_WRITE = st.builds(Write,
                   post=st.sampled_from([0.0, 0.5, 1.0, 1.2, 2.0, 3.5, 7.0]),
                   words=st.integers(min_value=0, max_value=12),
                   port=st.integers(min_value=0, max_value=PORTS - 1),
                   owner=st.integers(min_value=0, max_value=len(OWNERS) - 1),
                   delay=st.sampled_from([0.0, 0.0, 0.25, 0.7, 1.5]),
                   sender=st.one_of(st.none(), st.integers(
                       min_value=0, max_value=SENDERS - 1)))


@st.composite
def _sequences(draw):
    """Writes, their application order and an engine order that agrees
    with it on every tie the log folds without a proof."""
    writes = list(draw(st.lists(_WRITE, min_size=1, max_size=40)))
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
    # A sender's messages must be applied in engine order: a message keeps
    # its shared sender only where that holds, else it gets its own.
    placed = {index: step for step, index in enumerate(engine_order)}
    last: dict = {}
    for index in order:
        sender = writes[index].sender
        if sender is not None:
            if placed[index] < last.get(sender, -1):
                writes[index] = writes[index]._replace(sender=None)
            else:
                last[sender] = placed[index]
    return writes, order, engine_order


@given(sequence=_sequences(), prune_at=st.sampled_from([2, 5, 24]),
       machine=st.sampled_from(sorted(MACHINES)), split=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_port_log_matches_the_transport_or_refuses(sequence, prune_at,
                                                   machine, split):
    """Random post times and local delays, exact ties, shared senders,
    application orders that differ from post order, whole or split
    messages on a flat and a tiered machine, and prunes interleaved with
    the writes (a short trigger prunes after almost every write)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(portlog, "PRUNE_AT", prune_at)
        _check(*sequence, machine=machine, split=split)


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
