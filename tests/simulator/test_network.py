"""Unit tests of the alpha-beta transport and message matching."""

import numpy as np
import pytest

from repro.simulator.engine import Engine
from repro.simulator.network import (
    ANY_SOURCE,
    ANY_TAG,
    NetworkParams,
    Transport,
    payload_words,
)


@pytest.fixture
def setup():
    engine = Engine()
    params = NetworkParams(alpha=10.0, beta=0.5, gamma=0.1)
    transport = Transport(engine, num_ranks=4, params=params)
    return engine, transport, params


# ---------------------------------------------------------------------------
# payload_words
# ---------------------------------------------------------------------------

def test_payload_words_none_is_zero():
    assert payload_words(None) == 0


def test_payload_words_scalar_is_one():
    assert payload_words(3.5) == 1
    assert payload_words(7) == 1


def test_payload_words_numpy_counts_elements():
    assert payload_words(np.zeros(17)) == 17
    assert payload_words(np.zeros((3, 5))) == 15


def test_payload_words_containers_recurse():
    assert payload_words([np.zeros(4), np.zeros(6)]) == 10
    assert payload_words((1.0, np.zeros(3))) == 4
    assert payload_words({"a": np.zeros(2)}) == 3  # value words + 1 per key


def test_payload_words_object_fallback():
    class Thing:
        pass

    assert payload_words(Thing()) == 1


# ---------------------------------------------------------------------------
# Cost model.
# ---------------------------------------------------------------------------

def test_message_cost_formula():
    params = NetworkParams(alpha=3.0, beta=0.25)
    assert params.message_cost(0) == 3.0
    assert params.message_cost(100) == 3.0 + 25.0


def test_single_message_arrival_time(setup):
    engine, transport, params = setup
    transport.post_send(src=0, dst=1, tag=0, context="c", payload=np.zeros(10))
    engine.run()
    message = transport.find_match(1, 0, 0, "c")
    assert message is not None
    assert message.arrival_time == pytest.approx(params.alpha + 10 * params.beta)


def test_send_port_serialises_consecutive_sends(setup):
    engine, transport, params = setup
    transport.post_send(0, 1, 0, "c", np.zeros(10))
    transport.post_send(0, 2, 0, "c", np.zeros(10))
    engine.run()
    first = transport.find_match(1, 0, 0, "c")
    second = transport.find_match(2, 0, 0, "c")
    cost = params.alpha + 10 * params.beta
    assert first.arrival_time == pytest.approx(cost)
    # The second message only starts once the first left the send port.
    assert second.arrival_time == pytest.approx(2 * cost)


def test_recv_port_serialises_incast(setup):
    engine, transport, params = setup
    transport.post_send(1, 0, 0, "c", np.zeros(100))
    transport.post_send(2, 0, 0, "c", np.zeros(100))
    engine.run()
    a = transport.find_match(0, 1, 0, "c")
    b = transport.find_match(0, 2, 0, "c")
    assert a is not None and b is not None
    # Both senders inject in parallel, but the receive port drains them one
    # after another: the second arrival is delayed by the transfer time.
    arrivals = sorted([a.arrival_time, b.arrival_time])
    assert arrivals[1] >= arrivals[0] + 100 * params.beta - 1e-9


def test_local_delay_postpones_injection(setup):
    engine, transport, params = setup
    transport.post_send(0, 1, 0, "c", np.zeros(4), local_delay=50.0)
    engine.run()
    message = transport.find_match(1, 0, 0, "c")
    assert message.arrival_time == pytest.approx(50.0 + params.alpha + 4 * params.beta)


def test_send_handle_completion_time(setup):
    engine, transport, params = setup
    handle = transport.isend(0, 1, 0, "c", np.zeros(8))
    assert not handle.done
    engine.run()
    assert handle.done
    assert handle.complete_time == pytest.approx(params.alpha + 8 * params.beta)


# ---------------------------------------------------------------------------
# Matching.
# ---------------------------------------------------------------------------

def test_match_by_source_tag_context(setup):
    engine, transport, _ = setup
    transport.post_send(0, 3, tag=7, context="a", payload="x")
    transport.post_send(1, 3, tag=8, context="a", payload="y")
    transport.post_send(2, 3, tag=7, context="b", payload="z")
    engine.run()
    assert transport.find_match(3, 0, 7, "a").payload == "x"
    assert transport.find_match(3, 1, 8, "a").payload == "y"
    assert transport.find_match(3, 2, 7, "b").payload == "z"
    assert transport.find_match(3, 0, 8, "a") is None
    assert transport.find_match(3, 1, 7, "a") is None


def test_wildcard_source_and_tag(setup):
    engine, transport, _ = setup
    transport.post_send(2, 0, tag=5, context="ctx", payload="hello")
    engine.run()
    assert transport.find_match(0, ANY_SOURCE, 5, "ctx").payload == "hello"
    assert transport.find_match(0, 2, ANY_TAG, "ctx").payload == "hello"
    assert transport.find_match(0, ANY_SOURCE, ANY_TAG, "ctx").payload == "hello"
    assert transport.find_match(0, ANY_SOURCE, ANY_TAG, "other") is None


def test_take_match_removes_message(setup):
    engine, transport, _ = setup
    transport.post_send(0, 1, 0, "c", "data")
    engine.run()
    assert transport.pending_count(1) == 1
    message = transport.take_match(1, 0, 0, "c")
    assert message.payload == "data"
    assert transport.pending_count(1) == 0
    assert transport.take_match(1, 0, 0, "c") is None


def test_fifo_matching_per_pair(setup):
    engine, transport, _ = setup
    for index in range(5):
        transport.post_send(0, 1, tag=9, context="c", payload=index)
    engine.run()
    received = [transport.take_match(1, 0, 9, "c").payload for _ in range(5)]
    assert received == [0, 1, 2, 3, 4]


def test_notify_hook_called_on_delivery(setup):
    engine, transport, _ = setup
    calls = []
    transport.set_notify_hook(2, lambda: calls.append(engine.now))
    transport.post_send(0, 2, 0, "c", np.zeros(2))
    engine.run()
    assert len(calls) >= 1


def test_invalid_rank_rejected(setup):
    _, transport, _ = setup
    with pytest.raises(ValueError):
        transport.post_send(0, 99, 0, "c", None)
    with pytest.raises(ValueError):
        transport.post_send(-1, 0, 0, "c", None)
    with pytest.raises(ValueError):
        transport.find_match(99, 0, 0, "c")


def test_any_arrived_returns_earliest(setup):
    engine, transport, _ = setup
    transport.post_send(0, 1, 1, "c", "first")
    transport.post_send(2, 1, 2, "c", "second")
    engine.run()
    assert transport.any_arrived(1).payload == "first"
    assert transport.any_arrived(3) is None


def test_network_presets_are_consistent():
    for preset in (NetworkParams.default(), NetworkParams.latency_bound(),
                   NetworkParams.bandwidth_bound()):
        assert preset.alpha > 0
        assert preset.beta > 0
        assert preset.gamma > 0
        assert preset.message_cost(10) > preset.message_cost(0)


# ---------------------------------------------------------------------------
# Indexed-mailbox regression: FIFO and wildcard semantics preserved exactly.
# ---------------------------------------------------------------------------

def test_fifo_preserved_with_interleaved_tags(setup):
    """FIFO per (src, dst, tag) even when other tags interleave."""
    engine, transport, _ = setup
    for index in range(4):
        transport.post_send(0, 1, tag=1, context="c", payload=("a", index))
        transport.post_send(0, 1, tag=2, context="c", payload=("b", index))
    engine.run()
    on_tag_1 = [transport.take_match(1, 0, 1, "c").payload for _ in range(4)]
    on_tag_2 = [transport.take_match(1, 0, 2, "c").payload for _ in range(4)]
    assert on_tag_1 == [("a", i) for i in range(4)]
    assert on_tag_2 == [("b", i) for i in range(4)]


def test_wildcard_source_takes_earliest_across_senders(setup):
    engine, transport, _ = setup
    transport.post_send(2, 0, tag=5, context="c", payload="from-2")
    transport.post_send(1, 0, tag=5, context="c", payload="from-1")
    transport.post_send(3, 0, tag=5, context="c", payload="from-3")
    engine.run()
    order = [transport.take_match(0, ANY_SOURCE, 5, "c").payload
             for _ in range(3)]
    # Earliest posted (lowest seq) first, regardless of sender rank.
    assert order == ["from-2", "from-1", "from-3"]


def test_wildcard_tag_takes_earliest_across_tags(setup):
    engine, transport, _ = setup
    transport.post_send(0, 1, tag=9, context="c", payload="tag-9")
    transport.post_send(0, 1, tag=3, context="c", payload="tag-3")
    engine.run()
    assert transport.take_match(1, 0, ANY_TAG, "c").payload == "tag-9"
    assert transport.take_match(1, 0, ANY_TAG, "c").payload == "tag-3"


def test_take_match_where_respects_filter_and_order(setup):
    engine, transport, _ = setup
    transport.post_send(1, 0, tag=4, context="c", payload="one")
    transport.post_send(2, 0, tag=4, context="c", payload="two")
    transport.post_send(3, 0, tag=4, context="c", payload="three")
    engine.run()
    allowed = {2, 3}
    first = transport.take_match_where(0, 4, "c", lambda src: src in allowed)
    second = transport.take_match_where(0, 4, "c", lambda src: src in allowed)
    third = transport.take_match_where(0, 4, "c", lambda src: src in allowed)
    assert (first.payload, second.payload) == ("two", "three")
    assert third is None
    # The filtered-out message is still there for an unrestricted receive.
    assert transport.take_match(0, ANY_SOURCE, 4, "c").payload == "one"


def test_indexed_matches_linear_reference_on_random_traffic():
    """Differential test: indexed and linear-scan mailboxes agree match for
    match on randomised traffic and randomised receive envelopes."""
    from repro.simulator.network import IndexedMailbox, LinearScanMailbox

    rng = np.random.default_rng(1234)
    num_ranks = 6
    tags = [0, 1, 2, ANY_TAG]
    contexts = ["x", "y"]

    def build(mailbox_factory):
        engine = Engine()
        transport = Transport(engine, num_ranks,
                              NetworkParams(alpha=2.0, beta=0.01),
                              mailbox_factory=mailbox_factory)
        return engine, transport

    for trial in range(10):
        seed = int(rng.integers(0, 2**31))
        trial_rng = np.random.default_rng(seed)
        sends = [(int(trial_rng.integers(0, num_ranks)),
                  int(trial_rng.integers(0, num_ranks)),
                  int(trial_rng.integers(0, 3)),
                  contexts[int(trial_rng.integers(0, 2))],
                  index)
                 for index in range(60)]
        receives = [(int(trial_rng.integers(0, num_ranks)),
                     int(trial_rng.integers(-1, num_ranks)),
                     tags[int(trial_rng.integers(0, len(tags)))],
                     contexts[int(trial_rng.integers(0, 2))])
                    for _ in range(120)]

        outcomes = []
        for factory in (IndexedMailbox, LinearScanMailbox):
            engine, transport = build(factory)
            for src, dst, tag, context, payload in sends:
                transport.post_send(src, dst, tag, context, payload)
            engine.run()
            log = []
            for dst, source, tag, context in receives:
                message = transport.take_match(dst, source, tag, context)
                log.append(None if message is None else
                           (message.seq, message.src, message.tag,
                            message.context, message.payload))
            log.append([transport.pending_count(r) for r in range(num_ranks)])
            for r in range(num_ranks):
                earliest = transport.any_arrived(r)
                log.append(None if earliest is None else earliest.seq)
            outcomes.append(log)
        assert outcomes[0] == outcomes[1], f"divergence with seed {seed}"


# ---------------------------------------------------------------------------
# Incast serialisation invariants (flat and hierarchical models).
# ---------------------------------------------------------------------------

def _incast_arrivals(params, placement, sends, dst):
    """Run ``sends`` = [(src, words), ...] into ``dst``; return the messages."""
    engine = Engine()
    num_ranks = 8
    transport = Transport(engine, num_ranks, params, placement=placement)
    for src, words in sends:
        transport.post_send(src, dst, 0, "c", np.zeros(words))
    engine.run()
    messages = []
    while True:
        message = transport.take_match(dst, ANY_SOURCE, ANY_TAG, "c")
        if message is None:
            break
        messages.append(message)
    assert len(messages) == len(sends)
    return messages


def _assert_receive_port_serialised(params, placement, messages, dst):
    """Consecutive deliveries to one rank are separated by the later message's
    full transfer time: the receive port admits one transfer at a time."""
    for previous, current in zip(messages, messages[1:]):
        _, beta = params.link(current.src, dst, placement
                              if placement is not None else None)
        gap = current.arrival_time - previous.arrival_time
        assert gap >= current.words * beta - 1e-9, (
            f"messages {previous.seq}->{current.seq}: gap {gap} smaller than "
            f"transfer time {current.words * beta}")


@pytest.mark.parametrize("model", ["flat", "hierarchical"])
def test_incast_is_serialised_under_random_patterns(model):
    """Property test: k-to-1 sends arrive serially under both cost models."""
    from repro.simulator.network import HierarchicalParams, Placement

    if model == "flat":
        params = NetworkParams(alpha=4.0, beta=0.01)
        placement = None
    else:
        params = HierarchicalParams(
            intra_node_alpha=1.0, intra_node_beta=0.002,
            inter_node_alpha=4.0, inter_node_beta=0.01,
            inter_island_alpha=8.0, inter_island_beta=0.02,
        )
        placement = Placement.regular(8, ranks_per_node=2, nodes_per_island=2)

    rng = np.random.default_rng(99 if model == "flat" else 100)
    for _ in range(25):
        dst = int(rng.integers(0, 8))
        k = int(rng.integers(2, 7))
        senders = [int(s) for s in rng.choice(
            [r for r in range(8) if r != dst], size=k, replace=False)]
        sends = [(src, int(rng.integers(1, 400))) for src in senders]
        messages = _incast_arrivals(params, placement, sends, dst)
        # take_match with full wildcards drains in seq order, which is also
        # non-decreasing arrival order for a single destination.
        arrivals = [m.arrival_time for m in messages]
        assert arrivals == sorted(arrivals)
        _assert_receive_port_serialised(params, placement, messages, dst)
