"""Transport microbenchmark: indexed mailboxes vs. the linear-scan reference.

Mailbox matching is the hottest path of every simulated run.  This benchmark
drives the two mailbox implementations through identical traffic:

* a *differential* run of a real collectives scenario, event by event on the
  default cluster (indexed mailboxes) and on the oracle (linear scan),
  asserting bit-identical observables and event counts (the indexed fast path
  must not change simulation semantics), and
* a many-pending-message microbenchmark — one receiver with thousands of
  arrived-but-unmatched messages, matched in adversarial (reverse) order —
  where the linear scan is O(pending) per match and the index must win by at
  least 2x wall-clock.
"""

import time

from oracle import assert_equal_observables, run_both

from repro.bench.harness import collective_program
from repro.simulator import IndexedMailbox, LinearScanMailbox
from repro.simulator.engine import Engine
from repro.simulator.network import NetworkParams, Transport

SCENARIO_RANKS = {"tiny": 64, "small": 256, "paper": 512}


def test_indexed_transport_is_bit_identical(scale):
    """Same scenario, both mailboxes: identical observables and event
    counts.  ``lockstep=False`` keeps the default side on the event tier —
    priced in lockstep it would not touch a mailbox."""
    indexed, linear = run_both(
        SCENARIO_RANKS[scale], collective_program, operation="gather",
        impl="rbc", vendor="generic", words=64, lockstep=False)
    assert_equal_observables(indexed, linear)
    assert indexed.events_processed == linear.events_processed
    assert indexed.obs["mailboxes_materialized"] > 0


def _mailbox_churn_seconds(mailbox_factory, senders, messages_per_sender):
    """Wall-clock of matching ``senders * messages_per_sender`` pending
    messages in reverse-sender order (worst case for a flat scan)."""
    engine = Engine()
    transport = Transport(engine, senders + 1, NetworkParams.default(),
                          mailbox_factory=mailbox_factory)
    for tag in range(messages_per_sender):
        for src in range(1, senders + 1):
            transport.post_send(src, 0, tag, "ctx", None)
    engine.run()
    start = time.perf_counter()
    taken = 0
    for tag in range(messages_per_sender):
        for src in range(senders, 0, -1):
            message = transport.take_match(0, src, tag, "ctx")
            assert message is not None
            taken += 1
    elapsed = time.perf_counter() - start
    assert taken == senders * messages_per_sender
    assert transport.pending_count(0) == 0
    return elapsed


def test_indexed_mailbox_speedup(benchmark, scale):
    senders, per_sender = {"tiny": (40, 25), "small": (80, 40),
                           "paper": (160, 60)}[scale]
    linear_s = _mailbox_churn_seconds(LinearScanMailbox, senders, per_sender)
    indexed_s = benchmark.pedantic(
        _mailbox_churn_seconds, args=(IndexedMailbox, senders, per_sender),
        rounds=1, iterations=1)
    speedup = linear_s / indexed_s if indexed_s > 0 else float("inf")
    print(f"\nmailbox churn: linear {linear_s * 1e3:.1f} ms, "
          f"indexed {indexed_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"indexed mailboxes must be at least 2x faster on the many-pending "
        f"microbenchmark, got {speedup:.2f}x")
