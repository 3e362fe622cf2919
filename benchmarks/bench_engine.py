"""Engine/transport churn microbenchmark: ping-pong and incast.

The fig4-fig9 benchmarks measure whole algorithms; this file isolates the
discrete-event engine and the transport fast path (run-queue wake-ups, tuple
events, lazy sender wake-ups, exact-key mailbox matching) so engine-level
regressions are visible independently of the sorters and collectives.

Two traffic patterns, pure point-to-point:

* **ping-pong** — rank pairs bounce a message back and forth; every hop is
  one send, one delivery, one wake-up, one matched receive: the minimal
  engine round-trip.
* **incast** — every rank fires a burst at rank 0 (the worst case of the
  greedy message assignment): receive-port serialisation plus a deep mailbox
  on one destination.

Each pattern also runs differentially on the ``reference`` engine mode (every
wake-up routed through the heap, as in the original scheduler) and must be
bit-identical to the run-queue fast path: same simulated time, same event
count, same per-rank finish times, same message statistics.
"""

import time

import pytest

from repro.messaging import RecvRequest, SendRequest, wait_all
from repro.simulator import Cluster

SCALES = {
    "tiny": dict(pairs=8, rounds=40, incast_ranks=16, burst=40, words=8),
    "small": dict(pairs=32, rounds=100, incast_ranks=64, burst=100, words=8),
    "paper": dict(pairs=128, rounds=200, incast_ranks=256, burst=200, words=8),
}

_CTX = "bench-engine"


def pingpong_program(env, *, rounds: int, words: int):
    """Rank pairs (2i, 2i+1) exchange ``rounds`` messages each way."""
    rank = env.rank
    partner = rank ^ 1
    if partner >= env.size:
        return env.now
    transport = env.transport
    start = env.now
    for rnd in range(rounds):
        if rank < partner:
            send = SendRequest(env, transport.isend(
                rank, partner, rnd, _CTX, None, words=words))
            recv = RecvRequest(env, transport, context=_CTX,
                               source_world=partner, tag=rnd)
            yield from wait_all(env, [send, recv])
        else:
            recv = RecvRequest(env, transport, context=_CTX,
                               source_world=partner, tag=rnd)
            yield from env.wait_until(recv.test)
            send = SendRequest(env, transport.isend(
                rank, partner, rnd, _CTX, None, words=words))
            yield from env.wait_until(send.test)
    return env.now - start


def incast_program(env, *, burst: int, words: int):
    """Every rank > 0 fires ``burst`` messages at rank 0; rank 0 drains them."""
    rank = env.rank
    transport = env.transport
    start = env.now
    if rank == 0:
        recvs = [RecvRequest(env, transport, context=_CTX,
                             source_world=src, tag=b)
                 for b in range(burst) for src in range(1, env.size)]
        yield from wait_all(env, recvs)
    else:
        sends = [SendRequest(env, transport.isend(
            rank, 0, b, _CTX, None, words=words)) for b in range(burst)]
        yield from wait_all(env, sends)
    return env.now - start


def _run(program, num_ranks, *, reference, **kwargs):
    cluster = Cluster(num_ranks, reference_engine=reference)
    started = time.perf_counter()
    result = cluster.run(program, **kwargs)
    return result, time.perf_counter() - started


def _assert_identical(fast, slow):
    assert fast.total_time == slow.total_time
    assert fast.events_processed == slow.events_processed
    assert fast.finish_times == slow.finish_times
    assert fast.results == slow.results
    assert fast.stats.messages_sent == slow.stats.messages_sent
    assert fast.stats.per_rank_messages_received == \
        slow.stats.per_rank_messages_received


def test_engine_pingpong(benchmark, scale):
    cfg = SCALES[scale]
    num_ranks = cfg["pairs"] * 2

    def fast_run():
        return _run(pingpong_program, num_ranks, reference=False,
                    rounds=cfg["rounds"], words=cfg["words"])

    (fast, fast_s) = benchmark.pedantic(fast_run, rounds=1, iterations=1)
    slow, slow_s = _run(pingpong_program, num_ranks, reference=True,
                        rounds=cfg["rounds"], words=cfg["words"])
    _assert_identical(fast, slow)
    # Every round is a full exchange on every pair.
    assert fast.stats.messages_sent == num_ranks * cfg["rounds"]
    print(f"\npingpong p={num_ranks}: run-queue {fast_s * 1e3:.1f} ms, "
          f"reference {slow_s * 1e3:.1f} ms "
          f"({fast.events_processed} events)")


def test_engine_incast(benchmark, scale):
    cfg = SCALES[scale]
    num_ranks = cfg["incast_ranks"]

    def fast_run():
        return _run(incast_program, num_ranks, reference=False,
                    burst=cfg["burst"], words=cfg["words"])

    (fast, fast_s) = benchmark.pedantic(fast_run, rounds=1, iterations=1)
    slow, slow_s = _run(incast_program, num_ranks, reference=True,
                        burst=cfg["burst"], words=cfg["words"])
    _assert_identical(fast, slow)
    assert fast.stats.per_rank_messages_received[0] == \
        (num_ranks - 1) * cfg["burst"]
    # The run-queue fast path must never meaningfully lose to the heap-only
    # reference scheduler.  Compare minima over a few runs with generous
    # head-room — single tiny-scale timings on shared CI runners are noisy.
    fast_s = min([fast_s] + [fast_run()[1] for _ in range(2)])
    slow_s = min([slow_s] + [_run(incast_program, num_ranks, reference=True,
                                  burst=cfg["burst"], words=cfg["words"])[1]
                             for _ in range(2)])
    assert fast_s <= slow_s * 2.0, (
        f"run-queue path slower than reference: {fast_s:.3f}s vs {slow_s:.3f}s")
    print(f"\nincast p={num_ranks}: run-queue {fast_s * 1e3:.1f} ms, "
          f"reference {slow_s * 1e3:.1f} ms "
          f"({fast.events_processed} events)")
