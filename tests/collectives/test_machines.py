"""Correctness tests of the collective state machines over the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.endpoint import TransportEndpoint
from repro.collectives.hierarchical import SubgroupEndpoint
from repro.collectives.machines import (
    CollectiveRequest,
    allgather_schedule,
    allreduce_schedule,
    alltoallv_schedule,
    barrier_schedule,
    bcast_schedule,
    exscan_schedule,
    gather_schedule,
    reduce_schedule,
    scan_schedule,
)
from repro.mpi.datatypes import MAX, SUM
from repro.simulator import Cluster


def _endpoint(env, tag=0, word_cost_factor=1.0, per_message_delay=0.0):
    return TransportEndpoint(
        env.transport, context="coll-test", tag=tag,
        size=env.size, to_world=lambda r: r,
        word_cost_factor=word_cost_factor, per_message_delay=per_message_delay,
    )


def _run(p, schedule_factory):
    """Run a schedule on every rank (driven via CollectiveRequest); return results."""

    def program(env):
        request = CollectiveRequest(
            env, _endpoint(env), lambda port: schedule_factory(port, env))
        yield from env.wait_until(request.test)
        return request.result()

    return Cluster(p).run(program).results


SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16, 31]


@pytest.mark.parametrize("p", SIZES)
def test_bcast_delivers_root_value(p):
    root = p // 2
    results = _run(p, lambda ep, env: bcast_schedule(
        ep, f"payload-{env.rank}" if env.rank == root else None, root))
    assert results == [f"payload-{root}"] * p


@pytest.mark.parametrize("p", SIZES)
def test_reduce_sums_at_root(p):
    root = p - 1
    results = _run(p, lambda ep, env: reduce_schedule(ep, env.rank + 1, SUM, root))
    expected = p * (p + 1) // 2
    for rank, value in enumerate(results):
        if rank == root:
            assert value == expected
        else:
            assert value is None


@pytest.mark.parametrize("p", SIZES)
def test_reduce_with_max_operator(p):
    results = _run(p, lambda ep, env: reduce_schedule(ep, (env.rank * 7) % p, MAX, 0))
    assert results[0] == max((r * 7) % p for r in range(p))


@pytest.mark.parametrize("p", SIZES)
def test_scan_inclusive_prefix(p):
    results = _run(p, lambda ep, env: scan_schedule(ep, env.rank + 1, SUM))
    assert results == [(r + 1) * (r + 2) // 2 for r in range(p)]


def test_scan_non_commutative_operator_preserves_order():
    # String concatenation is associative but not commutative.
    concat = lambda a, b: a + b
    results = _run(9, lambda ep, env: scan_schedule(ep, chr(ord("a") + env.rank), concat))
    assert results == ["abcdefghi"[:r + 1] for r in range(9)]


@pytest.mark.parametrize("p", SIZES)
def test_exscan_exclusive_prefix(p):
    results = _run(p, lambda ep, env: exscan_schedule(ep, env.rank + 1, SUM))
    assert results[0] is None
    for rank in range(1, p):
        assert results[rank] == rank * (rank + 1) // 2


@pytest.mark.parametrize("p", SIZES)
def test_gather_collects_in_rank_order(p):
    root = p // 3
    results = _run(p, lambda ep, env: gather_schedule(ep, env.rank * 10, root))
    assert results[root] == [r * 10 for r in range(p)]
    for rank in range(p):
        if rank != root:
            assert results[rank] is None


def test_gather_supports_variable_sizes():
    p = 6
    results = _run(p, lambda ep, env: gather_schedule(
        ep, np.arange(env.rank, dtype=np.int64), 0))
    gathered = results[0]
    assert [chunk.size for chunk in gathered] == list(range(p))


@pytest.mark.parametrize("p", SIZES)
def test_barrier_completes_everywhere(p):
    results = _run(p, lambda ep, env: barrier_schedule(ep))
    assert results == [None] * p


def test_barrier_synchronises_late_arrivals():
    """No rank may leave the barrier before the latest rank entered it."""
    entry_time = 50.0

    def program(env):
        if env.rank == 3:
            yield from env.sleep(entry_time)
        request = CollectiveRequest(env, _endpoint(env), barrier_schedule)
        yield from env.wait_until(request.test)
        return env.now

    results = Cluster(8).run(program).results
    assert all(t >= entry_time for t in results)


@pytest.mark.parametrize("p", SIZES)
def test_allgather_everyone_gets_everything(p):
    results = _run(p, lambda ep, env: allgather_schedule(ep, env.rank ** 2))
    for value in results:
        assert value == [r ** 2 for r in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_everyone_gets_sum(p):
    results = _run(p, lambda ep, env: allreduce_schedule(ep, env.rank, SUM))
    assert results == [p * (p - 1) // 2] * p


def test_allreduce_on_numpy_arrays():
    p = 7
    results = _run(p, lambda ep, env: allreduce_schedule(
        ep, np.full(3, float(env.rank)), SUM))
    for value in results:
        np.testing.assert_allclose(value, np.full(3, p * (p - 1) / 2))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12])
def test_alltoallv_routes_every_payload(p):
    results = _run(p, lambda ep, env: alltoallv_schedule(
        ep, [f"{env.rank}->{dest}" for dest in range(p)]))
    for rank, received in enumerate(results):
        assert received == [f"{src}->{rank}" for src in range(p)]


def test_alltoallv_wrong_payload_count_rejected():
    def program(env):
        ep = _endpoint(env)
        with pytest.raises(ValueError):
            CollectiveRequest(env, ep, alltoallv_schedule, ["only-one"])
        yield from env.sleep(0.0)

    Cluster(3).run(program)


def test_first_state_executes_eagerly():
    """Creating the request must already post the root's sends (paper V-D)."""

    def program(env):
        ep = _endpoint(env)
        if env.rank == 0:
            CollectiveRequest(env, ep, bcast_schedule, "x", 0)
            # Without any further test() calls the message should already be
            # on the wire: rank 1 can receive it.
            yield from env.sleep(100.0)
            return None
        request = CollectiveRequest(env, ep, bcast_schedule, None, 0)
        yield from env.wait_until(request.test)
        return request.result()

    results = Cluster(2).run(program).results
    assert results[1] == "x"


def test_consecutive_collectives_on_same_tag_do_not_mix():
    """FIFO per (src, dst) keeps back-to-back collectives with the same tag apart."""

    def program(env):
        ep = _endpoint(env, tag=4)
        first = CollectiveRequest(env, ep, scan_schedule, env.rank, SUM)
        yield from env.wait_until(first.test)
        ep2 = _endpoint(env, tag=4)
        second = CollectiveRequest(env, ep2, scan_schedule, 100 * env.rank, SUM)
        yield from env.wait_until(second.test)
        return first.result(), second.result()

    p = 9
    results = Cluster(p).run(program).results
    for rank, (a, b) in enumerate(results):
        assert a == rank * (rank + 1) // 2
        assert b == 100 * rank * (rank + 1) // 2


def test_word_cost_factor_slows_down_but_keeps_result():
    def run_with(factor):
        def program(env):
            ep = _endpoint(env, word_cost_factor=factor)
            request = CollectiveRequest(
                env, ep, bcast_schedule, np.zeros(1000) if env.rank == 0 else None, 0)
            yield from env.wait_until(request.test)
            return env.now

        return max(Cluster(8).run(program).results)

    assert run_with(10.0) > run_with(1.0) * 2


def test_per_message_delay_increases_runtime():
    def run_with(delay):
        def program(env):
            ep = _endpoint(env, per_message_delay=delay)
            request = CollectiveRequest(env, ep, barrier_schedule)
            yield from env.wait_until(request.test)
            return env.now

        return max(Cluster(8).run(program).results)

    assert run_with(50.0) > run_with(0.0) + 50.0


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=39))
@settings(max_examples=25, deadline=None)
def test_property_bcast_and_reduce_agree_for_any_root(p, root_raw):
    root = root_raw % p
    bcast_results = _run(p, lambda ep, env: bcast_schedule(
        ep, env.rank if env.rank == root else None, root))
    assert bcast_results == [root] * p
    reduce_results = _run(p, lambda ep, env: reduce_schedule(ep, 1, SUM, root))
    assert reduce_results[root] == p


# ---------------------------------------------------------------------------
# Word counts travel with the message: forwarders never walk a payload again.
# ---------------------------------------------------------------------------

class _RecountingRequest(CollectiveRequest):
    """Drops every forwarded count, so each send walks its own payload."""

    __slots__ = ()

    def isend(self, payload, dest, local_delay=0.0, words=None):
        super().isend(payload, dest, local_delay)


def _ragged(rank):
    return [(rank, float(rank))] * (rank % 4) + [rank]


def _list_collectives_run(p, request_class, factor, through_subgroup):
    def program(env):
        ep = _endpoint(env, word_cost_factor=factor)

        def on_view(port, schedule, *args):
            if through_subgroup:
                members = list(range(p - 1, -1, -1))
                port = SubgroupEndpoint(port, members,
                                        members.index(env.rank))
            return schedule(port, *args)

        gathered = yield from request_class(
            env, ep, on_view, allgather_schedule, _ragged(env.rank)).wait()
        nested = yield from request_class(
            env, ep, on_view, bcast_schedule, [gathered, {"k": gathered}],
            1 % p).wait()
        return gathered, nested

    return Cluster(p).run(program)


@pytest.mark.parametrize("through_subgroup", [False, True],
                         ids=["endpoint", "subgroup"])
@pytest.mark.parametrize("factor", [1.0, 1.5, 1.6, 6.0])
@pytest.mark.parametrize("p", [2, 5, 16, 23])
def test_forwarded_word_counts_equal_a_recount(p, factor, through_subgroup):
    forwarded = _list_collectives_run(
        p, CollectiveRequest, factor, through_subgroup)
    recounted = _list_collectives_run(
        p, _RecountingRequest, factor, through_subgroup)
    assert forwarded.results == recounted.results
    assert forwarded.finish_times == recounted.finish_times
    assert forwarded.events_processed == recounted.events_processed
    for field in ("messages_sent", "words_sent", "per_rank_words_sent",
                  "per_rank_words_received"):
        assert getattr(forwarded.stats, field) == \
            getattr(recounted.stats, field)


def test_allgathered_list_is_walked_once_not_once_per_send(monkeypatch):
    from repro.collectives import machines
    from repro.simulator.network import payload_words

    p = 32
    walks = []

    def counting(payload):
        if isinstance(payload, list) and len(payload) == p:
            walks.append(len(payload))
        return payload_words(payload)

    monkeypatch.setattr(machines, "payload_words", counting)
    results = _run(p, lambda ep, env: allgather_schedule(ep, (env.rank, 0)))
    assert results == [[(r, 0) for r in range(p)]] * p
    # The bcast root measures the full list; p - 1 sends carry that count.
    assert walks == [p]
