"""Tests of the low-level messaging layer (Status and request objects)."""

import numpy as np
import pytest

from repro.messaging import CompletedRequest, RecvRequest, SendRequest, Status
from repro.messaging import test_all as msg_test_all
from repro.messaging import test_any as msg_test_any
from repro.messaging import wait_all, wait_any
from repro.simulator import Cluster


def test_status_accessors():
    status = Status(source=3, tag=9, count=17)
    assert status.get_source() == 3
    assert status.get_tag() == 9
    assert status.get_count() == 17
    assert not status.cancelled


def test_completed_request_reports_value_and_status():
    class _Env:
        pass

    status = Status(source=1, tag=2, count=3)
    request = CompletedRequest(_Env(), value="payload", status=status)
    assert request.test()
    assert request.done
    assert request.result() == "payload"
    assert request.get_status() is status


def test_send_request_completes_when_buffer_is_free():
    def program(env):
        handle = env.transport.isend(0, 1, tag=0, context="c",
                                     payload=np.zeros(100))
        request = SendRequest(env, handle)
        assert not request.test()
        yield from request.wait()
        return env.now

    result = Cluster(2).run(program, rank_kwargs=[{}, {}])
    # Rank 1 never sends; its program still runs the same code, so restrict to rank 0.
    assert result.results[0] > 0


def test_recv_request_matches_and_translates_source():
    def program(env):
        if env.rank == 0:
            env.transport.post_send(0, 1, tag=5, context="ctx", payload="hello")
            yield from env.sleep(50.0)
            return None
        request = RecvRequest(env, env.transport, context="ctx",
                              source_world=0, tag=5,
                              translate_source=lambda world: world + 100)
        assert not request.test()
        value = yield from request.wait()
        status = request.get_status()
        return value, status.source, status.count

    result = Cluster(2).run(program)
    assert result.results[1] == ("hello", 100, 1)


def test_recv_request_with_source_filter():
    from repro.simulator import ANY_SOURCE

    def program(env):
        if env.rank in (1, 2):
            # Rank 1 is filtered out, rank 2 is accepted.
            yield from env.sleep(5.0 if env.rank == 1 else 10.0)
            env.transport.post_send(env.rank, 0, tag=1, context="ctx",
                                    payload=f"from-{env.rank}")
            return None
        request = RecvRequest(env, env.transport, context="ctx",
                              source_world=ANY_SOURCE, tag=1,
                              source_filter=lambda world: world == 2)
        value = yield from request.wait()
        # The unfiltered message from rank 1 is still pending afterwards.
        leftover = env.transport.find_match(0, 1, 1, "ctx")
        return value, leftover is not None

    result = Cluster(3).run(program)
    assert result.results[0] == ("from-2", True)


def test_recv_request_take_is_multi_shot():
    """``take()`` consumes the match and re-arms the request for the next one."""

    def program(env):
        if env.rank == 0:
            for index in range(3):
                env.transport.post_send(0, 1, tag=9, context="ctx",
                                        payload=f"msg-{index}")
            yield from env.sleep(50.0)
            return None
        request = RecvRequest(env, env.transport, context="ctx",
                              source_world=0, tag=9)
        received = []
        while len(received) < 3:
            yield from env.wait_until(request.test)
            received.append(request.take())
            # After take() the request is incomplete again until the next
            # message is matched.
            assert request.result() is None
        return received

    result = Cluster(2).run(program)
    assert result.results[1] == ["msg-0", "msg-1", "msg-2"]


def test_take_drain_reports_per_message_status_with_wildcards():
    """Multi-shot drain with a wildcard source (and tag): every drained
    message's Status must carry that message's actual (src, tag, count) —
    translated to the communicator's rank space — not the match key of the
    request or a stale status of a previously drained message."""
    from repro.simulator import ANY_SOURCE, ANY_TAG

    def program(env):
        if env.rank in (1, 2, 3):
            # Staggered sends so the arrival order (and hence the drain
            # order) is deterministic: rank 3 first, then 1, then 2.
            delay = {3: 1.0, 1: 10.0, 2: 20.0}[env.rank]
            yield from env.sleep(delay)
            env.transport.post_send(env.rank, 0, tag=env.rank * 7,
                                    context="ctx",
                                    payload=np.arange(env.rank, dtype=float))
            return None
        request = RecvRequest(env, env.transport, context="ctx",
                              source_world=ANY_SOURCE, tag=ANY_TAG,
                              source_filter=lambda world: world != 0,
                              translate_source=lambda world: world + 100)
        drained = []
        while len(drained) < 3:
            yield from env.wait_until(request.test)
            status = request.get_status()
            payload = request.take()
            drained.append((status.source, status.tag, status.count,
                            payload.size))
            # take() re-arms the request: no stale status may leak into the
            # next drained message.
            assert request.get_status() is None
            assert request.result() is None
        return drained

    result = Cluster(4).run(program)
    assert result.results[0] == [
        (103, 21, 3, 3),
        (101, 7, 1, 1),
        (102, 14, 2, 2),
    ]


def test_take_drain_status_not_cached_across_rearm():
    """A Status obtained (and cached) before ``take()`` must not be returned
    for the *next* drained message."""
    from repro.simulator import ANY_SOURCE

    def program(env):
        if env.rank in (1, 2):
            yield from env.sleep(5.0 * env.rank)
            env.transport.post_send(env.rank, 0, tag=4, context="ctx",
                                    payload=f"from-{env.rank}")
            return None
        request = RecvRequest(env, env.transport, context="ctx",
                              source_world=ANY_SOURCE, tag=4)
        yield from env.wait_until(request.test)
        first = request.get_status()
        assert first is request.get_status()  # cached while matched
        assert request.take() == "from-1"
        yield from env.wait_until(request.test)
        second = request.get_status()
        assert request.take() == "from-2"
        return first.source, second.source

    result = Cluster(3).run(program)
    assert result.results[0] == (1, 2)


def test_request_set_helpers():
    class _Manual:
        def __init__(self):
            self.completed = False

        def test(self):
            return self.completed

        def result(self):
            return "done"

    a, b = _Manual(), _Manual()
    assert not msg_test_all([a, b])
    ok, index = msg_test_any([a, b])
    assert not ok and index is None
    a.completed = True
    assert not msg_test_all([a, b])
    ok, index = msg_test_any([a, b])
    assert ok and index == 0
    b.completed = True
    assert msg_test_all([a, b])


def test_wait_all_and_wait_any_generators():
    def program(env):
        if env.rank == 0:
            requests = [
                RecvRequest(env, env.transport, context="x", source_world=1, tag=0),
                RecvRequest(env, env.transport, context="x", source_world=2, tag=0),
            ]
            first = yield from wait_any(env, requests)
            values = yield from wait_all(env, requests)
            return first, sorted(values)
        yield from env.sleep(3.0 * env.rank)
        env.transport.post_send(env.rank, 0, tag=0, context="x",
                                payload=env.rank * 10)
        return None

    result = Cluster(3).run(program)
    first, values = result.results[0]
    assert first == 0            # rank 1 (request index 0) arrives first
    assert values == [10, 20]
