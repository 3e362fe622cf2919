"""RBC request handles: Test, Wait, Testall, Waitall, Waitany."""

import pytest

from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm, irecv, isend, wait, wait_all, wait_any
from repro.rbc import test_all as rbc_test_all
from repro.rbc import request as rbc_request


def _world(env):
    world_mpi = init_mpi(env)
    world = yield from create_rbc_comm(world_mpi)
    return world


def test_wait_returns_received_payload(run_ranks):
    def program(env):
        world = yield from _world(env)
        if world.rank == 0:
            request = irecv(world, 1, 0)
            value = yield from wait(request)
            return value
        yield from env.sleep(10.0)
        request = isend(world, "late payload", 0, 0)
        yield from request.wait()
        return None

    assert run_ranks(2, program)[0] == "late payload"


def test_testall_and_waitall(run_ranks):
    def program(env):
        world = yield from _world(env)
        if world.rank == 0:
            requests = [irecv(world, source, 1) for source in (1, 2, 3)]
            assert rbc_request.test_all(requests) is False
            values = yield from wait_all(env, requests)
            assert rbc_test_all(requests) is True
            return sorted(values)
        yield from env.sleep(world.rank * 3.0)
        yield from world.send(world.rank, 0, tag=1)
        return None

    assert run_ranks(4, program)[0] == [1, 2, 3]


def test_wait_any_returns_first_completed(run_ranks):
    def program(env):
        world = yield from _world(env)
        if world.rank == 0:
            slow = irecv(world, 1, 0)
            fast = irecv(world, 2, 0)
            index = yield from wait_any(env, [slow, fast])
            assert index == 1                      # rank 2 sends first
            yield from wait_all(env, [slow, fast])
            return slow.result(), fast.result()
        delay = 50.0 if world.rank == 1 else 1.0
        yield from env.sleep(delay)
        yield from world.send(f"from-{world.rank}", 0, 0)
        return None

    assert run_ranks(3, program)[0] == ("from-1", "from-2")


def test_request_repr_and_done(run_ranks):
    def program(env):
        world = yield from _world(env)
        request = isend(world, 1.0, (world.rank + 1) % world.size, 0)
        text = repr(request)
        assert "RbcRequest" in text
        yield from request.wait()
        assert request.done
        value = yield from world.recv((world.rank - 1) % world.size, 0)
        return value

    assert run_ranks(3, program) == [1.0, 1.0, 1.0]


def test_status_available_after_completion(run_ranks):
    def program(env):
        world = yield from _world(env)
        if world.rank == 0:
            request = irecv(world, 1, 5)
            yield from request.wait()
            status = request.get_status()
            return status.source, status.tag, status.count
        import numpy as np
        yield from world.send(np.zeros(7), 0, tag=5)
        return None

    assert run_ranks(2, program)[0] == (1, 5, 7)


def test_repr_does_not_progress_the_request():
    """Printing a request (a debugger, a failing assertion) must leave the
    simulation alone: no send posted, no message consumed, no event armed."""
    from repro.rbc import ibcast, ireduce
    from repro.simulator import Cluster

    def observe(env):
        stats = env.transport.tracer.stats
        return (stats.messages_sent, env.transport.pending_count(env.rank),
                env.engine.events_processed, len(env.engine._heap))

    def program(env, printing):
        world = yield from _world(env)
        shown = []

        def show(*requests):
            if printing:
                before = observe(env)
                shown.extend(repr(request) for request in requests)
                assert observe(env) == before
            else:
                shown.extend(None for _ in requests)

        down = ibcast(world, "payload" if world.rank == 0 else None, 0)
        up = ireduce(world, world.rank, root=0)
        receive = irecv(world, (world.rank + 1) % world.size, 7)
        send = isend(world, world.rank, (world.rank - 1) % world.size, 7)
        show(down, up, receive, send)
        # Every message of the first states has arrived, none is matched.
        yield from env.sleep(50.0)
        show(down, up, receive, send)
        yield from wait_all(env, [down, up, receive, send])
        show(down, up, receive, send)
        return shown, down.result(), up.result(), receive.result()

    quiet = Cluster(6).run(program, printing=False)
    shown = Cluster(6).run(program, printing=True)
    assert [r[1:] for r in shown.results] == [r[1:] for r in quiet.results]
    assert shown.finish_times == quiet.finish_times
    assert shown.events_processed == quiet.events_processed
    assert shown.stats.messages_sent == quiet.stats.messages_sent
    # What was printed: pending until tested, however long ago the message
    # arrived; done afterwards.
    first, late, last = (shown.results[3][0][i:i + 4] for i in (0, 4, 8))
    assert first[0] == late[0] == "RbcRequest(CollectiveRequest, pending)"
    assert late[2] == "RbcRequest(_TranslatedRecvRequest, pending)"
    assert first[3] == "RbcRequest(SendRequest, pending)"
    assert late[3] == "RbcRequest(SendRequest, done)"
    assert last == ["RbcRequest(CollectiveRequest, done)"] * 2 + [
        "RbcRequest(_TranslatedRecvRequest, done)",
        "RbcRequest(SendRequest, done)"]
