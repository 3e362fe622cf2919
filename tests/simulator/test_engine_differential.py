"""Differential tests: the default cluster vs. the oracle, event by event.

``Engine(reference=True)`` routes every process wake-up through the event
heap, exactly like the original scheduler; the default mode uses the
immediate run queue.  Because run-queue entries draw sequence numbers from
the same counter as heap events, both modes must produce *bit-identical*
simulations: same per-rank results, same simulated times, same event counts,
same message traces.  These tests prove that over representative workloads
that stay on the event tier on both sides (a fig4-style collective sweep
that does not opt in to lockstep, a fig8-style JQuick sort), so the pairing
of ``tests/oracle.py`` compares the two event cores and the two mailboxes.
"""

import pytest

from repro.bench.harness import collective_program
from repro.bench.workloads import generate
from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm
from repro.simulator import Engine, Sleep, WaitNotify
from repro.sorting import JQuickConfig, RbcBackend, jquick

from oracle import assert_equal_observables, run_both


@pytest.mark.parametrize("operation", ["bcast", "reduce", "scan", "gather"])
def test_collectives_identical_across_engine_modes(operation):
    """Fig4/fig9-style workload: every collective, both engine modes."""
    fast, slow = run_both(16, collective_program, operation=operation,
                          impl="rbc", vendor="generic", words=64,
                          lockstep=False)
    assert_equal_observables(fast, slow)
    assert fast.events_processed == slow.events_processed


def test_jquick_identical_across_engine_modes():
    """Fig8-style workload: JQuick on RBC, both engine modes."""
    p, n = 8, 512
    parts = generate("uniform", n, p, seed=7)

    def program(env, local_data):
        world_mpi = init_mpi(env, vendor="intel")
        world = yield from create_rbc_comm(world_mpi)
        output, stats = yield from jquick(env, RbcBackend(world), local_data,
                                          JQuickConfig(seed=7))
        return output, stats.distributed_steps, stats.exchange_messages_received

    fast, slow = run_both(
        p, program, rank_kwargs=[dict(local_data=parts[r]) for r in range(p)])
    assert_equal_observables(fast, slow)
    # The one lockstep phase of the default run is the sort's size agreement.
    assert fast.obs["phases_lockstep"] == 1
    assert fast.events_processed < slow.events_processed


def test_notify_and_timed_events_interleave_by_sequence():
    """A run-queue wake-up must not overtake a same-time heap event that was
    scheduled before it (and must run before one scheduled after it)."""
    for reference in (False, True):
        engine = Engine(reference=reference)
        log = []

        def waiter():
            while True:
                yield WaitNotify()
                log.append(("woke", engine.now))

        proc = engine.add_process(waiter())

        def at_five():
            log.append(("before-notify", engine.now))
            engine.notify(proc)                      # run-queue entry
            engine.schedule(0.0, lambda: log.append(("after-notify", engine.now)))

        engine.schedule(5.0, at_five)
        with pytest.raises(Exception):               # waiter never finishes
            engine.run()
        assert log == [("before-notify", 5.0), ("woke", 5.0),
                       ("after-notify", 5.0)], (reference, log)


def test_sleep_zero_and_notify_preserve_program_order():
    """Mixed zero-delay sleeps and notifications give one deterministic
    order, identical in both modes."""
    logs = {}
    for reference in (False, True):
        engine = Engine(reference=reference)
        log = []

        def ticker(name, delays):
            for step, delay in enumerate(delays):
                yield Sleep(delay)
                log.append((name, step, engine.now))

        engine.add_process(ticker("a", [0.0, 1.0, 0.0]))
        engine.add_process(ticker("b", [1.0, 0.0, 0.0]))
        engine.run()
        logs[reference] = log
    assert logs[False] == logs[True]


def test_events_processed_matches_reference_mode():
    """The run queue replaces heap round-trips one-for-one: the event count
    is identical, not merely close."""
    fast, slow = run_both(8, collective_program, operation="scan", impl="mpi",
                          vendor="ibm", words=256, lockstep=False)
    assert (fast.events_processed, fast.total_time) == \
        (slow.events_processed, slow.total_time)
