"""Tests for lazy (first-touch) mailboxes.

The transport materialises a rank's mailbox on first use instead of
preallocating all ``p`` upfront — at paper scale (p = 2^15) collective runs
priced entirely in lockstep never touch a single mailbox.  The contract is
purely structural: the lazy indexed store of the default cluster must be
observably identical to the oracle's linear-scan store in every simulation
(same timings, same stats, same results), the number of materialised
mailboxes must never exceed the number of ranks that actually received a
message, and asking a read-only question must not create one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messaging import wait_all
from repro.mpi import init_mpi
from repro.simulator import Cluster, IndexedMailbox, LinearScanMailbox

from oracle import assert_equal_observables, run_both


def _traffic_program(env, *, out_edges, in_edges):
    """Send one tagged message along every out-edge; receive every in-edge."""
    world = init_mpi(env, vendor="generic")
    sends = [world.isend(np.ones(words) * (env.rank + 1), dest, tag=tag)
             for dest, tag, words in out_edges]
    recvs = [world.irecv(source=src, tag=tag) for src, tag, words in in_edges]
    received = yield from wait_all(env, recvs)
    yield from wait_all(env, sends)
    return (env.now, tuple(float(np.sum(value)) for value in received))


def _edge_kwargs(num_ranks, edges):
    """Per-rank keywords of ``_traffic_program`` for ``(src, dst, words)``
    edges, one tag per edge."""
    out_edges = [[] for _ in range(num_ranks)]
    in_edges = [[] for _ in range(num_ranks)]
    for tag, (src, dst, words) in enumerate(edges):
        out_edges[src].append((dst, tag, words))
        in_edges[dst].append((src, tag, words))
    return [dict(out_edges=out_edges[r], in_edges=in_edges[r])
            for r in range(num_ranks)]


@st.composite
def _workloads(draw):
    num_ranks = draw(st.integers(min_value=2, max_value=24))
    edges = draw(st.lists(
        st.tuples(st.integers(0, num_ranks - 1),
                  st.integers(0, num_ranks - 1),
                  st.integers(0, 16)),
        min_size=0, max_size=40))
    # Self-sends are not part of the transport contract under test.
    edges = [(s, d, w) for s, d, w in edges if s != d]
    return num_ranks, edges


@settings(max_examples=40, deadline=None)
@given(_workloads())
def test_lazy_indexed_store_equals_the_oracle(workload):
    num_ranks, edges = workload
    lazy, oracle = run_both(num_ranks, _traffic_program,
                            rank_kwargs=_edge_kwargs(num_ranks, edges))
    assert_equal_observables(lazy, oracle)
    receivers = {dst for _, dst, _ in edges}
    assert lazy.obs["mailboxes_materialized"] <= len(receivers)
    assert oracle.obs["mailboxes_materialized"] <= len(receivers)


def test_no_traffic_materialises_nothing():
    cluster = Cluster(8)

    def program(env):
        yield from env.compute_time(1.0)
        return env.now

    result = cluster.run(program)
    assert result.total_time == 1.0
    assert cluster.transport.mailboxes_materialized() == 0


def test_read_only_introspection_materialises_nothing():
    """Asking "anything pending?" creates no mailbox — not for a quiet rank,
    and not for a rank that does not exist (which is an error, as on every
    other transport call)."""
    transport = Cluster(4).transport
    assert transport.pending_count(2) == 0
    assert transport.any_arrived(3) is None
    for rank in (12345, -7):
        with pytest.raises(ValueError, match="out of range"):
            transport.pending_count(rank)
        with pytest.raises(ValueError, match="out of range"):
            transport.any_arrived(rank)
    assert transport.mailboxes_materialized() == 0
    # A touched mailbox is still answered from.
    transport.post_send(0, 2, 0, "ctx", None)
    transport.engine.run()
    assert transport.pending_count(2) == 1
    assert transport.any_arrived(2).src == 0
    assert transport.mailboxes_materialized() == 1


@pytest.mark.parametrize("reference", [False, True])
def test_wildcard_receives_work_on_both_stores(reference):
    """ANY_SOURCE matching walks the transport path, not the exact-key fast
    path — it must behave identically on the default cluster's indexed
    mailboxes and on the oracle's linear-scan ones."""

    def program(env):
        world = init_mpi(env, vendor="generic")
        if env.rank == 0:
            values = []
            for _ in range(world.size - 1):
                value, status = yield from world.recv(return_status=True)
                values.append((status.source, float(value)))
            return tuple(sorted(values))
        yield from world.send(float(env.rank), dest=0, tag=env.rank)
        return None

    cluster = Cluster(5, reference_engine=reference)
    result = cluster.run(program)
    assert result.results[0] == tuple((r, float(r)) for r in range(1, 5))
    assert type(cluster.transport.mailbox_of(0)) is \
        (LinearScanMailbox if reference else IndexedMailbox)
