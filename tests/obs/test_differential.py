"""The observability layer's hard contract: recording perturbs nothing.

Every tier of the execution stack — scalar state machines, SPMD lockstep
analytic pricing, analytic fast-forward and the batched jquick level tier —
must produce bit-identical ``simulated_us``, event counts, message counts
and per-rank finish times whether a :class:`repro.obs.TraceRecorder` is
attached or not.  The critical-path analyzer's makespan must telescope to
the run's total time *exactly* (no float re-summation), and the honest
lockstep refusal must fire at the same virtual time traced and untraced.
The saved artifact is part of the contract: on every tier the critical path
of a trace that went through ``dump_jsonl`` / ``loads_jsonl`` equals the
live recorder's segment for segment, and the analyzer's index build equals
the per-record build it replaced on traces full of ties.
"""

from __future__ import annotations

import hashlib
import io
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import collective_program
from repro.mpi import init_mpi
from repro.obs import (
    TraceRecorder,
    critical_path,
    dump_jsonl,
    format_report,
    loads_jsonl,
)
from repro.obs.critpath import _SPAN_PRIORITY, _indexes
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.simulator.costmodel import HierarchicalParams
from repro.simulator.errors import RankFailedError
from repro.sorting import JQuickConfig, RbcBackend, jquick
from repro.sorting.jquick import JQUICK_BATCH_MIN_RANKS


def _assert_bit_identical(off, on):
    assert off.total_time == on.total_time
    assert off.events_processed == on.events_processed
    assert off.stats.messages_sent == on.stats.messages_sent
    assert off.stats.words_sent == on.stats.words_sent
    assert off.finish_times == on.finish_times
    assert off.trace is None and on.trace is not None


def _through_the_artifact(trace):
    buffer = io.StringIO()
    dump_jsonl(trace, buffer)
    return loads_jsonl(buffer.getvalue())


def _assert_critpath_exact(result):
    report = critical_path(result.trace)
    assert report.complete
    # Dataclass equality: total, completeness and every segment's rank,
    # bounds, category and label.
    assert critical_path(_through_the_artifact(result.trace)) == report
    # Exact equality is the contract: the walk telescopes total_time minus
    # the final cursor instead of summing segment durations.
    assert report.total == result.total_time
    assert sum(report.grouped_totals().values()) == pytest.approx(report.total)
    assert format_report(report)  # renders without error
    return report


def _run_collective(trace, *, lockstep, repetitions=1, sync_each=False):
    cluster = Cluster(16, HierarchicalParams.two_tier(ranks_per_node=4),
                      trace=trace)
    return cluster.run(collective_program, operation="scan", impl="rbc",
                       vendor="generic", words=8, repetitions=repetitions,
                       lockstep=lockstep, sync_each=sync_each)


def test_scalar_tier_bit_identical():
    off = _run_collective(None, lockstep=False)
    on = _run_collective(True, lockstep=False)
    _assert_bit_identical(off, on)
    assert on.obs["scalar_collectives"] > 0
    assert on.obs["phases_lockstep"] == 0
    report = _assert_critpath_exact(on)
    assert "comm" in report.grouped_totals()
    # The scalar tier runs real sends, so the trace carries message edges
    # and the comm-creation charge appears as its own category.
    assert len(on.trace.edges) > 0
    assert any(span[3] == "comm_create" for span in on.trace.spans)


def test_lockstep_and_fastforward_tiers_bit_identical():
    off = _run_collective(None, lockstep=True)
    on = _run_collective(True, lockstep=True)
    _assert_bit_identical(off, on)
    # The harness barrier fast-forwards, the timed scan prices in lockstep.
    assert on.obs["phases_lockstep"] > 0
    assert on.obs["phases_fastforward"] > 0
    assert on.obs["scalar_collectives"] == 0
    _assert_critpath_exact(on)
    labels = {span[4] for span in on.trace.spans}
    assert any(label.endswith("@lockstep") for label in labels)


def test_batched_jquick_tier_bit_identical():
    p = JQUICK_BATCH_MIN_RANKS
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1000, size=p).astype(np.float64)

    def program(env, *, local_data, config):
        world_mpi = init_mpi(env)
        world_rbc = yield from create_rbc_comm(world_mpi)
        output, stats = yield from jquick(env, RbcBackend(world_rbc),
                                          local_data, config)
        return env.now, output, stats.as_dict()

    def run(trace):
        parts = [values[rank:rank + 1].copy() for rank in range(p)]
        cluster = Cluster(p, trace=trace)
        return cluster.run(program, config=JQuickConfig(seed=17),
                           rank_kwargs=[dict(local_data=part)
                                        for part in parts])

    off = run(None)
    on = run(True)
    _assert_bit_identical(off, on)
    for rank in range(p):
        assert off.results[rank][0] == on.results[rank][0]
        assert np.array_equal(off.results[rank][1], on.results[rank][1])
    assert on.obs["phases_batched"] > 0
    _assert_critpath_exact(on)
    labels = {span[4] for span in on.trace.spans}
    assert "jqlevel@batched" in labels
    # The spans and the exact makespan, as recorded when every rank joined
    # and woke once per level (the order of the spans may differ).
    spans = sorted(map(tuple, on.trace.spans))
    assert hashlib.sha256(repr(spans).encode()).hexdigest() == \
        "f7bf59c3533908c4fdf5cdc2b638f463c28caa287e4451019caeecdf90841e24"
    assert critical_path(on.trace).total.hex() == "0x1.27d5c28f5c295p+9"


def test_honest_refusal_bit_identical_and_recorded():
    """A lockstep refusal fires at the same time traced and untraced, is
    counted once, and leaves a refusal event in the trace."""

    def run(trace):
        cluster = Cluster(16, HierarchicalParams.two_tier(ranks_per_node=4),
                          trace=trace)
        with pytest.raises(RankFailedError) as info:
            cluster.run(collective_program, operation="scan", impl="rbc",
                        vendor="generic", words=8, repetitions=3,
                        lockstep=True, sync_each=True)
        return info.value, cluster

    error_off, cluster_off = run(None)
    error_on, cluster_on = run(True)
    assert str(error_off) == str(error_on)
    assert cluster_off.engine._now == cluster_on.engine._now
    assert cluster_on._obs_snapshot()["lockstep_refusals"] == 1
    refusals = [event for event in cluster_on.trace.events
                if event[2] == "refusal"]
    assert len(refusals) == 1

    # A failed run leaves its recorder unfinalized; stamped with the time of
    # the refusal it is a trace like any other: it survives the artifact and
    # its critical path is the same before and after.
    now = cluster_on.engine._now
    trace = cluster_on.trace.finalize(now, [now] * 16,
                                      cluster_on._obs_snapshot())
    back = _through_the_artifact(trace)
    assert back.events == trace.events and back.spans == trace.spans
    report = critical_path(trace)
    assert report.complete and report.total == now
    assert critical_path(back) == report


def test_trace_spans_cover_all_categories_once():
    """No double coverage: comm-create charges appear as ``comm_create``
    spans only, never additionally as the engine's generic compute span."""
    result = _run_collective(True, lockstep=False)
    creates = [span for span in result.trace.spans
               if span[3] == "comm_create"]
    computes = [span for span in result.trace.spans
                if span[3] == "compute"]
    assert creates
    create_intervals = {(span[0], span[1], span[2]) for span in creates}
    for span in computes:
        assert (span[0], span[1], span[2]) not in create_intervals


# ---------------------------------------------------------------------------
# The analyzer's index build against the per-record build it replaced.
# ---------------------------------------------------------------------------

def _per_record_indexes(trace):
    """The index build of ``critical_path`` as it was before the indexes
    were built by the dict constructor: one pass, one comparison and two
    ``note`` calls per record.  Test-only reference."""
    by_arrival: dict = {}
    by_leave: dict = {}
    activity: dict = {}

    def note(rank, time):
        ends = activity.get(rank)
        if ends is None:
            activity[rank] = [time]
        elif ends[-1] < time:
            ends.append(time)
        elif ends[-1] != time:
            insort(ends, time)

    for edge in trace.edges:
        src, dst, post, _ld, start, _leave, arrival, _words = edge
        key = (dst, arrival)
        best = by_arrival.get(key)
        if best is None or (start, post) > (best[4], best[2]):
            by_arrival[key] = edge
        key = (src, edge[5])
        best = by_leave.get(key)
        if best is None or (start, post) > (best[4], best[2]):
            by_leave[key] = edge
        note(dst, arrival)
        note(src, edge[5])

    span_best: dict = {}
    for span in trace.spans:
        rank, t0, t1, category, _label = span
        key = (rank, t1)
        best = span_best.get(key)
        if best is None or (t0, _SPAN_PRIORITY.get(category, 0)) > \
                (best[1], _SPAN_PRIORITY.get(best[3], 0)):
            span_best[key] = span
        note(rank, t1)
    for ends in activity.values():
        ends.sort()
    return by_arrival, by_leave, span_best, activity


# Four instants and three ranks: arrivals, leaves and span ends collide all
# the time, and so do the (start, post) / (t0, priority) tie-breakers.
_instant = st.sampled_from((0.0, 1.0, 2.0, 3.0))
_rank = st.integers(min_value=0, max_value=2)
_tied_span = st.tuples(
    _rank, _instant, _instant,
    st.sampled_from(("compute", "collective", "comm_create", "custom")),
    st.sampled_from(("a", "b")))
_tied_edge = st.tuples(_rank, _rank, _instant, st.just(0.0), _instant,
                       _instant, _instant, st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tied_span, max_size=12), st.lists(_tied_edge, max_size=12))
def test_index_build_equals_the_per_record_build(spans, edges):
    trace = TraceRecorder(3)
    trace.spans.extend(spans)
    trace.edges.extend(edges)
    trace.finalize(3.0, [3.0, 2.0, 3.0], {})

    by_arrival, by_leave, span_best, activity = _per_record_indexes(trace)
    built = _indexes(trace)
    assert built == (by_arrival, by_leave, span_best)
    # Equal tuples are not enough where two records tie completely but for
    # a field outside the key: the same record must have been chosen.
    for index, reference in zip(built, (by_arrival, by_leave, span_best)):
        assert all(index[key] is reference[key] for key in reference)
    # The idle fallback looks up the latest activity before an instant, so
    # only the set of (rank, time) ends matters: the union of the index keys.
    assert set().union(*built) == \
        {(rank, time) for rank, ends in activity.items() for time in ends}

    report = critical_path(trace)
    assert report.complete and report.total == 3.0
    assert critical_path(_through_the_artifact(trace)) == report
