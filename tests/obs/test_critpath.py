"""Unit contracts of the critical-path walker on hand-built traces."""

from __future__ import annotations

import pytest

from repro.obs import TraceRecorder, critical_path


def test_unfinalized_trace_rejected():
    with pytest.raises(ValueError):
        critical_path(TraceRecorder(2))


def test_empty_trace_is_all_idle():
    trace = TraceRecorder(2).finalize(10.0, [4.0, 10.0], {})
    report = critical_path(trace)
    assert report.complete
    assert report.total == 10.0
    assert report.grouped_totals() == {"idle": 10.0}


def test_edge_decomposition_and_exact_total():
    # Rank 0 computes [0, 2], posts a send at 2 that starts at 3 (send-port
    # wait), is on the wire [3, 5] and arrives at rank 1 at 6 (receive-port
    # wait); rank 1 then computes [6, 10].
    trace = TraceRecorder(2)
    trace.spans.append((0, 0.0, 2.0, "compute", "setup"))
    trace.edges.append((0, 1, 2.0, 0.0, 3.0, 5.0, 6.0, 8))
    trace.spans.append((1, 6.0, 10.0, "compute", "work"))
    trace.finalize(10.0, [2.0, 10.0], {})

    report = critical_path(trace)
    assert report.complete
    assert report.total == 10.0
    grouped = report.grouped_totals()
    assert grouped["compute"] == pytest.approx(6.0)
    assert grouped["comm"] == pytest.approx(2.0)          # wire time
    assert grouped["port_contention"] == pytest.approx(2.0)  # both port waits
    # Segments come back in chronological order: rank 0's compute and send
    # first, rank 1's receive wait and compute last.
    ranks = [segment.rank for segment in report.segments]
    assert ranks == [0, 0, 0, 1, 1]
    categories = [segment.category for segment in report.segments]
    assert categories == ["compute", "port_wait_send", "wire",
                          "port_wait_recv", "compute"]


def test_makespan_rank_with_trailing_idle():
    # The last-finishing rank ends with idle time after its final span; the
    # walk must bridge it and still telescope exactly.
    trace = TraceRecorder(1)
    trace.spans.append((0, 1.0, 3.0, "collective", "scan@lockstep"))
    trace.finalize(5.0, [5.0], {})
    report = critical_path(trace)
    assert report.complete
    assert report.total == 5.0
    grouped = report.grouped_totals()
    assert grouped["comm"] == pytest.approx(2.0)
    assert grouped["idle"] == pytest.approx(3.0)


def test_idle_goes_back_to_the_ranks_own_latest_activity():
    # Rank 1 makes the makespan with nothing ending at 9: the idle segment
    # reaches back to rank 1's own span end at 4 — not to rank 0's later
    # activity at 6, and not to rank 2's at 8 — then to 0 once rank 1 has
    # nothing earlier, whatever lower-numbered ranks did before.
    trace = TraceRecorder(3)
    trace.spans.append((0, 0.0, 6.0, "compute", "other rank"))
    trace.spans.append((1, 3.0, 4.0, "compute", "own"))
    trace.spans.append((2, 0.0, 8.0, "compute", "other rank"))
    trace.finalize(9.0, [6.0, 9.0, 8.0], {})
    report = critical_path(trace)
    assert report.complete and report.total == 9.0
    assert [tuple(segment) for segment in report.segments] == [
        (1, 0.0, 3.0, "idle", "idle"),
        (1, 3.0, 4.0, "compute", "own"),
        (1, 4.0, 9.0, "idle", "idle"),
    ]
