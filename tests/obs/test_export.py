"""Exporter round-trip, loader strictness and CLI contracts of
:mod:`repro.obs` (the columnar ``repro-trace/v2`` artifact)."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import collective_program
from repro.obs import (
    JSONL_SCHEMA,
    TABLES,
    TraceFormatError,
    TraceRecorder,
    check_jsonl_framing,
    critical_path,
    dump_jsonl,
    load_jsonl,
    loads_jsonl,
    to_chrome_trace,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main
from repro.simulator import Cluster

# Subnormal, smallest normal, largest finite, a sum that needs all 17 digits.
EDGE_TIMES = (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              0.1 + 0.2, 1e22, 0.0)
times = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from(EDGE_TIMES))
words = st.integers(min_value=0, max_value=1 << 40)
# Default text(): any code point but surrogates, so line separators the JSON
# encoder must escape (U+2028, U+0085, \x1c) and non-ASCII labels are drawn.
labels = st.one_of(st.text(max_size=20),
                   st.sampled_from(("größe→p", "a b", "行\n列", "\x85")))


@st.composite
def traces(draw, max_rows=6):
    num_ranks = draw(st.integers(min_value=1, max_value=8))
    rank = st.integers(min_value=0, max_value=num_ranks - 1)
    trace = TraceRecorder(num_ranks)
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        t0 = draw(times)
        trace.spans.append((draw(rank), t0, t0 + draw(times),
                            draw(st.sampled_from(("compute", "collective",
                                                  "comm_create"))),
                            draw(labels)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        post = draw(times)
        start = post + draw(times)
        leave = start + draw(times)
        trace.edges.append((draw(rank), draw(rank), post, draw(times),
                            start, leave, leave + draw(times), draw(words)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        trace.events.append((draw(times), draw(rank),
                             draw(st.sampled_from(("ir", "refusal",
                                                   "fallback"))),
                             draw(labels)))
    trace.finalize(draw(times),
                   [draw(times) for _ in range(num_ranks)],
                   {"scalar_collectives": draw(st.integers(0, 99))})
    return trace


def dumps(trace) -> str:
    buffer = io.StringIO()
    dump_jsonl(trace, buffer)
    return buffer.getvalue()


def exact(value):
    """A value with its type, floats by ``float.hex``: 2 is not 2.0, 0.0 is
    not -0.0, and no digit of a time may move."""
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def assert_same_trace(back, trace):
    assert back.finalized
    assert back.num_ranks == trace.num_ranks
    for table in TABLES:
        assert exact(getattr(back, table)) == exact(getattr(trace, table))
    assert exact(back.total_time) == exact(trace.total_time)
    assert exact(back.finish_times) == exact(trace.finish_times)
    assert back.counters == trace.counters


def _one_row_per_table():
    trace = TraceRecorder(2)
    trace.spans.append((0, 5e-324, 1.7976931348623157e308, "compute", "größe"))
    trace.edges.append((0, 1, 0.1 + 0.2, 0.0, 0.5, 1.0, 1.5, 1 << 40))
    trace.events.append((2.0, 1, "ir", "行"))
    return trace.finalize(2.0, [1.0, 2.0], {})


@settings(max_examples=60, deadline=None)
@given(traces())
@example(TraceRecorder(1).finalize(0.0, [0.0], {}))   # every table empty
@example(_one_row_per_table())
def test_jsonl_round_trip_exact(trace):
    text = dumps(trace)
    assert_same_trace(loads_jsonl(text), trace)
    # One header line, then one line per non-empty table: the encoder and
    # the decoder each run once per table, however many rows it has.
    lines = text.splitlines()
    tables = [name for name in TABLES if getattr(trace, name)]
    assert [json.loads(line)["table"] for line in lines[1:]] == tables
    header = json.loads(lines[0])
    assert header["schema"] == JSONL_SCHEMA == "repro-trace/v2"
    assert header["rows"] == {name: len(getattr(trace, name))
                              for name in TABLES}
    assert text.isascii() and text.endswith("\n")


def _document():
    """Header dict and ``{table: columns}`` of a small three-table trace."""
    lines = dumps(_one_row_per_table()).splitlines()
    tables = [json.loads(line) for line in lines[1:]]
    return json.loads(lines[0]), {t["table"]: t["columns"] for t in tables}


def _render(header, tables) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in [header] + [
        {"table": name, "columns": columns}
        for name, columns in tables.items()])


V1_FILE = (
    '{"schema": "repro-trace/v1", "num_ranks": 2, "total_time": 2.0, '
    '"finish_times": [1.0, 2.0], "counters": {}}\n'
    '{"t": "span", "rank": 0, "t0": 0.0, "t1": 1.0, "cat": "compute", '
    '"label": "x"}\n'
    '{"t": "edge", "src": 0, "dst": 1, "post": 0.0, "ld": 0.0, "start": 0.5, '
    '"leave": 1.0, "arrival": 1.5, "words": 8}\n')


def test_loads_jsonl_rejects_garbage():
    """Everything that is not a complete, well-formed v2 document ends in
    one typed error that says what is wrong."""
    def damaged(edit):
        header, tables = _document()
        edit(header, tables)
        return _render(header, tables)

    def drop_column(header, tables):
        del tables["edges"]["ld"]

    def extra_column(header, tables):
        tables["spans"]["host_s"] = [0.0]

    def short_column(header, tables):
        tables["edges"]["words"] = []

    def unknown_table(header, tables):
        tables["links"] = tables.pop("events")

    def longer_table(header, tables):
        for column in tables["spans"].values():
            column.append(column[0])

    def header_rows_missing(header, tables):
        del header["rows"]

    def header_rows_unknown_table(header, tables):
        header["rows"]["links"] = 0

    def header_without_total(header, tables):
        header["total_time"] = None

    good = _render(*_document())
    assert_same_trace(loads_jsonl(good), _one_row_per_table())
    header_line, spans_line, edges_line, events_line = \
        good.splitlines(keepends=True)
    cases = {
        "empty": ("", "empty trace file"),
        "other schema": ('{"schema": "something-else/v9"}\n',
                         "not a repro-trace/v2 trace"),
        "a v1 file": (V1_FILE,
                      "not a repro-trace/v2 trace: schema='repro-trace/v1'"),
        "cut mid-line": (good[:-30], "not newline-terminated"),
        "cut mid-line, newline restored": (good[:-30] + "\n",
                                           "line 4 is not valid JSON"),
        "cut at a line boundary": (header_line + spans_line + edges_line,
                                   "2 table line.* call for 3; truncated"),
        "header only": (header_line, "0 table line"),
        "repeated table": (header_line + spans_line + edges_line + edges_line,
                           "repeated table 'edges'"),
        "not an object": (header_line + spans_line + edges_line + "[1, 2]\n",
                          "line 4 is not a JSON object"),
        "header not an object": ("[]\n", "header line is not a JSON object"),
        "missing column": (damaged(drop_column), "exactly the column arrays"),
        "extra column": (damaged(extra_column), "exactly the column arrays"),
        "unequal columns": (damaged(short_column), r"unequal lengths \[0, 1\]"),
        "unknown table": (damaged(unknown_table), "unknown or repeated table "
                                                  "'links'"),
        "header count mismatch": (damaged(longer_table),
                                  "disagree with the header's"),
        "header without rows": (damaged(header_rows_missing),
                                "malformed header"),
        "header counts an unknown table": (damaged(header_rows_unknown_table),
                                           "malformed header"),
        "header without total_time": (damaged(header_without_total),
                                      "malformed header"),
    }
    for name, (text, message) in cases.items():
        with pytest.raises(TraceFormatError, match=message):
            loads_jsonl(text)
            pytest.fail(f"{name}: loaded")
    assert issubclass(TraceFormatError, ValueError)


def test_every_proper_prefix_is_rejected(tmp_path):
    """A file cut off anywhere — mid-line or exactly at a line boundary —
    never loads, and the cache's cheap framing check already sees it."""
    text = dumps(_traced_run().trace)
    path = tmp_path / "cut.trace.jsonl"
    boundaries = [i + 1 for i, char in enumerate(text) if char == "\n"]
    cuts = sorted(set(range(0, len(text), 97)) | set(boundaries[:-1])
                  | {len(text) - 1})
    for cut in cuts:
        with pytest.raises(TraceFormatError):
            loads_jsonl(text[:cut])
        path.write_text(text[:cut])
        with pytest.raises(TraceFormatError):
            check_jsonl_framing(path)
    path.write_text(text)
    check_jsonl_framing(path)


def test_unfinalized_trace_is_not_written():
    with pytest.raises(ValueError, match="not finalized"):
        dumps(TraceRecorder(2))


def _traced_run():
    cluster = Cluster(8, trace=True)
    return cluster.run(collective_program, operation="bcast", impl="rbc",
                       vendor="generic", words=16, lockstep=False)


def test_chrome_trace_structure():
    result = _traced_run()
    payload = to_chrome_trace(result.trace)
    events = payload["traceEvents"]
    phases = {event["ph"] for event in events}
    assert "X" in phases          # spans and edge wire slices
    assert {"s", "f"} <= phases   # flow arrows for message edges
    assert "M" in phases          # per-rank thread names
    json.dumps(payload)           # fully serialisable


def test_cli_timeline_critpath_summary(tmp_path, capsys):
    result = _traced_run()
    trace_path = tmp_path / "run.trace.jsonl"
    write_jsonl(result.trace, str(trace_path))

    assert obs_main(["summary", str(trace_path)]) == 0
    assert obs_main(["critpath", str(trace_path)]) == 0
    out_path = tmp_path / "run.chrome.json"
    assert obs_main(["timeline", str(trace_path), "-o", str(out_path)]) == 0
    output = capsys.readouterr().out
    assert "critical path" in output.lower() or "total" in output.lower()
    with open(out_path) as handle:
        assert json.load(handle)["traceEvents"]

    # Reloading the artifact reproduces the exact makespan.
    reloaded = load_jsonl(str(trace_path))
    assert critical_path(reloaded).total == result.total_time


@pytest.mark.parametrize("command", ["timeline", "critpath", "summary"])
def test_cli_names_the_file_and_the_error_instead_of_a_traceback(
        tmp_path, capsys, command):
    trace_path = tmp_path / "cut.trace.jsonl"
    trace_path.write_text(dumps(_traced_run().trace)[:-100])
    assert obs_main([command, str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith(f"{trace_path}: TraceFormatError: ")
    assert not (tmp_path / "cut.trace.jsonl.chrome.json").exists()
