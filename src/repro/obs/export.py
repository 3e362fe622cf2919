"""Trace exporters: Chrome-trace/Perfetto JSON and a columnar JSONL format.

Two renderings of a finalized :class:`~repro.obs.spans.TraceRecorder`:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and https://ui.perfetto.dev.
  One trace-viewer *thread* per simulated rank, timestamps in simulated
  microseconds (the simulator's native unit, which happens to be the
  format's native unit too).  Spans become complete (``X``) slices,
  messages become a wire slice on the sender plus a flow arrow
  (``s``/``f``) from sender to destination mailbox, and point events
  become instants.

* :func:`write_jsonl` / :func:`load_jsonl` — the columnar
  ``repro-trace/v2`` artifact, for programmatic use (the experiments
  runner persists this next to cache entries; ``python -m repro.obs``
  reads it back).  Line 1 is the header (schema, ``num_ranks``,
  ``total_time``, ``finish_times``, ``counters`` and ``rows``: the row
  count of every table); then at most one line per non-empty table,
  ``{"table": "edges", "columns": {"src": [...], "dst": [...], ...}}`` —
  one JSON object of equal-length column arrays, so a table costs one
  encoder call to write and one decoder call to read however many rows it
  has.  Floats are serialized via ``repr``, so a recorder survives a round
  trip bit-identically.  The loader accepts nothing else: a wrong schema
  (including the per-record v1 files of earlier versions), an unknown or
  repeated table, a missing or extra column, columns of unequal lengths, a
  row count that disagrees with the header, more or fewer table lines
  than the header's row counts call for, or a line that is not a
  newline-terminated JSON object raise :class:`TraceFormatError` — so a
  file cut off anywhere, inside a line or at a line boundary, never loads.
  :func:`check_jsonl_framing` applies the header and line-count rules
  alone, without decoding a table.
"""

from __future__ import annotations

import io
import json
import os
from typing import Optional, Union

from .spans import TraceRecorder

__all__ = [
    "JSONL_SCHEMA",
    "TABLES",
    "TraceFormatError",
    "to_chrome_trace",
    "write_chrome_trace",
    "dump_jsonl",
    "write_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "check_jsonl_framing",
]

#: Schema identifier carried in the JSONL header line.
JSONL_SCHEMA = "repro-trace/v2"

#: The tables of a trace in file order, each with its column names in the
#: field order of the recorder's tuples (:mod:`repro.obs.spans`).
TABLES = {
    "spans": ("rank", "t0", "t1", "cat", "label"),
    "edges": ("src", "dst", "post", "ld", "start", "leave", "arrival",
              "words"),
    "events": ("time", "rank", "kind", "label"),
}


class TraceFormatError(ValueError):
    """The file is not a complete, well-formed ``repro-trace/v2`` trace."""


# --------------------------------------------------------------------------
# Chrome trace / Perfetto.
# --------------------------------------------------------------------------

def to_chrome_trace(trace: TraceRecorder) -> dict:
    """Render ``trace`` as a Trace Event Format object (JSON-serializable).

    The recorder must be finalized (``trace.finalize(...)`` — the cluster
    does this automatically for ``Cluster(trace=...)`` runs).
    """
    if not trace.finalized:
        raise ValueError("trace is not finalized; run it through a cluster "
                         "or call finalize() first")
    events: list[dict] = []
    # Name the per-rank rows once so viewers sort them numerically.
    for rank in range(trace.num_ranks):
        events.append({"ph": "M", "pid": 0, "tid": rank,
                       "name": "thread_name",
                       "args": {"name": f"rank {rank}"}})
    for rank, t0, t1, category, label in trace.spans:
        events.append({"ph": "X", "pid": 0, "tid": rank, "ts": t0,
                       "dur": t1 - t0, "name": label, "cat": category})
    for index, (src, dst, post, local_delay, start, leave, arrival,
                words) in enumerate(trace.edges):
        # Wire occupancy on the sender row; the queueing prelude
        # (post + local_delay .. start) is visible as the gap before it.
        events.append({"ph": "X", "pid": 0, "tid": src, "ts": start,
                       "dur": leave - start, "name": f"-> {dst}",
                       "cat": "message",
                       "args": {"words": words, "post": post,
                                "local_delay": local_delay,
                                "arrival": arrival}})
        events.append({"ph": "s", "pid": 0, "tid": src, "ts": leave,
                       "id": index, "name": "msg", "cat": "message"})
        events.append({"ph": "f", "pid": 0, "tid": dst, "ts": arrival,
                       "id": index, "name": "msg", "cat": "message",
                       "bp": "e"})
    for time, rank, kind, label in trace.events:
        events.append({"ph": "i", "pid": 0, "tid": rank, "ts": time,
                       "s": "t", "name": f"{kind}: {label}", "cat": kind})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": JSONL_SCHEMA,
            "num_ranks": trace.num_ranks,
            "total_time": trace.total_time,
            "counters": trace.counters,
        },
    }


def write_chrome_trace(trace: TraceRecorder, path: Union[str, os.PathLike]) -> None:
    """Write the Chrome-trace rendering of ``trace`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(trace), fh)


# --------------------------------------------------------------------------
# Columnar JSONL.
# --------------------------------------------------------------------------

def dump_jsonl(trace: TraceRecorder, fh: io.TextIOBase) -> None:
    """Write ``trace`` to an open text stream: the header, then one line per
    non-empty table (one encoder call each)."""
    if not trace.finalized:
        raise ValueError("trace is not finalized; run it through a cluster "
                         "or call finalize() first")
    tables = [(name, getattr(trace, name)) for name in TABLES]
    fh.write(json.dumps({
        "schema": JSONL_SCHEMA,
        "num_ranks": trace.num_ranks,
        "total_time": trace.total_time,
        "finish_times": trace.finish_times,
        "counters": trace.counters,
        "rows": {name: len(rows) for name, rows in tables},
    }) + "\n")
    for name, rows in tables:
        if rows:
            fh.write(json.dumps({
                "table": name,
                "columns": dict(zip(TABLES[name], zip(*rows))),
            }) + "\n")


def write_jsonl(trace: TraceRecorder, path: Union[str, os.PathLike]) -> None:
    """Write the JSONL rendering of ``trace`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_jsonl(trace, fh)


def _decode(line: str, what: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{what} is not valid JSON ({exc}); "
                               "truncated file?") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{what} is not a JSON object")
    return obj


def _open_document(text: str) -> tuple:
    """Decode the header and check the line framing of a v2 document.

    Returns the finalized, still row-less recorder, the header's row count
    per table, and the table lines (not yet decoded).  A document cut off
    anywhere fails here: every line is newline-terminated, and the header
    says how many table lines follow.
    """
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError("empty trace file")
    if not text.endswith("\n"):
        raise TraceFormatError(f"line {len(lines)} is not newline-terminated; "
                               "truncated file?")
    header = _decode(lines[0], "header line")
    if header.get("schema") != JSONL_SCHEMA:
        raise TraceFormatError(f"not a {JSONL_SCHEMA} trace: "
                               f"schema={header.get('schema')!r}")
    try:
        trace = TraceRecorder(int(header["num_ranks"]))
        trace.finalize(header["total_time"], header["finish_times"],
                       header["counters"])
        rows = header["rows"]
        if not isinstance(rows, dict) or sorted(rows) != sorted(TABLES) \
                or not all(type(count) is int and count >= 0
                           for count in rows.values()):
            raise ValueError(f"rows={rows!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed header: {exc!r}") from None
    expected = sum(1 for count in rows.values() if count)
    if len(lines) - 1 != expected:
        raise TraceFormatError(
            f"{len(lines) - 1} table line(s) follow the header, whose row "
            f"counts {rows} call for {expected}; truncated file?")
    return trace, rows, lines[1:]


def loads_jsonl(text: str) -> TraceRecorder:
    """Parse a JSONL trace from a string; inverse of :func:`dump_jsonl`.

    Anything but a complete, well-formed ``repro-trace/v2`` document raises
    :class:`TraceFormatError`.
    """
    trace, rows, table_lines = _open_document(text)
    loaded = dict.fromkeys(TABLES, 0)
    for number, line in enumerate(table_lines, start=2):
        obj = _decode(line, f"line {number}")
        name, columns = obj.get("table"), obj.get("columns")
        if name not in TABLES or loaded[name]:
            raise TraceFormatError(
                f"line {number}: unknown or repeated table {name!r}")
        names = TABLES[name]
        if not isinstance(columns, dict) or len(columns) != len(names) \
                or not all(isinstance(columns.get(c), list) for c in names):
            raise TraceFormatError(f"line {number}: table {name!r} needs "
                                   f"exactly the column arrays {list(names)}")
        lengths = set(map(len, columns.values()))
        if len(lengths) != 1:
            raise TraceFormatError(
                f"line {number}: table {name!r} has columns of unequal "
                f"lengths {sorted(lengths)}")
        getattr(trace, name).extend(zip(*map(columns.__getitem__, names)))
        loaded[name] = lengths.pop()
    if loaded != rows:
        raise TraceFormatError(f"row counts {loaded} disagree with the "
                               f"header's {rows}; truncated file?")
    return trace


def load_jsonl(path: Union[str, os.PathLike]) -> TraceRecorder:
    """Load a trace previously written by :func:`write_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_jsonl(fh.read())


def check_jsonl_framing(path: Union[str, os.PathLike]) -> None:
    """Raise :class:`TraceFormatError` unless ``path`` holds a complete v2
    document, judged by its header and line framing alone.

    The tables are not decoded, so this costs a file read: the experiments
    runner asks it before serving a traced scenario from its cache.
    """
    with open(path, "r", encoding="utf-8") as fh:
        _open_document(fh.read())
