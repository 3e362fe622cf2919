"""Tests of the benchmark harness building blocks: workloads and tables."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.tables import Table, format_number, results_dir
from repro.bench.workloads import WORKLOADS, generate, split_balanced, workload_names
from repro.sorting.intervals import capacity


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def test_workload_names_cover_registry():
    assert set(workload_names()) == set(WORKLOADS)
    assert "uniform" in WORKLOADS and "duplicates" in WORKLOADS


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_generate_produces_balanced_layout(kind):
    n, p = 103, 7
    parts = generate(kind, n, p, seed=3)
    assert len(parts) == p
    assert [part.size for part in parts] == [capacity(i, n, p) for i in range(p)]
    assert sum(part.size for part in parts) == n


def test_generate_is_deterministic_per_seed():
    a = generate("uniform", 50, 5, seed=9)
    b = generate("uniform", 50, 5, seed=9)
    c = generate("uniform", 50, 5, seed=10)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, z) for x, z in zip(a, c))


def test_generate_unknown_kind():
    with pytest.raises(KeyError):
        generate("nope", 10, 2)


def test_specific_workload_shapes():
    all_equal = np.concatenate(generate("all_equal", 40, 4))
    assert np.unique(all_equal).size == 1
    few = np.concatenate(generate("few_distinct", 400, 4))
    assert np.unique(few).size <= 4
    ordered = np.concatenate(generate("sorted", 100, 4))
    assert np.all(np.diff(ordered) >= 0)
    reverse = np.concatenate(generate("reverse", 100, 4))
    assert np.all(np.diff(reverse) <= 0)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=32))
@settings(max_examples=50)
def test_property_split_balanced_round_trips(n, p):
    values = np.arange(n, dtype=np.float64)
    parts = split_balanced(values, p)
    assert len(parts) == p
    np.testing.assert_array_equal(np.concatenate(parts) if parts else values, values)
    sizes = [part.size for part in parts]
    assert max(sizes) - min(sizes) <= 1 if sizes else True


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

def test_format_number_variants():
    assert format_number(None) == "-"
    assert format_number(True) == "yes"
    assert format_number(12345.0) == "12,345"
    assert format_number(12.34) == "12.3"
    assert format_number(0.5) == "0.500"
    assert format_number(1e-7) == "1.00e-07"
    assert format_number("text") == "text"
    assert format_number(0.0) == "0"


def _example_table():
    table = Table(title="Example", columns=["curve", "p", "time_ms"])
    table.add_row(curve="a", p=2, time_ms=1.0)
    table.add_row(curve="a", p=4, time_ms=2.0)
    table.add_row(curve="b", p=2, time_ms=5.0)
    table.add_note("a note")
    return table


def test_table_filter_lookup_column():
    table = _example_table()
    assert table.column("p") == [2, 4, 2]
    assert table.lookup("time_ms", curve="a", p=4) == 2.0
    assert table.lookup("time_ms", curve="c", p=4) is None
    filtered = table.filter(curve="a")
    assert len(filtered.rows) == 2
    assert filtered.notes == ["a note"]


def test_table_lookup_rejects_an_ambiguous_match():
    """Criteria that leave out a column the table varies must not quietly
    answer with the first of the matching rows."""
    with pytest.raises(LookupError, match=r"curve.*matches 2 rows"):
        _example_table().lookup("time_ms", curve="a")


def test_table_text_rendering_contains_everything():
    text = _example_table().to_text()
    assert "Example" in text
    assert "curve" in text and "time_ms" in text
    assert "note: a note" in text
    assert "5.00" in text or "5.000" in text


def test_table_save_writes_text_and_json(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = _example_table().save("example")
    assert os.path.exists(path)
    assert os.path.exists(str(tmp_path / "example.json"))
    assert results_dir() == str(tmp_path)
    content = open(path).read()
    assert "Example" in content
