"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table/figure of the paper at a configurable
scale and archives the resulting table under ``bench_results/``.  The scale is
chosen with the ``REPRO_BENCH_SCALE`` environment variable:

* ``tiny``  — a few seconds in total (sanity checking),
* ``small`` — the default; qualitative claims of the paper are asserted,
* ``paper`` — closest to the paper's parameters the simulator can afford.

Every benchmark additionally archives a machine-readable ``BENCH_<name>.json``
(wall-clock seconds, total simulated time, events processed) next to its
table, so successive PRs have a perf trajectory to compare against.

Where the host time of a run goes, layer by layer, is perfbench's job:
``python -m perfbench run --trace`` (see ``perfbench/README.md``).
"""

import os
import re
import sys
import time

import pytest

# The one differential pairing (default cluster vs oracle: run_both,
# assert_equal_observables) lives with the tests; the benches that compare
# tiers import it from there.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from repro.bench.harness import TELEMETRY, write_bench_json
from repro.experiments import aggregate_results, figure_spec, run_spec


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("tiny", "small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be tiny/small/paper, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture
def figure_table(benchmark, scale):
    """``figure_table(name)``: run figure ``name`` of the paper at the
    session's scale through the experiment runner (timed, once) and return
    the aggregate table of its cells, archived under the figure's name."""
    def run(name):
        spec = figure_spec(name, scale)
        sweep = benchmark.pedantic(run_spec, args=(spec,),
                                   rounds=1, iterations=1)
        errors = [result.error for result in sweep.results if not result.ok]
        assert not errors, errors[0]
        table = aggregate_results(sweep.results, title=spec.name,
                                  notes=[spec.description])
        table.save(name)
        return table
    return run


@pytest.fixture(autouse=True)
def bench_result_json(request):
    """Write ``BENCH_<test>.json`` with the run's aggregate counters.

    A benchmark may stash a dict in ``request.node.bench_extra``; its keys
    are merged into the JSON payload (used e.g. by ``bench_paper_scale`` to
    record per-operation peak-RSS readings).
    """
    TELEMETRY.reset()
    start = time.perf_counter()
    yield
    wall_clock_s = time.perf_counter() - start
    extra = {"scale": bench_scale()}
    bench_extra = getattr(request.node, "bench_extra", None)
    if bench_extra:
        extra.update(bench_extra)
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    write_bench_json(name, wall_clock_s=wall_clock_s, extra=extra)
