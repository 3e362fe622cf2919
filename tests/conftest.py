"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import Cluster, NetworkParams


@pytest.fixture
def run_ranks():
    """Run a rank program on a fresh simulated cluster and return the results.

    Usage::

        def test_x(run_ranks):
            def program(env):
                ...
                yield from ...
                return value
            results = run_ranks(8, program)
    """

    def runner(num_ranks, program, *args, params=None, rank_kwargs=None, **kwargs):
        cluster = Cluster(num_ranks, params)
        result = cluster.run(program, *args, rank_kwargs=rank_kwargs, **kwargs)
        return result.results

    return runner


@pytest.fixture
def run_cluster():
    """Like ``run_ranks`` but returns the full :class:`ClusterResult`."""

    def runner(num_ranks, program, *args, params=None, rank_kwargs=None, **kwargs):
        cluster = Cluster(num_ranks, params)
        return cluster.run(program, *args, rank_kwargs=rank_kwargs, **kwargs)

    return runner


@pytest.fixture
def balanced_input():
    """Generate a balanced per-rank input layout from a global array."""

    def make(n, p, seed=0, kind="uniform"):
        from repro.bench.workloads import generate
        return generate(kind, n, p, seed=seed)

    return make


@pytest.fixture
def figure_table():
    """``figure_table(name, **overrides)``: run a figure of the paper at
    ``tiny`` size (``overrides`` resize it like the CLI's ``--set``) and return
    the aggregate table of its cells; a failed cell fails the test."""

    def run(name, **overrides):
        from repro.experiments import aggregate_results, figure_spec, run_spec
        sweep = run_spec(figure_spec(name, "tiny").override(**overrides))
        assert [r.error for r in sweep.results if not r.ok] == []
        return aggregate_results(sweep.results)

    return run
