"""The one differential pairing: the default cluster against the oracle.

``Cluster(reference_engine=True)`` is every original implementation at once
(tuple-heap event core, linear-scan mailboxes, every collective priced event
by event, Janus Quicksort on the per-rank frontier); the default cluster runs
whatever faster tier applies.  A differential test runs one program on both
with :func:`run_both` and requires :func:`assert_equal_observables`.
"""

from __future__ import annotations

import numpy as np

from repro.simulator import Cluster

__all__ = ["run_both", "assert_equal_observables"]

_STATS_VECTORS = ("per_rank_messages_sent", "per_rank_messages_received",
                  "per_rank_words_sent", "per_rank_words_received")
_TIER_COUNTERS = ("phases_lockstep", "phases_fastforward", "phases_batched",
                  "scalar_collectives", "lockstep_refusals",
                  "fastforward_fallbacks", "tier_declined")


def run_both(num_ranks, program, *, params=None, placement=None, **kwargs):
    """``(default, oracle)`` results of ``program`` on two fresh clusters.

    ``kwargs`` go to :meth:`Cluster.run` (program keywords, ``rank_args``,
    ``rank_kwargs``).  Whatever the default run raises — a lockstep refusal
    is a ``RankFailedError`` — propagates before the oracle runs.
    """
    default = Cluster(num_ranks, params, placement=placement).run(
        program, **kwargs)
    oracle = Cluster(num_ranks, params, placement=placement,
                     reference_engine=True).run(program, **kwargs)
    return default, oracle


def _same(a, b) -> bool:
    """Equality that looks inside tuples / lists / dicts holding arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) \
            and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _tiers(result) -> dict:
    return {name: result.obs[name] for name in _TIER_COUNTERS
            if result.obs[name]}


def assert_equal_observables(default, oracle) -> None:
    """Every observable of the two runs is equal, times bit for bit.

    Per-rank results (arrays inside tuples / lists / dicts compared by dtype
    and value), ``float.hex`` of every finish time and of the total, the
    four per-rank statistics vectors, ``messages_sent`` and ``words_sent``.
    A mismatch names the tiers that ran on either side.
    """
    tiers = f"default ran {_tiers(default)}, oracle ran {_tiers(oracle)}"
    assert len(default.results) == len(oracle.results), tiers
    for rank, (mine, theirs) in enumerate(zip(default.results,
                                              oracle.results)):
        assert _same(mine, theirs), \
            f"rank {rank}: result {mine!r} != {theirs!r}; {tiers}"
    assert [time.hex() for time in default.finish_times] == \
        [time.hex() for time in oracle.finish_times], tiers
    assert float(default.total_time).hex() == \
        float(oracle.total_time).hex(), tiers
    for name in _STATS_VECTORS + ("messages_sent", "words_sent"):
        assert getattr(default.stats, name) == getattr(oracle.stats, name), \
            f"stats.{name} differs; {tiers}"
