"""Single-level parallel sample sort — the single-data-exchange baseline.

Sample sort (Section IV of the paper) chooses ``p - 1`` splitters from a
random sample of the input, partitions every process's local data into ``p``
buckets, routes bucket ``i`` to process ``i`` with a direct all-to-all
exchange (``p - 1`` message startups per process), and sorts locally.  It is
only efficient for ``n = Ω(p² / log p)`` and offers no balance guarantee —
which is exactly why the paper develops JQuick for small ``n/p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import rand
from ..rbc import collectives as rbc_collectives
from ..rbc.comm import RbcComm
from ..simulator.process import RankEnv
from .basecase import local_sort_cost
from .kernels import cached_log2, kway_bucket_split, select_splitters

__all__ = ["SampleSortConfig", "SampleSortStats", "sample_sort"]

_TAG_SAMPLES = 3_000_000
_TAG_SPLITTERS = 3_000_001
_TAG_EXCHANGE = 3_000_002


@dataclass(frozen=True)
class SampleSortConfig:
    """Parameters of single-level sample sort.

    Samples are drawn with the stateless counter-based hash of
    :mod:`repro.core.rand`, keyed by ``seed`` and the rank.
    """

    #: Number of random samples each process contributes.
    oversampling: int = 16
    seed: int = 0
    charge_local_work: bool = True


@dataclass
class SampleSortStats:
    messages_sent: int = 0
    final_local_load: int = 0
    imbalance: float = 0.0


def sample_sort(env: RankEnv, comm: RbcComm, local_data: np.ndarray,
                config: Optional[SampleSortConfig] = None):
    """Sort across all processes of ``comm`` (env generator).

    Returns ``(sorted_local_array, SampleSortStats)``.  The concatenation over
    ranks is globally sorted; per-rank sizes depend on the splitter quality.
    """
    config = config or SampleSortConfig()
    size = comm.size
    rank = comm.rank
    data = np.asarray(local_data)
    stats = SampleSortStats()

    if size == 1:
        if config.charge_local_work:
            yield from env.compute(local_sort_cost(data.size))
        result = np.sort(data)
        stats.final_local_load = int(result.size)
        stats.imbalance = 1.0 if result.size else 0.0
        return result, stats

    # 1. Sampling: every process contributes `oversampling` random elements.
    if data.size:
        indices = rand.sample_indices(
            rand.sample_key(config.seed, 0, 0, 0, rank),
            config.oversampling, data.size)
        samples = data[indices]
    else:
        samples = data[:0]
    gathered = yield from rbc_collectives.gather(comm, samples, root=0,
                                                 tag=_TAG_SAMPLES)

    # 2. Splitter selection at the root: p - 1 equidistant elements of the
    #    sorted sample.
    if rank == 0:
        splitters = select_splitters(gathered, size, data.dtype)
    else:
        splitters = None
    splitters = yield from rbc_collectives.bcast(comm, splitters, root=0,
                                                 tag=_TAG_SPLITTERS)
    splitters = np.asarray(splitters)

    # 3. Local partitioning into p buckets (fused kernel).
    if config.charge_local_work:
        yield from env.compute(data.size * max(1, cached_log2(max(2, size))))
    sorted_by_bucket, boundaries = kway_bucket_split(data, splitters, size)
    pieces = [sorted_by_bucket[boundaries[i]:boundaries[i + 1]] for i in range(size)]

    # 4. Direct all-to-all exchange (p - 1 startups per process).
    received = yield from rbc_collectives.alltoallv(comm, pieces, tag=_TAG_EXCHANGE)
    stats.messages_sent = size - 1

    # 5. Local sort of the received buckets.
    mine = np.concatenate([np.asarray(chunk) for chunk in received]) \
        if received else np.empty(0, dtype=data.dtype)
    if config.charge_local_work:
        yield from env.compute(local_sort_cost(mine.size))
    result = np.sort(mine)

    stats.final_local_load = int(result.size)
    average = max(1e-12, (yield from rbc_collectives.allreduce(
        comm, int(result.size), tag=_TAG_EXCHANGE + 7)) / size)
    stats.imbalance = result.size / average
    return result, stats
