"""Multi-level sample sort — the k-way compromise baseline of Section IV.

Single-level sample sort needs ``n = Ω(p²/log p)`` and pays ``p - 1`` message
startups per process for its direct all-to-all exchange; hypercube quicksort
needs log p exchanges of the whole data.  Section IV of the paper describes
the compromise in between: "multi-level variants of sample sort agree on
``k - 1`` pivots, partition local data into ``k`` pieces, route piece ``i`` to
process group ``i`` and recursively invoke sample sort on each process group".

This module implements exactly that scheme on top of RBC: the per-level
process groups are contiguous rank ranges obtained with
``rbc::Split_RBC_Comm`` (local, constant time), so the recursion demonstrates
RBC on a third algorithm besides JQuick and hypercube quicksort.  Like the
other baselines — and unlike JQuick — it offers *no* balance guarantee: the
per-group loads depend entirely on the splitter quality, which is one of the
disadvantages Section IV lists for bucket-based algorithms.

Per level, every process sends at most ``k`` messages (one per target group)
and receives ``O(k)`` messages (from the senders assigned to it round-robin),
so a run with branching factor ``k`` over ``log_k p`` levels exchanges the
data ``log_k p`` times with ``O(k log_k p)`` startups per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core import rand
from ..messaging import RequestSet
from ..rbc import collectives as rbc_collectives
from ..rbc import p2p as rbc_p2p
from ..rbc.comm import RbcComm
from ..simulator.network import freeze_payload
from ..simulator.process import RankEnv
from .basecase import local_sort_cost
from .kernels import cached_log2, kway_bucket_split, select_splitters

__all__ = ["MultilevelConfig", "MultilevelStats", "multilevel_sample_sort"]

_TAG_SAMPLES = 4_000_000
_TAG_SPLITTERS = 4_000_001
_TAG_EXCHANGE = 4_000_002
_TAGS_PER_LEVEL = 8


@dataclass(frozen=True)
class MultilevelConfig:
    """Parameters of multi-level sample sort.

    Attributes
    ----------
    branching:
        Number of process groups (= data pieces) per level, the paper's ``k``.
        Clamped to the current group size on every level.
    oversampling:
        Random samples each process contributes to the splitter selection,
        per target group.
    seed:
        Base seed of the per-level sampling stream (the stateless
        counter-based hash of :mod:`repro.core.rand`).
    charge_local_work:
        Charge simulated time for partitioning / sorting / merging.
    """

    branching: int = 8
    oversampling: int = 16
    seed: int = 0
    charge_local_work: bool = True

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching factor must be at least 2")
        if self.oversampling < 1:
            raise ValueError("oversampling must be at least 1")


@dataclass
class MultilevelStats:
    """Per-process execution statistics of one multi-level sample sort run."""

    levels: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    max_local_load: int = 0
    final_local_load: int = 0
    history_local_load: List[int] = field(default_factory=list)


def multilevel_sample_sort(env: RankEnv, comm: RbcComm, local_data: np.ndarray,
                           config: Optional[MultilevelConfig] = None):
    """Sort across all processes of ``comm`` (env-level generator).

    Returns ``(sorted_local_array, MultilevelStats)``.  The concatenation of
    the per-rank outputs in rank order is globally sorted; per-rank sizes are
    *not* guaranteed to be balanced.
    """
    config = config or MultilevelConfig()
    stats = MultilevelStats()
    data = np.asarray(local_data)

    sub = comm
    level = 0
    while sub.size > 1:
        data = yield from _one_level(env, sub, data, config, stats, level)
        stats.max_local_load = max(stats.max_local_load, int(data.size))
        stats.history_local_load.append(int(data.size))

        # Descend into the group that now owns this process.
        group_first, group_last = _my_group_range(sub, config)
        sub = yield from sub.split(group_first, group_last)
        level += 1
        stats.levels = level

    if config.charge_local_work:
        yield from env.compute(local_sort_cost(data.size))
    result = np.sort(data)
    stats.final_local_load = int(result.size)
    stats.max_local_load = max(stats.max_local_load, int(result.size))
    return result, stats


# ---------------------------------------------------------------------------
# One level: splitter agreement, k-way partition, group-wise exchange.
# ---------------------------------------------------------------------------

def _group_layout(size: int, branching: int) -> list[tuple[int, int]]:
    """Contiguous (first, last) rank ranges of the ``min(branching, size)`` groups."""
    k = min(branching, size)
    base, extra = divmod(size, k)
    layout = []
    first = 0
    for g in range(k):
        width = base + (1 if g < extra else 0)
        layout.append((first, first + width - 1))
        first += width
    return layout


def _my_group_range(sub: RbcComm, config: MultilevelConfig) -> tuple[int, int]:
    for first, last in _group_layout(sub.size, config.branching):
        if first <= sub.rank <= last:
            return first, last
    raise AssertionError("rank not covered by the group layout")  # pragma: no cover


def _one_level(env: RankEnv, sub: RbcComm, data: np.ndarray,
               config: MultilevelConfig, stats: MultilevelStats, level: int):
    """Run one level of the recursion; returns this process's new local data."""
    size = sub.size
    rank = sub.rank
    layout = _group_layout(size, config.branching)
    k = len(layout)
    tag_base = _TAG_EXCHANGE + level * _TAGS_PER_LEVEL

    # --- 1. splitter agreement (k - 1 pivots from a gathered random sample) --
    sample_size = config.oversampling * k
    if data.size:
        indices = rand.sample_indices(
            rand.sample_key(config.seed, 0, 0, level, rank),
            sample_size, data.size)
        samples = data[indices]
    else:
        samples = data[:0]
    gathered = yield from rbc_collectives.gatherv(
        sub, samples, root=0, tag=_TAG_SAMPLES + level * _TAGS_PER_LEVEL)
    if rank == 0:
        splitters = select_splitters(gathered, k, data.dtype)
    else:
        splitters = None
    splitters = yield from rbc_collectives.bcast(
        sub, splitters, root=0, tag=_TAG_SPLITTERS + level * _TAGS_PER_LEVEL)
    splitters = np.asarray(splitters)

    # --- 2. k-way local partition (fused kernel) -----------------------------
    if config.charge_local_work:
        yield from env.compute(data.size * max(1.0, cached_log2(max(2, k))))
    # ``by_bucket`` is a fresh buffer this rank owns and never mutates again;
    # frozen, its per-group slices go on the wire without a transport snapshot.
    by_bucket, boundaries = kway_bucket_split(data, splitters, k)
    by_bucket = freeze_payload(by_bucket)
    pieces = [by_bucket[boundaries[g]:boundaries[g + 1]] for g in range(k)]

    # --- 3. route piece g to one member of group g ---------------------------
    # Sender r delivers piece g to group-g member (r mod |group g|): every
    # process sends exactly k messages, and member j of a group of width w
    # receives one message from every rank r of the parent group with
    # r mod w == j, i.e. about size / w = k messages.
    send_requests = []
    for g, (first, last) in enumerate(layout):
        width = last - first + 1
        dest = first + (rank % width)
        send_requests.append(rbc_p2p.isend(sub, pieces[g], dest, tag_base))
        stats.messages_sent += 1

    my_group_index = next(g for g, (first, last) in enumerate(layout)
                          if first <= rank <= last)
    first, last = layout[my_group_index]
    width = last - first + 1
    my_offset = rank - first
    senders = [r for r in range(size) if r % width == my_offset]

    received = []
    for _ in senders:
        chunk = yield from rbc_p2p.recv(sub, rbc_p2p.ANY_SOURCE, tag_base)
        received.append(np.asarray(chunk))
        stats.messages_received += 1

    send_tracker = RequestSet(send_requests)
    yield from env.wait_until(send_tracker.test)

    chunks = [c for c in received if c.size]
    merged = np.concatenate(chunks) if chunks else np.empty(0, dtype=data.dtype)
    if config.charge_local_work and merged.size:
        yield from env.compute(merged.size)
    return merged
