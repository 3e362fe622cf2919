"""Lightweight tracing / statistics collection for simulated runs."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceStats", "Tracer"]


@dataclass
class TraceStats:
    """Aggregate statistics of one simulated run."""

    per_rank_messages_sent: list[int] = field(default_factory=list)
    per_rank_messages_received: list[int] = field(default_factory=list)
    per_rank_words_sent: list[int] = field(default_factory=list)
    per_rank_words_received: list[int] = field(default_factory=list)
    compute_time: list[float] = field(default_factory=list)

    @property
    def messages_sent(self) -> int:
        return sum(self.per_rank_messages_sent)

    @property
    def words_sent(self) -> int:
        return sum(self.per_rank_words_sent)

    def max_messages_received(self) -> int:
        return max(self.per_rank_messages_received, default=0)

    def max_messages_sent(self) -> int:
        return max(self.per_rank_messages_sent, default=0)

    def max_words_sent(self) -> int:
        return max(self.per_rank_words_sent, default=0)

    def max_words_received(self) -> int:
        return max(self.per_rank_words_received, default=0)

    def total_compute_time(self) -> float:
        return sum(self.compute_time)

    def max_compute_time(self) -> float:
        return max(self.compute_time, default=0.0)

    def as_dict(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "words_sent": self.words_sent,
            "max_messages_received": self.max_messages_received(),
            "max_messages_sent": self.max_messages_sent(),
            "max_words_sent": self.max_words_sent(),
            "max_words_received": self.max_words_received(),
            "total_compute_time": self.total_compute_time(),
            "max_compute_time": self.max_compute_time(),
        }


class Tracer:
    """Collects per-rank communication and computation counters.

    Tracing is always on; the counters are cheap (integer adds) and the
    benchmark harness relies on them to report message counts such as the
    Θ(min(p, n/p)) receive bound discussed for the greedy assignment.
    """

    def __init__(self, num_ranks: int):
        self.stats = TraceStats(
            per_rank_messages_sent=[0] * num_ranks,
            per_rank_messages_received=[0] * num_ranks,
            per_rank_words_sent=[0] * num_ranks,
            per_rank_words_received=[0] * num_ranks,
            compute_time=[0.0] * num_ranks,
        )

    def record_compute(self, rank: int, duration: float) -> None:
        self.stats.compute_time[rank] += duration

    def merge(self, other) -> None:
        """Fold ``other``'s counters into this tracer, elementwise.

        ``other`` is a :class:`Tracer` or a bare :class:`TraceStats` (as a
        :class:`~repro.simulator.cluster.ClusterResult` carries).  Per-rank
        lists are padded to the longer length so tracers from clusters of
        different sizes still merge; mirrors ``BenchTelemetry.merge``.
        """
        mine = self.stats
        theirs = other.stats if isinstance(other, Tracer) else other
        for name in ("per_rank_messages_sent", "per_rank_messages_received",
                     "per_rank_words_sent", "per_rank_words_received",
                     "compute_time"):
            dst = getattr(mine, name)
            src = getattr(theirs, name)
            if len(src) > len(dst):
                dst.extend([0] * (len(src) - len(dst)))
            for index, value in enumerate(src):
                dst[index] += value
