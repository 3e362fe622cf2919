"""Host-time spans recorded from outside the program (the traced run).

A :class:`SpanRecorder` wraps the public entry points of each layer of
``repro`` with timing wrappers: methods are patched on their class, module
functions on every ``repro.*`` module attribute that *is* the function
(callers import by name).  The simulator is single-threaded and drives rank
generators from inside ``Engine.run``, so the Python call stack is the span
stack: a span's parent is the span that was open when it was entered, and

    self time = duration - time covered by child spans.

Every boundary keeps ``(count, total, self, weight)`` accumulators.  A
*cold* boundary additionally keeps one ``(name, start, end, parent, run)``
tuple per span; *hot* boundaries (entered more than 10^5 times per pass at
the benchmark's sizes) keep the accumulators only.  Spans stay in memory and
are written out by :meth:`SpanRecorder.write_jsonl` when the run ends.

The wrapper's own cost lands in the *parent's* self time (the parent's
duration covers it, the child's does not), so self times of layers that call
hot boundaries are inflated by the tracing overhead that
``host.trace_overhead_ratio`` reports.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

__all__ = ["SpanRecorder", "install"]


class SpanRecorder:
    """In-memory span sink with a call-stack span stack."""

    def __init__(self):
        #: boundary name -> [count, total seconds, self seconds, weight]
        self.stats: dict[str, list] = {}
        #: cold spans: (name, start, end, parent index or -1, run id)
        self.spans: list = []
        #: simulation counter; ``Cluster.__init__`` bumps it (``new_run``).
        self.run_id = 0
        # Open frames: [start, seconds covered by children, cold span index].
        self._stack: list = []

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, *, hot=False, weigh=None, skip=None,
             new_run=False):
        """Timing wrapper around ``fn`` recording spans named ``name``.

        ``weigh(args, kwargs)`` adds a work amount (e.g. elements) to the
        boundary's weight; ``skip(args, kwargs)`` true calls straight
        through; ``new_run`` starts a new simulation id on entry.
        """
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            if new_run:
                recorder.run_id += 1
            parent = stack[-1][2] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append(None)
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if weigh is not None:
                    stat[3] += weigh(args, kwargs)
                if stack:
                    stack[-1][1] += duration
                if not hot:
                    spans[index] = (name, frame[0], end, parent,
                                    recorder.run_id)

        return wrapper

    # -------------------------------------------------------------- reading

    def count(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_s(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def weight(self, *names) -> int:
        return sum(self.stats[n][3] for n in names if n in self.stats)

    def total_self_s(self) -> float:
        """Sum of every boundary's self time (== the root span's duration)."""
        return sum(stat[2] for stat in self.stats.values())

    def write_jsonl(self, path) -> None:
        """One line per cold span, then one summary line per boundary."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, run = span
                handle.write(json.dumps({
                    "id": index, "name": name,
                    "layer": name.rsplit(".", 1)[0], "start": start,
                    "end": end, "parent": parent, "run": run}) + "\n")
            for name, (count, total, self_s, weight) in sorted(
                    self.stats.items()):
                handle.write(json.dumps({
                    "boundary": name, "layer": name.rsplit(".", 1)[0],
                    "count": count, "total_s": total, "self_s": self_s,
                    "weight": weight}) + "\n")


# ---------------------------------------------------------------------------
# Placing the wrappers.
# ---------------------------------------------------------------------------

def _size_of_first(args, kwargs):
    return int(args[0].size)


def _boundaries():
    """``(span name, owner, attribute, wrap options)`` of every boundary.

    ``owner`` is a class (patched on the class) or a module (the function is
    patched wherever a ``repro.*`` module holds it).
    """
    from repro import messaging
    from repro.collectives import hierarchical, ir
    from repro.collectives.machines import CollectiveRequest
    from repro.core import rand, spmd
    from repro.experiments import runner
    from repro.obs import critpath, export
    from repro.simulator.cluster import Cluster
    from repro.simulator.engine import Engine
    from repro.simulator.network import IndexedMailbox, Transport
    from repro.sorting import assignment, batched, kernels

    hot = dict(hot=True)
    return [
        ("simulator.cluster.init", Cluster, "__init__", dict(new_run=True)),
        ("simulator.cluster.run", Cluster, "run", {}),
        ("simulator.engine.run", Engine, "run", {}),
        ("simulator.network.post_send", Transport, "post_send", hot),
        ("simulator.network.match", Transport, "find_match", hot),
        ("simulator.network.match", Transport, "take_match", hot),
        ("simulator.network.match", Transport, "find_match_where", hot),
        ("simulator.network.match", Transport, "take_match_where", hot),
        # Wildcard-free receives poll their mailbox directly and never
        # reach the four Transport methods above.
        ("simulator.network.match", IndexedMailbox, "take_exact", hot),
        ("messaging.test", messaging.RequestSet, "test", hot),
        ("messaging.test", messaging, "test_all", hot),
        ("collectives.machines.test", CollectiveRequest, "test", hot),
        ("collectives.ir.build", hierarchical, "build_hierarchy", {}),
        ("collectives.ir.schedule_for", ir, "schedule_for", {}),
        # The fused jquick level joins through the coordinator too; it is
        # attributed to sorting.batched (where its phase class lives), so
        # the join wrapper steps aside for it.
        ("core.spmd.join", spmd.SpmdCoordinator, "join",
         dict(hot=True, skip=lambda args, kwargs: args[2] == "jqlevel")),
        ("core.rand.sample", rand, "sample_indices", hot),
        ("core.rand.sample", rand, "sample_indices_rows", hot),
        ("core.rand.sample", rand, "sample_keys", hot),
        ("sorting.kernels.partition", kernels, "fused_partition",
         dict(hot=True, weigh=_size_of_first)),
        ("sorting.kernels.partition", kernels, "fused_partition_rows",
         dict(hot=True, weigh=_size_of_first)),
        ("sorting.batched.level", batched, "join_jq_level", hot),
        ("sorting.assignment.greedy", assignment, "greedy_assignment", hot),
        ("sorting.assignment.greedy", assignment, "greedy_assignment_rows",
         hot),
        ("experiments.run_spec", runner, "run_spec", {}),
        ("experiments.execute_scenario", runner, "execute_scenario", {}),
        ("obs.dump_jsonl", export, "dump_jsonl", {}),
        ("obs.load_jsonl", export, "load_jsonl", {}),
        ("obs.critical_path", critpath, "critical_path", {}),
    ]


def install(recorder: SpanRecorder):
    """Place every wrapper; returns a function that removes them again."""
    undo = []
    for name, owner, attribute, options in _boundaries():
        original = getattr(owner, attribute)
        wrapper = recorder.wrap(name, original, **options)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [module for module_name, module in sys.modules.items()
                       if module is not None
                       and module_name.split(".")[0] == "repro"]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))

    def uninstall():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return uninstall
