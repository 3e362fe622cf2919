"""Names, units and bounds of every metric (mirrored by ``BENCHMARK.json``).

Every number says which clock it uses: **host** is what the user of the
simulator waits for, **sim** is what the modelled machine would take.  The
model is unvalidated against measurements of a real machine (the repository
holds none), so no error figure is given; sim numbers and counts are exact
and compare across commits as equal / not equal.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS"]

#: Seconds of timed passes per run (``run_seconds`` of ``BENCHMARK.json``).
RUN_SECONDS = 10

#: (name, unit, better, bound) — measured with every wrapper off.  The two
#: times are host seconds *at nominal speed*: each is divided by how much
#: slower than nominal the reference kernel (:mod:`perfbench.reference`) ran
#: right next to it, because the shared sandbox drifts by tens of percent.
END_TO_END = [
    # host: median over the passes of one pass's wall time (the raw median
    # and the number of passes are host.wall_raw_s and host.passes)
    ("wall_s", "s", "lower", 0.15),
    # host: process start -> end of the checked warm-up pass; median of
    # several fresh processes
    ("setup_s", "s", "lower", 0.25),
    # host: ru_maxrss of the measuring process at its exit
    ("peak_rss_mib", "MiB", "lower", 0.05),
    # host: simulated messages priced in one pass / wall_s
    ("sim_msgs_per_s", "1/s", "higher", 0.15),
]

#: (name, unit, better) — layer = the module prefix of the name.  ``*_s`` are
#: host self times of the traced pass; counts are exact.
PER_LAYER = [
    ("host.passes", "count", "higher"),
    ("host.wall_raw_s", "s", "lower"),
    ("host.kernel_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.wall_min_s", "s", "lower"),
    ("host.wall_iqr_s", "s", "lower"),
    ("host.trace_overhead_ratio", "ratio", "lower"),
    ("host.loadavg1", "load", "lower"),
    ("host.unattributed_s", "s", "lower"),
    ("sim.total_ms", "ms", "lower"),
    ("sim.simulations", "count", "lower"),
    ("simulator.cluster.build_s", "s", "lower"),
    ("simulator.engine.events", "count", "lower"),
    ("simulator.engine.run_self_s", "s", "lower"),
    ("simulator.engine.us_per_event", "us", "lower"),
    ("simulator.network.messages", "count", "lower"),
    ("simulator.network.post_send_calls", "count", "lower"),
    ("simulator.network.post_send_s", "s", "lower"),
    ("simulator.network.match_s", "s", "lower"),
    ("simulator.network.mailboxes_materialized", "count", "lower"),
    ("simulator.network.pool_hit_ratio", "ratio", "higher"),
    ("messaging.test_s", "s", "lower"),
    ("collectives.scalar_requests", "count", "lower"),
    ("collectives.machines.test_s", "s", "lower"),
    ("collectives.ir.build_s", "s", "lower"),
    ("collectives.ir.schedules_built", "count", "lower"),
    ("core.spmd.join_s", "s", "lower"),
    ("core.spmd.join_calls", "count", "lower"),
    ("core.spmd.phases_lockstep", "count", "higher"),
    ("core.spmd.phases_fastforward", "count", "higher"),
    ("core.spmd.phases_batched", "count", "higher"),
    ("core.spmd.refusals", "count", "lower"),
    ("core.spmd.ff_fallbacks", "count", "lower"),
    ("core.spmd.ff_ratio", "ratio", "higher"),
    ("core.spmd.probe_refusal_rate", "ratio", "lower"),
    ("core.rand.sample_s", "s", "lower"),
    ("core.rand.calls", "count", "lower"),
    ("sorting.kernels.partition_s", "s", "lower"),
    ("sorting.kernels.calls", "count", "lower"),
    ("sorting.kernels.elements", "count", "lower"),
    ("sorting.batched.level_s", "s", "lower"),
    ("sorting.batched.levels", "count", "higher"),
    ("sorting.assignment.greedy_s", "s", "lower"),
    ("sorting.jquick.levels_max", "count", "lower"),
    ("sorting.jquick.janus_episodes", "count", "lower"),
    ("sorting.jquick.comm_creations", "count", "lower"),
    ("sorting.jquick.base_cases", "count", "lower"),
    ("sorting.rbc_speedup_sim", "ratio", "higher"),
    ("rbc.split_sim_us", "us", "lower"),
    ("mpi.create_group_sim_us", "us", "lower"),
    ("mpi.split_sim_us", "us", "lower"),
    ("rbc.split_speedup_sim", "ratio", "higher"),
    ("mpi.split_host_s", "s", "lower"),
    ("mpi.split_words", "count", "lower"),
    ("experiments.overhead_s", "s", "lower"),
    ("experiments.warm_s", "s", "lower"),
    ("experiments.cache_bytes", "B", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.edges", "count", "lower"),
    ("obs.trace_bytes", "B", "lower"),
    ("obs.critpath_s", "s", "lower"),
    ("obs.record_overhead_ratio", "ratio", "lower"),
]
