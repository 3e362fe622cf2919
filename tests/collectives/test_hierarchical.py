"""Tests of the topology-aware node-leader collectives and per-tier ports.

Covers the hierarchy view (leader election, ragged nodes, offset/strided
groups), correctness of the node-leader schedules against the flat results,
the flat-machine bit-identity guarantee of the default algorithm selection,
and the shared-NIC (``ports_per_node``) transport serialisation.
"""

import numpy as np
import pytest
from oracle import assert_equal_observables, run_both

from repro.collectives.hierarchical import build_hierarchy, hierarchy_of
from repro.mpi import MpiGroup, init_mpi
from repro.rbc import collectives as rbc_collectives
from repro.rbc import create_rbc_comm
from repro.rbc.comm import RbcComm
from repro.simulator import (
    MACHINE_PRESETS,
    Cluster,
    HierarchicalParams,
    NetworkParams,
    Placement,
)

TWO_TIER = HierarchicalParams.two_tier(ranks_per_node=4)
THREE_TIER = HierarchicalParams(ranks_per_node=4, nodes_per_island=2)


# ---------------------------------------------------------------------------
# Hierarchy construction and leader election.
# ---------------------------------------------------------------------------

def test_build_hierarchy_block_placement():
    placement = Placement.regular(8, ranks_per_node=4, nodes_per_island=1)
    h = build_hierarchy(placement, range(8))
    assert h.node_members == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert h.node_of == (0, 0, 0, 0, 1, 1, 1, 1)
    assert h.islands == ((0,), (1,))
    assert h.num_islands == 2
    assert h.nontrivial


def test_build_hierarchy_ragged_last_node():
    """The regression the leader election must survive: a group whose size is
    not a multiple of the node size elects the smallest member of the small
    last node, and the root still replaces its own node's leader."""
    placement = Placement.regular(10, ranks_per_node=4, nodes_per_island=8)
    h = build_hierarchy(placement, range(10))
    assert h.node_members == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9))
    node_leaders, island_leaders = h.leaders_for(0)
    assert node_leaders == (0, 4, 8)
    assert island_leaders == (0,)
    node_leaders, island_leaders = h.leaders_for(9)
    assert node_leaders == (0, 4, 9)
    assert island_leaders == (9,)
    node_leaders, _ = h.leaders_for(5)
    assert node_leaders == (0, 5, 8)


def test_build_hierarchy_offset_group():
    """A group starting mid-node (the RBC range case) gets ragged first and
    last nodes; group ranks are renumbered from 0."""
    placement = Placement.regular(12, ranks_per_node=4, nodes_per_island=8)
    h = build_hierarchy(placement, range(3, 3 + 7))  # world 3..9
    assert h.node_members == ((0,), (1, 2, 3, 4), (5, 6))
    assert h.nontrivial


def test_build_hierarchy_cyclic_placement():
    placement = Placement.cyclic(8, num_nodes=4)
    h = build_hierarchy(placement, range(8))
    assert h.node_members == ((0, 4), (1, 5), (2, 6), (3, 7))
    assert h.num_islands == 1


def test_leaders_respect_islands():
    h = build_hierarchy(Placement.regular(16, 4, 2), range(16))
    assert h.islands == ((0, 1), (2, 3))
    node_leaders, island_leaders = h.leaders_for(6)
    # Root 6 (node 1) leads its node and its island; the other island is led
    # by the leader of its first node.
    assert node_leaders == (0, 6, 8, 12)
    assert island_leaders == (6, 8)


# ---------------------------------------------------------------------------
# hierarchy_of selection predicate.
# ---------------------------------------------------------------------------

def _probe_hierarchy(num_ranks, params, placement=None, first=0, last=None,
                     stride=1):
    """Run one rank program that reports hierarchy_of on an RBC endpoint."""
    def program(env):
        mpi = init_mpi(env, vendor="generic")
        world = yield from create_rbc_comm(mpi)
        comm = world if last is None else RbcComm(mpi, first, last, stride)
        if comm.rank is None:
            return "non-member"
        from repro.rbc.collectives import _endpoint
        from repro.rbc import tags
        ep = _endpoint(comm, tags.BCAST_TAG)
        h = hierarchy_of(ep)
        return None if h is None else h.node_members

    result = Cluster(num_ranks, params, placement=placement).run(program)
    return next(r for r in result.results if r != "non-member")


def test_hierarchy_of_is_none_on_flat_machines():
    assert _probe_hierarchy(8, NetworkParams.default()) is None


def test_hierarchy_of_tolerates_duck_typed_cost_models():
    """A cost model without uniform_link (pre-dating the method, not a
    CostModel subclass) must stay on the flat path, not AttributeError."""
    class Legacy:
        gamma = 0.002

        def link(self, src, dst, placement=None):
            return (5.0, 0.002)

        def worst_link(self):
            return (5.0, 0.002)

        def message_cost(self, words, src=None, dst=None, placement=None):
            return 5.0 + words * 0.002

        def compute_cost(self, operations):
            return operations * self.gamma

        def default_placement(self, num_ranks):
            return Placement.single_node(num_ranks)

    result = Cluster(4, Legacy()).run(
        _collective_program, "allreduce", 0, None)
    expected = [float(i * 4 + sum(range(4))) for i in range(5)]
    assert all(value == expected for value in result.results)


def test_hierarchy_of_is_none_on_single_node():
    assert _probe_hierarchy(
        8, TWO_TIER, placement=Placement.single_node(8)) is None


def test_hierarchy_of_is_none_for_one_rank_per_node_single_island():
    """One rank per node on one island IS the flat binomial tree."""
    placement = Placement.regular(6, ranks_per_node=1, nodes_per_island=8)
    assert _probe_hierarchy(6, TWO_TIER, placement=placement) is None


def test_hierarchy_of_nontrivial_on_multi_node():
    members = _probe_hierarchy(8, TWO_TIER)
    assert members == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_hierarchy_of_subgroup_is_group_local():
    members = _probe_hierarchy(12, TWO_TIER, first=3, last=9)
    assert members == ((0,), (1, 2, 3, 4), (5, 6))


def test_hierarchy_cache_distinguishes_affine_from_member_tuples():
    """Regression: an affine group's cache key (first, stride, size) must not
    collide with a non-affine group whose member tuple holds the same three
    integers — each communicator must get its own Hierarchy."""
    from repro.collectives.endpoint import TransportEndpoint

    placement = Placement.regular(6, ranks_per_node=2, nodes_per_island=8)
    cluster = Cluster(6, TWO_TIER, placement=placement)

    def endpoint(members, affine):
        return TransportEndpoint(
            cluster.transport, context="ctx", tag=1,
            size=len(members), to_world=lambda g: members[g],
            world_affine=affine)

    # Affine {0, 2, 4}: one rank per node, one island -> trivial (None).
    # Non-affine members (0, 2, 3): nodes ((0,), (1, 2)) -> nontrivial.
    # Both would key as (0, 2, 3) without the affine tag; check both
    # insertion orders.
    affine_ep = endpoint((0, 2, 4), (0, 2))
    tuple_ep = endpoint((0, 2, 3), None)
    assert hierarchy_of(affine_ep) is None
    h = hierarchy_of(tuple_ep)
    assert h is not None and h.node_members == ((0,), (1, 2))

    # Fresh endpoints: each caches its answer, the transport its key.
    cluster.transport._hierarchy_cache.clear()
    affine_ep = endpoint((0, 2, 4), (0, 2))
    tuple_ep = endpoint((0, 2, 3), None)
    h = hierarchy_of(tuple_ep)
    assert h is not None and h.node_members == ((0,), (1, 2))
    assert hierarchy_of(affine_ep) is None


def _split_collective_program(env, name, lockstep):
    """One node-aware MPI collective on a ``comm_split`` communicator, whose
    explicit group has no affine world map."""
    env.lockstep_collectives = lockstep
    world = init_mpi(env, vendor="intel")
    sub = yield from world.split(color=0, key=world.rank)
    assert sub.group.affine_world_map() is None
    result = yield from getattr(sub, name)(np.arange(3.0) + env.rank)
    return result


@pytest.mark.parametrize("lockstep", [False, True])
@pytest.mark.parametrize("name", ["bcast", "reduce", "allreduce", "gather",
                                  "scan"])
def test_split_group_collective_translates_linearly(monkeypatch, name,
                                                     lockstep):
    """Every member of a collective shares its endpoint, so a non-affine
    group's member tuple (the hierarchy key) is built once per collective:
    at p = 128 on ``two_tier`` the split group translates O(p) ranks per
    collective, not O(p^2).  Both tiers agree with the oracle."""
    p = 128
    translated = []
    translate = MpiGroup.translate

    def counting(group, rank):
        if group.format == "explicit":
            translated.append(rank)
        return translate(group, rank)

    monkeypatch.setattr(MpiGroup, "translate", counting)
    default, oracle = run_both(p, _split_collective_program,
                               params=MACHINE_PRESETS["two_tier"](),
                               name=name, lockstep=lockstep)
    assert_equal_observables(default, oracle)
    # One collective on each of two clusters (default and oracle).
    assert len(translated) <= 2 * 8 * p


# ---------------------------------------------------------------------------
# Correctness of the node-leader schedules.
# ---------------------------------------------------------------------------

def _collective_program(env, operation, root, algorithm, words=5,
                        first=0, last=None, stride=1):
    mpi = init_mpi(env, vendor="generic")
    world = yield from create_rbc_comm(mpi)
    comm = world if last is None else RbcComm(mpi, first, last, stride)
    if comm.rank is None:
        return "non-member"
    rank, size = comm.rank, comm.size
    payload = np.arange(words, dtype=np.float64) + rank
    if operation == "bcast":
        value = yield from rbc_collectives.bcast(
            comm, payload if rank == root else None, root,
            algorithm=algorithm)
        return np.asarray(value).tolist()
    if operation == "reduce":
        value = yield from rbc_collectives.reduce(comm, payload, root=root,
                                                  algorithm=algorithm)
        return None if value is None else np.asarray(value).tolist()
    if operation == "allreduce":
        value = yield from rbc_collectives.allreduce(comm, payload,
                                                     algorithm=algorithm)
        return np.asarray(value).tolist()
    if operation == "barrier":
        yield from rbc_collectives.barrier(comm, algorithm=algorithm)
        return env.now
    raise ValueError(operation)


MACHINES = [
    pytest.param(8, TWO_TIER, None, id="2tier-aligned"),
    pytest.param(10, TWO_TIER, None, id="2tier-ragged"),
    pytest.param(16, THREE_TIER, None, id="3tier"),
    pytest.param(8, HierarchicalParams.two_tier(ranks_per_node=4,
                                                ports_per_node=1),
                 None, id="2tier-nic"),
    pytest.param(8, TWO_TIER, Placement.cyclic(8, 4), id="cyclic"),
]


@pytest.mark.parametrize("num_ranks,params,placement", MACHINES)
@pytest.mark.parametrize("root", [0, 1, 5])
def test_hier_bcast_delivers_root_value(num_ranks, params, placement, root):
    result = Cluster(num_ranks, params, placement=placement).run(
        _collective_program, "bcast", root, "hierarchical")
    expected = [float(root + i) for i in range(5)]
    assert all(value == expected for value in result.results)


@pytest.mark.parametrize("num_ranks,params,placement", MACHINES)
@pytest.mark.parametrize("root", [0, 5])
def test_hier_reduce_sums_at_root(num_ranks, params, placement, root):
    result = Cluster(num_ranks, params, placement=placement).run(
        _collective_program, "reduce", root, "hierarchical")
    p = num_ranks
    expected = [float(i * p + sum(range(p))) for i in range(5)]
    for rank, value in enumerate(result.results):
        if rank == root:
            assert value == expected
        else:
            assert value is None


@pytest.mark.parametrize("num_ranks,params,placement", MACHINES)
def test_hier_allreduce_everyone_gets_sum(num_ranks, params, placement):
    result = Cluster(num_ranks, params, placement=placement).run(
        _collective_program, "allreduce", 0, "hierarchical")
    p = num_ranks
    expected = [float(i * p + sum(range(p))) for i in range(5)]
    assert all(value == expected for value in result.results)


@pytest.mark.parametrize("num_ranks,params,placement", MACHINES)
def test_hier_barrier_completes(num_ranks, params, placement):
    result = Cluster(num_ranks, params, placement=placement).run(
        _collective_program, "barrier", 0, "hierarchical")
    assert all(t is not None and t > 0 for t in result.results)


def test_hier_collectives_on_offset_strided_subgroup():
    """Node-leader schedules on an RBC range that starts mid-node and strides
    over every second rank (members world 3, 5, 7, 9, 11, 13)."""
    result = Cluster(16, TWO_TIER).run(
        _collective_program, "allreduce", 0, "hierarchical",
        first=3, last=13, stride=2)
    p = 6
    expected = [float(i * p + sum(range(p))) for i in range(5)]
    for rank, value in enumerate(result.results):
        if 3 <= rank <= 13 and (rank - 3) % 2 == 0:
            assert value == expected
        else:
            assert value == "non-member"


def test_hier_barrier_synchronises_late_arrivals():
    """No rank may leave the hierarchical barrier before the last one enters."""
    def program(env):
        mpi = init_mpi(env, vendor="generic")
        comm = yield from create_rbc_comm(mpi)
        yield from env.sleep(100.0 * env.rank)
        entered = env.now
        yield from rbc_collectives.barrier(comm, algorithm="hierarchical")
        return entered, env.now

    result = Cluster(6, TWO_TIER).run(program)
    last_entry = max(entered for entered, _ in result.results)
    assert all(left >= last_entry for _, left in result.results)


# ---------------------------------------------------------------------------
# Default selection: hierarchical machines switch, flat machines must not.
# ---------------------------------------------------------------------------

def _run_counters(num_ranks, params, operation, algorithm, placement=None):
    cluster = Cluster(num_ranks, params, placement=placement)
    result = cluster.run(_collective_program, operation, 0, algorithm)
    return (result.total_time, result.events_processed,
            result.stats.messages_sent, result.results)


@pytest.mark.parametrize("operation", ["bcast", "reduce", "allreduce",
                                       "barrier"])
def test_flat_machine_default_is_bit_identical(operation):
    """On flat machines the default (None) algorithm must reproduce the
    explicit flat algorithm exactly: simulated time, events, messages."""
    flat = {"bcast": "binomial", "reduce": "binomial",
            "allreduce": "reduce_bcast", "barrier": "dissemination"}
    default = _run_counters(8, NetworkParams.default(), operation, None)
    explicit = _run_counters(8, NetworkParams.default(), operation,
                             flat[operation])
    assert default == explicit


@pytest.mark.parametrize("operation", ["bcast", "reduce", "allreduce"])
def test_hierarchical_machine_default_selects_node_leader(operation):
    """On a multi-node machine the default must equal the explicit
    hierarchical schedule (same times, events, messages)."""
    params = HierarchicalParams.two_tier(ranks_per_node=4)
    placement = Placement.cyclic(8, 4)
    default = _run_counters(8, params, operation, None, placement=placement)
    hier = _run_counters(8, params, operation, "hierarchical",
                         placement=placement)
    assert default == hier


def test_barrier_default_is_dissemination_without_shared_nics():
    params = HierarchicalParams.two_tier(ranks_per_node=4)
    default = _run_counters(8, params, "barrier", None)
    dissemination = _run_counters(8, params, "barrier", "dissemination")
    hier = _run_counters(8, params, "barrier", "hierarchical")
    assert default == dissemination
    assert default != hier


def test_barrier_default_is_hierarchical_with_shared_nics():
    params = HierarchicalParams.two_tier(ranks_per_node=4, ports_per_node=1)
    default = _run_counters(8, params, "barrier", None)
    hier = _run_counters(8, params, "barrier", "hierarchical")
    assert default == hier


def test_unknown_algorithms_rejected():
    def program(env):
        mpi = init_mpi(env, vendor="generic")
        comm = yield from create_rbc_comm(mpi)
        with pytest.raises(ValueError, match="unknown reduce algorithm"):
            rbc_collectives.ireduce(comm, 1.0, algorithm="bogus")
        with pytest.raises(ValueError, match="unknown allreduce algorithm"):
            rbc_collectives.iallreduce(comm, 1.0, algorithm="bogus")
        with pytest.raises(ValueError, match="unknown barrier algorithm"):
            rbc_collectives.ibarrier(comm, algorithm="bogus")
        with pytest.raises(ValueError, match="unknown broadcast algorithm"):
            rbc_collectives.ibcast(comm, 1.0, algorithm="bogus")
        yield from env.sleep(1.0)
        return True

    assert all(Cluster(2).run(program).results)


# ---------------------------------------------------------------------------
# Shared node NICs (ports_per_node).
# ---------------------------------------------------------------------------

def _nic_cluster(ports, num_ranks=8, ranks_per_node=2):
    params = HierarchicalParams.two_tier(ranks_per_node=ranks_per_node,
                                         ports_per_node=ports)
    return Cluster(num_ranks, params)


def test_inter_node_sends_serialise_on_shared_nic():
    """Two ranks of one node sending inter-node at the same instant share one
    NIC: the second transfer starts only when the first has left."""
    cluster = _nic_cluster(ports=1)
    transport = cluster.transport
    alpha = cluster.params.inter_node_alpha
    first = transport.post_send(0, 2, 0, "ctx", None, 0)
    second = transport.post_send(1, 3, 0, "ctx", None, 0)
    assert first == pytest.approx(alpha)
    assert second == pytest.approx(2 * alpha)


def test_per_rank_ports_do_not_serialise_across_ranks():
    cluster = _nic_cluster(ports=None)
    transport = cluster.transport
    alpha = cluster.params.inter_node_alpha
    first = transport.post_send(0, 2, 0, "ctx", None, 0)
    second = transport.post_send(1, 3, 0, "ctx", None, 0)
    assert first == pytest.approx(alpha)
    assert second == pytest.approx(alpha)


def test_two_nic_ports_allow_two_concurrent_transfers():
    cluster = _nic_cluster(ports=2, num_ranks=12, ranks_per_node=3)
    transport = cluster.transport
    alpha = cluster.params.inter_node_alpha
    times = sorted(transport.post_send(src, src + 3, 0, "ctx", None, 0)
                   for src in range(3))
    assert times[0] == pytest.approx(alpha)
    assert times[1] == pytest.approx(alpha)
    assert times[2] == pytest.approx(2 * alpha)


def test_intra_node_traffic_bypasses_the_nic():
    """Shared-memory transfers use the per-rank ports even while the node's
    NIC is busy."""
    cluster = _nic_cluster(ports=1)
    transport = cluster.transport
    transport.post_send(0, 2, 0, "ctx", None, 0)          # NIC busy
    intra = transport.post_send(0, 1, 0, "ctx", None, 0)  # same node
    assert intra == pytest.approx(cluster.params.intra_node_alpha)


def test_receive_side_nic_serialises_incast():
    """Transfers from two different nodes into one node serialise their data
    phases on the destination node's shared NIC."""
    cluster = _nic_cluster(ports=1, num_ranks=12, ranks_per_node=2)
    transport = cluster.transport
    params = cluster.params
    words = 1000
    wire = words * params.inter_node_beta
    # Ranks 0 (node 0) and 2 (node 1) send to ranks 4 and 5 (both node 2).
    transport.post_send(0, 4, 0, "ctx", None, words)
    transport.post_send(2, 5, 0, "ctx", None, words)
    leave = params.inter_node_alpha + wire
    engine = cluster.engine
    arrivals = sorted(time for time, *_ in engine._heap)
    assert arrivals[0] == pytest.approx(leave)
    assert arrivals[1] == pytest.approx(leave + wire)


def test_nic_machine_runs_collectives_correctly():
    params = HierarchicalParams.two_tier(ranks_per_node=4, ports_per_node=1)
    result = Cluster(8, params).run(_collective_program, "allreduce", 0, None)
    expected = [float(i * 8 + sum(range(8))) for i in range(5)]
    assert all(value == expected for value in result.results)


# ---------------------------------------------------------------------------
# The interpreter's walk: a rank visits its own stages only.
# ---------------------------------------------------------------------------

class _CountingMembers(tuple):
    """Stage members that count the membership tests made against them."""

    lookups = 0

    def __contains__(self, rank):
        _CountingMembers.lookups += 1
        return tuple.__contains__(self, rank)

    def index(self, rank):
        _CountingMembers.lookups += 1
        return tuple.index(self, rank)


def _every_stage(schedule, rank):
    """``stages_of`` the way the interpreter used to find it out: by asking
    every stage of the schedule."""
    return [(stage, stage.members.index(rank)) for stage in schedule.stages
            if rank in stage.members]


@pytest.mark.parametrize("operation,algorithm", [
    ("bcast", None), ("reduce", None), ("allreduce", None),
    ("barrier", "hierarchical")])
def test_run_schedule_visits_only_the_ranks_own_stages(monkeypatch, operation,
                                                       algorithm):
    from repro.collectives import ir

    stage_init = ir.Stage.__init__

    def counting_init(self, kind, members, *args, **kwargs):
        stage_init(self, kind, members, *args, **kwargs)
        self.members = _CountingMembers(self.members)

    monkeypatch.setattr(ir.Stage, "__init__", counting_init)

    def run():
        _CountingMembers.lookups = 0
        result = Cluster(24, THREE_TIER).run(
            _collective_program, operation, 5, algorithm)
        return (result.results, result.finish_times, result.events_processed,
                result.stats.messages_sent), _CountingMembers.lookups

    indexed, lookups = run()
    assert lookups == 0
    monkeypatch.setattr(ir.Schedule, "stages_of", _every_stage)
    walked, lookups = run()
    assert walked == indexed
    # 24 ranks on 6 nodes and 3 islands: every rank asked every stage.
    assert lookups >= 24 * 6


def test_stages_of_lists_a_ranks_stages_in_schedule_order():
    from repro.collectives.ir import schedule_for

    placement = Placement.regular(13, ranks_per_node=4, nodes_per_island=2)
    hierarchy = build_hierarchy(placement, range(13))
    for operation in ("bcast", "reduce", "allreduce", "gather", "scan",
                      "barrier"):
        schedule = schedule_for(hierarchy, operation, 0 if operation in (
            "allreduce", "scan", "barrier") else 6)
        for rank in range(13):
            assert list(schedule.stages_of(rank)) == \
                _every_stage(schedule, rank)
        assert sum(len(schedule.stages_of(rank)) for rank in range(13)) == \
            sum(len(stage.members) for stage in schedule.stages)


# ---------------------------------------------------------------------------
# Vectorised hierarchy construction (groups >= 4096 members switch to the
# numpy bulk path; the scalar loop is the semantic reference).
# ---------------------------------------------------------------------------

def _hierarchies_equal(a, b):
    return (a.node_members == b.node_members and a.node_of == b.node_of
            and a.islands == b.islands
            and a.island_of_node == b.island_of_node
            and a.nontrivial == b.nontrivial)


def test_build_hierarchy_vectorised_matches_scalar():
    import random

    from repro.collectives import hierarchical as H

    def scalar(placement, world_ranks):
        threshold = H._HIERARCHY_VECTOR_MIN
        try:
            H._HIERARCHY_VECTOR_MIN = 1 << 60
            return H.build_hierarchy(placement, world_ranks)
        finally:
            H._HIERARCHY_VECTOR_MIN = threshold

    rng = random.Random(11)
    block = Placement.regular(16384, ranks_per_node=16, nodes_per_island=8)
    cyclic = Placement.cyclic(12000, num_nodes=77, nodes_per_island=9)
    cases = [
        (block, range(16384)),                        # full affine world
        (block, range(5, 5 + 3 * 5000, 3)),           # strided offset range
        (cyclic, range(12000)),
        (cyclic, tuple(sorted(rng.sample(range(12000), 8192)))),
    ]
    shuffled = list(range(8192))
    rng.shuffle(shuffled)
    cases.append((block, tuple(shuffled)))            # non-monotone members
    for placement, world_ranks in cases:
        vectorised = H._build_hierarchy_vectorised(placement, world_ranks)
        assert vectorised is not None
        reference = scalar(placement, world_ranks)
        assert _hierarchies_equal(vectorised, reference)
        assert type(vectorised.node_of[0]) is int
        assert type(vectorised.node_members[0][0]) is int


def test_build_hierarchy_string_labels_fall_back_to_scalar():
    from repro.collectives.hierarchical import _build_hierarchy_vectorised

    placement = Placement(nodes=tuple(f"n{r // 2}" for r in range(4096)),
                          islands=tuple("i0" for _ in range(4096)))
    assert _build_hierarchy_vectorised(placement, range(4096)) is None
    hierarchy = build_hierarchy(placement, range(4096))  # scalar fallback
    assert hierarchy.num_nodes == 2048
