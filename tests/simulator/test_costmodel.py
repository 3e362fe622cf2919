"""Unit tests of the pluggable cost-model layer (flat + hierarchical)."""

import math

import pytest

from repro.simulator import (
    Cluster,
    CostModel,
    HierarchicalParams,
    NetworkParams,
    Placement,
)
from repro.simulator.costmodel import (
    DEFAULT_ALLREDUCE_CROSSOVER_WORDS,
    DEFAULT_BCAST_CROSSOVER_WORDS,
)


# ---------------------------------------------------------------------------
# NetworkParams validation.
# ---------------------------------------------------------------------------

def test_network_params_rejects_negative_alpha():
    with pytest.raises(ValueError, match="alpha"):
        NetworkParams(alpha=-1.0)


def test_network_params_rejects_negative_beta():
    with pytest.raises(ValueError, match="beta"):
        NetworkParams(beta=-0.5)


def test_network_params_rejects_negative_gamma():
    with pytest.raises(ValueError, match="gamma"):
        NetworkParams(gamma=-0.001)


def test_network_params_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        NetworkParams(alpha=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        NetworkParams(beta=float("inf"))


def test_network_params_rejects_zero_cost_network():
    with pytest.raises(ValueError, match="zero"):
        NetworkParams(alpha=0.0, beta=0.0)


def test_network_params_allows_individual_zeroes():
    # A pure-bandwidth or pure-latency machine is a valid degenerate model.
    assert NetworkParams(alpha=0.0, beta=0.1).message_cost(10) == pytest.approx(1.0)
    assert NetworkParams(alpha=3.0, beta=0.0).message_cost(10) == pytest.approx(3.0)
    NetworkParams(gamma=0.0)  # free local compute is fine too


def test_network_params_is_a_cost_model():
    params = NetworkParams(alpha=2.0, beta=0.5, gamma=0.25)
    assert isinstance(params, CostModel)
    assert params.link(0, 1) == (2.0, 0.5)
    assert params.worst_link() == (2.0, 0.5)
    assert params.message_cost(4) == pytest.approx(2.0 + 4 * 0.5)
    assert params.compute_cost(8) == pytest.approx(2.0)
    assert params.bcast_crossover_words(256) == DEFAULT_BCAST_CROSSOVER_WORDS
    assert params.allreduce_crossover_words(256) == DEFAULT_ALLREDUCE_CROSSOVER_WORDS


# ---------------------------------------------------------------------------
# Placement.
# ---------------------------------------------------------------------------

def test_regular_placement_blocks_ranks():
    placement = Placement.regular(8, ranks_per_node=2, nodes_per_island=2)
    assert placement.nodes == (0, 0, 1, 1, 2, 2, 3, 3)
    assert placement.islands == (0, 0, 0, 0, 1, 1, 1, 1)
    assert placement.num_nodes() == 4
    assert placement.num_islands() == 2


def test_placement_tiers():
    placement = Placement.regular(8, ranks_per_node=2, nodes_per_island=2)
    assert placement.tier_of(0, 1) == 0      # same node
    assert placement.tier_of(0, 2) == 1      # same island, different node
    assert placement.tier_of(0, 7) == 2      # different island
    assert placement.tier_of(5, 5) == 0


def test_single_node_placement():
    placement = Placement.single_node(5)
    assert placement.num_ranks == 5
    assert all(placement.tier_of(a, b) == 0 for a in range(5) for b in range(5))


def test_placement_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        Placement(nodes=(0, 0), islands=(0,))


def test_placement_rejects_bad_shape():
    with pytest.raises(ValueError):
        Placement.regular(4, ranks_per_node=0, nodes_per_island=1)
    with pytest.raises(ValueError):
        Placement.regular(4, ranks_per_node=1, nodes_per_island=0)


def test_placement_rejects_node_spanning_islands():
    """A node is one physical box: its ranks cannot live on two islands."""
    with pytest.raises(ValueError, match=r"rank 2.*node 7.*island"):
        Placement(nodes=(7, 3, 7), islands=(0, 0, 1))
    # The error names the first offending rank, not just the node.
    with pytest.raises(ValueError, match="rank 3"):
        Placement(nodes=(0, 1, 1, 0), islands=(0, 1, 1, 1))


def test_placement_regular_ragged_last_node():
    """num_ranks % ranks_per_node != 0: the last node is smaller, not split."""
    placement = Placement.regular(10, ranks_per_node=4, nodes_per_island=2)
    assert placement.nodes == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2)
    assert placement.islands == (0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    assert placement.num_nodes() == 3
    assert placement.num_islands() == 2


def test_placement_cyclic_round_robin():
    placement = Placement.cyclic(10, num_nodes=4)
    assert placement.nodes == (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)
    assert placement.num_islands() == 1
    two_islands = Placement.cyclic(8, num_nodes=4, nodes_per_island=2)
    assert two_islands.islands == (0, 0, 1, 1, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        Placement.cyclic(8, num_nodes=0)
    with pytest.raises(ValueError):
        Placement.cyclic(8, num_nodes=2, nodes_per_island=0)


def test_placement_shorter_than_communicator_rejected():
    """A placement covering fewer ranks than the cluster routes must fail
    loudly at construction, not index-error mid-simulation."""
    short = Placement.regular(4, ranks_per_node=2, nodes_per_island=2)
    with pytest.raises(ValueError, match="placement covers 4"):
        Cluster(6, HierarchicalParams(), placement=short)


# ---------------------------------------------------------------------------
# HierarchicalParams.
# ---------------------------------------------------------------------------

def test_hierarchical_link_selects_tier():
    params = HierarchicalParams(
        intra_node_alpha=1.0, intra_node_beta=0.001,
        inter_node_alpha=5.0, inter_node_beta=0.002,
        inter_island_alpha=9.0, inter_island_beta=0.004,
    )
    placement = Placement.regular(8, ranks_per_node=2, nodes_per_island=2)
    assert params.link(0, 1, placement) == (1.0, 0.001)
    assert params.link(0, 2, placement) == (5.0, 0.002)
    assert params.link(0, 7, placement) == (9.0, 0.004)
    # Without a placement the conservative worst link is priced.
    assert params.link(0, 1) == (9.0, 0.004)
    assert params.worst_link() == (9.0, 0.004)


def test_hierarchical_requires_ordered_alphas():
    with pytest.raises(ValueError, match="alpha"):
        HierarchicalParams(intra_node_alpha=6.0, inter_node_alpha=5.0)


def test_hierarchical_requires_ordered_betas():
    with pytest.raises(ValueError, match="beta"):
        HierarchicalParams(inter_node_beta=0.01, inter_island_beta=0.004)


def test_hierarchical_rejects_negative_parameters():
    with pytest.raises(ValueError, match="non-negative"):
        HierarchicalParams(intra_node_alpha=-0.1)


def test_hierarchical_rejects_bad_shape():
    with pytest.raises(ValueError, match="ranks_per_node"):
        HierarchicalParams(ranks_per_node=0)
    with pytest.raises(ValueError, match="nodes_per_island"):
        HierarchicalParams(nodes_per_island=-1)


def test_hierarchical_ports_per_node_validation():
    assert HierarchicalParams().ports_per_node is None
    assert HierarchicalParams(ports_per_node=2).ports_per_node == 2
    with pytest.raises(ValueError, match="ports_per_node"):
        HierarchicalParams(ports_per_node=0)
    with pytest.raises(ValueError, match="ports_per_node"):
        HierarchicalParams(ports_per_node=-1)


def test_hierarchical_tier_link():
    params = HierarchicalParams(
        intra_node_alpha=1.0, intra_node_beta=0.001,
        inter_node_alpha=2.0, inter_node_beta=0.002,
        inter_island_alpha=3.0, inter_island_beta=0.003)
    assert params.tier_link(0) == (1.0, 0.001)
    assert params.tier_link(1) == (2.0, 0.002)
    assert params.tier_link(2) == (3.0, 0.003)


def test_two_tier_preset_has_no_island_surcharge():
    params = HierarchicalParams.two_tier(ranks_per_node=8, ports_per_node=1)
    assert params.tier_link(1) == params.tier_link(2)
    assert params.ranks_per_node == 8
    assert params.ports_per_node == 1
    placement = params.default_placement(16)
    assert placement.num_nodes() == 2
    assert placement.num_islands() == 1


def test_hierarchical_default_placement_uses_shape():
    params = HierarchicalParams(ranks_per_node=4, nodes_per_island=2)
    placement = params.default_placement(16)
    assert placement.num_ranks == 16
    assert placement.num_nodes() == 4
    assert placement.num_islands() == 2


def test_hierarchical_crossovers_derive_from_links():
    params = HierarchicalParams()
    size = 256
    alpha, beta = params.worst_link()
    log_p = math.log2(size)
    expected_bcast = int(size * alpha / (beta * (log_p - 2.0)))
    expected_ring = int(size * alpha / (beta * (log_p - 1.0)))
    assert params.bcast_crossover_words(size) == expected_bcast
    assert params.allreduce_crossover_words(size) == expected_ring
    # Tiny groups fall back to the defaults (no large-input algorithms there).
    assert params.bcast_crossover_words(2) == DEFAULT_BCAST_CROSSOVER_WORDS


# ---------------------------------------------------------------------------
# Cluster integration: the cluster owns the placement.
# ---------------------------------------------------------------------------

def _pingpong_program(env, peer_of):
    transport = env.transport
    peer = peer_of[env.rank]
    if peer is None:
        return 0.0
    if env.rank < peer:
        handle = transport.isend(env.rank, peer, 0, "t", 1.0)
        yield from env.wait_until(lambda: handle.done)
    else:
        yield from env.wait_until(
            lambda: transport.take_match(env.rank, peer, 0, "t") is not None)
    return env.now


def test_cluster_owns_default_placement():
    cluster = Cluster(8, HierarchicalParams(ranks_per_node=2, nodes_per_island=2))
    assert cluster.placement.num_nodes() == 4
    assert cluster.transport.placement is cluster.placement


def test_cluster_flat_placement_is_single_node():
    cluster = Cluster(8)
    assert cluster.placement.num_nodes() == 1
    assert cluster.placement.num_islands() == 1


def test_cluster_rejects_wrong_sized_placement():
    with pytest.raises(ValueError, match="placement"):
        Cluster(8, HierarchicalParams(), placement=Placement.single_node(4))


def test_hierarchical_times_follow_tiers():
    """The same exchange costs strictly more per widened hierarchy tier."""
    params = HierarchicalParams(
        intra_node_alpha=1.0, intra_node_beta=0.001,
        inter_node_alpha=5.0, inter_node_beta=0.002,
        inter_island_alpha=9.0, inter_island_beta=0.004,
        ranks_per_node=2, nodes_per_island=2,
    )

    def exchange(placement):
        cluster = Cluster(8, params, placement=placement)
        peer_of = {0: 1, 1: 0, **{r: None for r in range(2, 8)}}
        result = cluster.run(_pingpong_program, peer_of)
        return result.total_time

    intra = exchange(Placement.single_node(8))
    inter_node = exchange(Placement.regular(8, 1, 8))   # 8 nodes, one island
    inter_island = exchange(Placement.regular(8, 1, 1))  # one node per island
    assert intra < inter_node < inter_island
    assert intra == pytest.approx(1.0 + 1 * 0.001)
    assert inter_node == pytest.approx(5.0 + 1 * 0.002)
    assert inter_island == pytest.approx(9.0 + 1 * 0.004)


def test_hierarchical_differs_from_flat_for_same_program():
    def bcast_like(env):
        transport = env.transport
        if env.rank == 0:
            handles = [transport.isend(0, dst, 0, "b", [1.0] * 64)
                       for dst in range(1, env.size)]
            yield from env.wait_until(lambda: all(h.done for h in handles))
        else:
            yield from env.wait_until(
                lambda: transport.take_match(env.rank, 0, 0, "b") is not None)
        return env.now

    flat = Cluster(8, NetworkParams.default()).run(bcast_like).total_time
    hier = Cluster(8, HierarchicalParams(ranks_per_node=2,
                                         nodes_per_island=2)).run(bcast_like).total_time
    assert flat != hier


# ---------------------------------------------------------------------------
# Named machine presets (fat-tree, dragonfly, registry).
# ---------------------------------------------------------------------------

def test_fat_tree_preset_is_valid_and_full_bisection():
    params = HierarchicalParams.fat_tree()
    # Full bisection: the per-word price is identical on both network tiers;
    # only the spine traversal's extra startup distinguishes them.
    assert params.inter_island_beta == params.inter_node_beta
    assert params.inter_island_alpha > params.inter_node_alpha
    assert params.intra_node_alpha < params.inter_node_alpha
    shaped = HierarchicalParams.fat_tree(ranks_per_node=4, nodes_per_pod=2,
                                         ports_per_node=1)
    placement = shaped.default_placement(16)
    assert placement.num_nodes() == 4 and placement.num_islands() == 2
    assert shaped.ports_per_node == 1


def test_dragonfly_preset_is_valid_and_tapered():
    params = HierarchicalParams.dragonfly()
    # Tapered global links: crossing groups costs more per word AND per
    # message than the all-to-all links inside a group.
    assert params.inter_island_beta > params.inter_node_beta
    assert params.inter_island_alpha > params.inter_node_alpha
    shaped = HierarchicalParams.dragonfly(ranks_per_node=2, nodes_per_group=2)
    placement = shaped.default_placement(8)
    assert placement.num_nodes() == 4 and placement.num_islands() == 2


def test_machine_preset_registry_is_complete_and_valid():
    from repro.simulator import MACHINE_PRESETS, machine_preset

    assert {"flat", "latency_bound", "bandwidth_bound", "supermuc",
            "two_tier", "shared_nic", "fat_tree", "dragonfly"} \
        == set(MACHINE_PRESETS)
    for name in MACHINE_PRESETS:
        model = machine_preset(name)
        assert isinstance(model, CostModel), name
        alpha, beta = model.worst_link()
        assert alpha >= 0 and beta >= 0
        # Every preset constructed through the registry passed validation
        # (construction raises otherwise) and prices a 1-word message.
        assert model.message_cost(1) > 0


def test_machine_preset_lookup():
    from repro.simulator import machine_preset

    assert isinstance(machine_preset("flat"), NetworkParams)
    assert machine_preset("shared_nic").ports_per_node == 1
    model = NetworkParams.bandwidth_bound()
    assert machine_preset(model) is model  # pass-through
    with pytest.raises(KeyError, match="unknown machine preset"):
        machine_preset("fat-tree")  # underscores, not dashes


# ---------------------------------------------------------------------------
# Vectorised placement paths (>= 4096 ranks switch to numpy bulk code; the
# scalar loop below the threshold is the semantic reference).
# ---------------------------------------------------------------------------

def test_large_placement_constructors_match_scalar_reference():
    for num_ranks, rpn, npi in [(4096, 1, 1), (4097, 32, 2), (8192, 7, 3)]:
        placement = Placement.regular(num_ranks, ranks_per_node=rpn,
                                      nodes_per_island=npi)
        nodes = tuple(r // rpn for r in range(num_ranks))
        assert placement.nodes == nodes
        assert placement.islands == tuple(n // npi for n in nodes)
        # Plain ints, not numpy scalars: downstream code hashes and
        # serialises these labels.
        assert type(placement.nodes[0]) is int
        assert type(placement.islands[-1]) is int

    placement = Placement.cyclic(5000, num_nodes=77, nodes_per_island=9)
    nodes = tuple(r % 77 for r in range(5000))
    assert placement.nodes == nodes
    assert placement.islands == tuple(n // 9 for n in nodes)


def test_large_placement_validation_matches_scalar_message():
    """The numpy validator must report the same first offending rank with
    the same message as the scalar dict walk."""
    nodes = [r // 8 for r in range(8192)]
    islands = [n // 16 for n in nodes]
    islands[5003] = 999  # contradicts rank 5000's island for node 625
    with pytest.raises(ValueError, match=r"rank 5003 puts node 625"):
        Placement(nodes=tuple(nodes), islands=tuple(islands))

    # Same corruption below the threshold exercises the scalar walk; both
    # must agree on the offending rank.
    with pytest.raises(ValueError, match=r"rank 50 puts node 6"):
        small_nodes = tuple(r // 8 for r in range(64))
        small_islands = list(n // 16 for n in small_nodes)
        small_islands[50] = 999
        Placement(nodes=small_nodes, islands=tuple(small_islands))


def test_large_placement_non_integer_labels_fall_back_to_scalar_walk():
    """String node labels cannot take the numpy path; the scalar walk must
    still validate (and reject) them."""
    nodes = tuple(f"node{r // 2}" for r in range(4096))
    islands = list("iA" for _ in range(4096))
    Placement(nodes=nodes, islands=tuple(islands))  # consistent: fine
    islands[99] = "iB"
    with pytest.raises(ValueError, match="rank 99"):
        Placement(nodes=nodes, islands=tuple(islands))


def test_placement_node_island_counts_are_memoised():
    placement = Placement.regular(4096, ranks_per_node=8, nodes_per_island=4)
    assert placement.num_nodes() == 512
    assert placement.num_islands() == 128
    # Memoised on the frozen dataclass via __dict__, not recomputed.
    assert placement.__dict__["_num_nodes"] == 512
    assert placement.__dict__["_num_islands"] == 128
    assert placement.num_nodes() == 512
