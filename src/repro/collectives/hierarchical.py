"""Topology-aware collective schedules: node-leader trees.

The schedules in :mod:`repro.collectives.machines` are "generic, not
optimized for a specific network" — a binomial tree treats the link between
two ranks of one node and the link between two islands identically.  On the
hierarchical machines of :mod:`repro.simulator.costmodel` that is only
accidentally efficient: a binomial tree over a block placement happens to
align with the node structure for root 0 and power-of-two node sizes, and
degrades badly for rotated roots, offset sub-communicators (RBC ranges rarely
start at a node boundary) or ragged nodes — every level then crosses node
boundaries, and with shared node NICs (``ports_per_node``) the concurrent
inter-node sends of one node serialise on the same port.

This module provides the topology-aware alternative.  Every operation is
decomposed along the machine hierarchy around per-node *leaders*:

* **bcast** — root → binomial among island leaders → binomial among the node
  leaders of each island → binomial inside each node;
* **reduce** — the same tree bottom-up (intra-node reduction first, so only
  one message per node crosses the node boundary);
* **allreduce** — hierarchical reduce to rank 0 followed by a hierarchical
  broadcast;
* **barrier** — zero-payload hierarchical reduce + broadcast (a tree barrier
  whose inter-node round count is ``O(log nodes)``, not ``O(log p)``).

Each phase *is* one of the existing generator schedules, run on a
:class:`SubgroupEndpoint` — a view of the request's port that remaps subgroup
ranks onto the port's group ranks — so
:class:`~repro.collectives.machines.CollectiveRequest` drives the composed
schedule unchanged, and all forwarding/freezing fast paths of the flat
schedules apply per phase.

The composition itself is not described here: :mod:`repro.collectives.ir`
builds a typed :class:`~repro.collectives.ir.Schedule` (stage list + value
routing) from the :class:`Hierarchy` — for the four operations above and for
node-leader **gather** and the segmented node-prefix **iscan** — and
:func:`run_schedule` below is the scalar *interpreter* of that IR; the same
schedule objects drive the SPMD lockstep/fast-forward tier in
:mod:`repro.core.spmd` bit-identically.

The root of a rooted operation acts as the leader of its own node and island
(no extra hop into the root's node).  Leader election takes the smallest
group rank of each node, which handles ragged nodes (a group whose size is
not a multiple of the node size, or whose range starts mid-node) naturally.

:func:`hierarchy_of` is the selection predicate
:func:`repro.collectives.dispatch.start` uses: it returns a
:class:`Hierarchy` only when the executing machine's cost model prices links
non-uniformly *and* the group actually spans more than one node — flat
machines never reach the hierarchical code path, keeping their schedules
bit-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from .endpoint import TransportEndpoint
from .ir import Schedule
from .machines import SCHEDULES

__all__ = [
    "Hierarchy",
    "SubgroupEndpoint",
    "build_hierarchy",
    "hierarchy_of",
    "run_schedule",
]


class Hierarchy:
    """Node/island structure of one collective group, in group ranks.

    ``node_members[n]`` are the group ranks living on (dense) node ``n`` in
    ascending order; ``node_of[g]`` is the dense node index of group rank
    ``g``; ``islands[i]`` are the dense node indices of island ``i``;
    ``island_of_node[n]`` is the island index of node ``n``.  Dense indices
    follow first appearance in group-rank order, so they are deterministic
    for any placement.
    """

    __slots__ = ("node_members", "node_of", "islands", "island_of_node",
                 "num_nodes", "num_islands", "nontrivial", "_leaders",
                 "_schedules", "_contiguous")

    def __init__(self, node_members, node_of, islands, island_of_node):
        self.node_members = node_members
        self.node_of = node_of
        self.islands = islands
        self.island_of_node = island_of_node
        self.num_nodes = len(node_members)
        self.num_islands = len(islands)
        # A hierarchy is worth exploiting only when the group spans several
        # nodes AND at least one tier has real width: either some node holds
        # more than one rank (intra-node phase exists) or there are several
        # islands (island phase exists).  One rank per node on one island is
        # exactly the flat binomial tree.
        self.nontrivial = self.num_nodes > 1 and (
            self.num_islands > 1
            or any(len(members) > 1 for members in node_members))
        self._leaders: dict = {}
        self._schedules: dict = {}
        self._contiguous: Optional[bool] = None

    @property
    def contiguous(self) -> bool:
        """True when the group's nodes are contiguous rank blocks.

        The segmented node-prefix scan needs every node to own one contiguous
        slice of group ranks (``node_of`` non-decreasing), so that per-node
        inclusive scans + a scan over node totals compose into the group
        prefix.  Block placements are contiguous; cyclic placements are not.
        """
        value = self._contiguous
        if value is None:
            node_of = self.node_of
            value = all(node_of[g - 1] <= node_of[g]
                        for g in range(1, len(node_of)))
            self._contiguous = value
        return value

    def leaders_for(self, root: int):
        """``(node_leaders, island_leaders)`` for a collective rooted at ``root``.

        ``node_leaders[n]`` is the group rank leading node ``n`` (the root for
        its own node, the smallest member elsewhere); ``island_leaders[i]``
        leads island ``i`` (the root for its own island, the leader of the
        island's first node elsewhere).  Cached per root.
        """
        cached = self._leaders.get(root)
        if cached is not None:
            return cached
        root_node = self.node_of[root]
        node_leaders = [members[0] for members in self.node_members]
        node_leaders[root_node] = root
        island_leaders = [node_leaders[nodes[0]] for nodes in self.islands]
        island_leaders[self.island_of_node[root_node]] = root
        result = (tuple(node_leaders), tuple(island_leaders))
        self._leaders[root] = result
        return result


#: Group size above which :func:`build_hierarchy` switches to the numpy
#: bulk path.  Small groups stay on the scalar loop (lower constant factors,
#: and the scalar loop is the semantic reference the bulk path must match).
_HIERARCHY_VECTOR_MIN = 4096


def _dense_first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dense, first_index)``: dense indices in first-appearance order.

    ``dense[i]`` is the dense index of ``keys[i]`` where indices are handed
    out in order of each key's first appearance (the scalar dict-walk
    numbering); ``first_index[d]`` is the position in ``keys`` where dense
    index ``d`` first appears.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    return remap[inverse], first[order]


def _group_by(dense: np.ndarray, num_groups: int) -> tuple:
    """Partition ``arange(len(dense))`` by dense group, ascending within."""
    by_group = np.argsort(dense, kind="stable")
    counts = np.bincount(dense, minlength=num_groups)
    splits = np.cumsum(counts)[:-1]
    return tuple(tuple(chunk.tolist())
                 for chunk in np.split(by_group, splits))


def _build_hierarchy_vectorised(placement, world_ranks) -> Optional[Hierarchy]:
    """Numpy bulk construction; None when the placement labels aren't ints.

    Produces the exact structure of the scalar loop in
    :func:`build_hierarchy` (same dense numbering, same plain-int tuples) —
    dense indices follow first appearance in group-rank order on both paths.
    """
    world = np.asarray(world_ranks)
    nodes = np.asarray(placement.nodes)
    islands = np.asarray(placement.islands)
    if (world.dtype.kind not in "iu" or nodes.dtype.kind not in "iu"
            or islands.dtype.kind not in "iu"):
        return None
    member_nodes = nodes[world]
    node_of, node_first = _dense_first_appearance(member_nodes)
    num_nodes = len(node_first)
    node_members = _group_by(node_of, num_nodes)
    # Island key of each dense node = island of the node's first member,
    # then dense island numbering by first appearance in dense-node order.
    node_island_key = islands[world[node_first]]
    island_of_node, _ = _dense_first_appearance(node_island_key)
    island_nodes = _group_by(island_of_node, int(island_of_node.max()) + 1)
    return Hierarchy(
        node_members,
        tuple(node_of.tolist()),
        island_nodes,
        tuple(island_of_node.tolist()),
    )


def build_hierarchy(placement, world_ranks) -> Hierarchy:
    """Group the member ``world_ranks`` (indexed by group rank) by node/island."""
    if len(world_ranks) >= _HIERARCHY_VECTOR_MIN:
        hierarchy = _build_hierarchy_vectorised(placement, world_ranks)
        if hierarchy is not None:
            return hierarchy
    nodes = placement.nodes
    islands = placement.islands
    node_index: dict = {}
    node_members: list = []
    node_of: list = []
    node_island_key: list = []
    for world in world_ranks:
        key = nodes[world]
        idx = node_index.get(key)
        if idx is None:
            idx = node_index[key] = len(node_members)
            node_members.append([])
            node_island_key.append(islands[world])
        node_members[idx].append(len(node_of))
        node_of.append(idx)
    island_index: dict = {}
    island_nodes: list = []
    island_of_node: list = []
    for node, key in enumerate(node_island_key):
        idx = island_index.get(key)
        if idx is None:
            idx = island_index[key] = len(island_nodes)
            island_nodes.append([])
        island_nodes[idx].append(node)
        island_of_node.append(idx)
    return Hierarchy(
        tuple(tuple(members) for members in node_members),
        tuple(node_of),
        tuple(tuple(nodes_) for nodes_ in island_nodes),
        tuple(island_of_node),
    )


def hierarchy_of(ep: TransportEndpoint) -> Optional[Hierarchy]:
    """The group's hierarchy when it is worth exploiting, else None.

    Flat machines (any cost model with a uniform link price) return None
    immediately — their collectives must stay on the historical code path
    bit-identically.  On hierarchical machines the structure is cached on the
    transport per ``(affine map, size)`` or member tuple, and the answer on
    the endpoint: every member of a collective shares its endpoint, so a
    non-affine group's member tuple is built once per collective instance,
    not once per member.
    """
    hierarchy = ep._hierarchy
    if hierarchy is not False:
        return hierarchy
    # getattr: duck-typed cost models predating uniform_link keep working
    # (the transport preserves the same compatibility); a model without the
    # method stays on the historical flat code path.
    uniform_link = getattr(ep.cost_model, "uniform_link", None)
    if uniform_link is None or uniform_link() is not None:
        ep._hierarchy = None
        return None
    transport = ep.transport
    cache = transport._hierarchy_cache
    affine = ep._affine
    # The affine key is tagged so it can never collide with a non-affine
    # group's member tuple (a 3-member group's world ranks (a, b, c) would
    # otherwise be indistinguishable from an affine (first, stride, size)).
    if affine is not None:
        key = ("affine", affine[0], affine[1], ep.size)
        world_ranks = None
    else:
        world_ranks = tuple(ep.to_world(g) for g in range(ep.size))
        key = world_ranks
    hierarchy = cache.get(key)
    if hierarchy is None:
        if world_ranks is None:
            first, stride = affine
            world_ranks = range(first, first + stride * ep.size, stride)
        hierarchy = cache[key] = build_hierarchy(ep.placement, world_ranks)
    hierarchy = ep._hierarchy = hierarchy if hierarchy.nontrivial else None
    return hierarchy


class SubgroupEndpoint:
    """View of a collective request's port restricted to ``members``.

    ``members`` are parent-group ranks in subgroup-rank order; the view
    translates subgroup ranks on the way in and is the parent port otherwise
    (same state, same slots, same ``msgs``), so any flat schedule runs on
    the subgroup unchanged (same transport, same context/tag — phases of one
    hierarchical collective never overlap on a (src, dst) pair, so FIFO
    matching per envelope is preserved).
    """

    __slots__ = ("_port", "_members", "rank", "size")

    def __init__(self, port, members, rank_index: int):
        self._port = port
        self._members = members
        self.rank = rank_index
        self.size = len(members)

    def isend(self, payload, dest: int, local_delay: float = 0.0,
              words: Optional[int] = None) -> None:
        self._port.isend(payload, self._members[dest], local_delay, words)

    def irecv(self, source: int) -> int:
        return self._port.irecv(self._members[source])

    def op_delay(self, words: int) -> float:
        return self._port.op_delay(words)

    @property
    def msgs(self):
        return self._port.msgs


# ---------------------------------------------------------------------------
# The scalar IR interpreter.
# ---------------------------------------------------------------------------

def run_schedule(port, schedule: Schedule, value: Any,
                 op: Optional[Callable[[Any, Any], Any]]):
    """Interpret one :class:`~repro.collectives.ir.Schedule` on ``port``.

    Walks the stages this rank participates in
    (:meth:`~repro.collectives.ir.Schedule.stages_of` — never the whole stage
    list), running each as the corresponding flat generator schedule on a
    :class:`SubgroupEndpoint`, and routes values through the two per-rank
    registers (``carry``/``prefix``) exactly as the IR prescribes.  The SPMD
    lockstep driver replays the same stages with the same routing, which is
    what makes the two tiers bit-identical by construction.
    """
    rank = port.rank
    env = port.env
    obs = env.transport._obs
    if obs is not None:
        obs.events.append((env.engine._now, env.rank, "ir",
                           schedule.ir_token()))
    carry = value
    prefix: Any = None
    stage_op = schedule.stage_op(op)
    for stage, index in schedule.stages_of(rank):
        result = yield from SCHEDULES[stage.kind](
            SubgroupEndpoint(port, stage.members, index),
            prefix if stage.src == "prefix" else carry, stage_op, stage.root)
        if stage.dst == "carry":
            carry = result
        elif index != stage.root:
            # A seam root's own prefix register is never clobbered by the
            # payload it forwards.
            prefix = result
    return schedule.finalize(rank, carry, prefix, op)
