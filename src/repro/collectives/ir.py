"""Collective schedule IR: one typed description for all execution tiers.

A hierarchical collective is a sequence of *stages*, each running one flat
primitive (binomial bcast/reduce/gather, dissemination scan) over a subset of
the group's ranks.  Historically that composition existed three times — as
generator code in :mod:`repro.collectives.hierarchical`, would-be lockstep
phase classes in :mod:`repro.core.spmd`, and ad-hoc selection logic in the
RBC/MPI dispatch layers — each restating the same leader-election structure
in its own dialect.

This module is the single source of truth.  A :class:`Schedule` is a pure,
machine-checkable value: a tuple of :class:`Stage` records plus the op-level
routing metadata (what a stage root sends, where non-roots store what they
receive, how each member's final value is assembled).  Two independent
executors consume it unchanged:

* the **scalar interpreter** :func:`repro.collectives.hierarchical.run_schedule`
  drives the flat generator schedules stage by stage on
  :class:`~repro.collectives.hierarchical.SubgroupEndpoint` views of the
  request's port — the event-by-event reference tier;
* the **lockstep driver** ``repro.core.spmd._SchedulePhase`` feeds the flat
  phase classes with synthetic joins and reads their finish times — the
  analytic paper-scale tier, bit-identical to the interpreter by
  construction (both route the same carries through the same primitives at
  the same member times).

:func:`repro.collectives.dispatch.start` selects the schedule and hands the
same object to whichever executor runs the call.  Stages carry *group*
ranks; neither executor needs the hierarchy once the schedule is built.
Schedules are cached per ``(op, root)`` on the
:class:`~repro.collectives.hierarchical.Hierarchy` they were built from.

Value routing model
-------------------
Each member owns two registers: ``carry`` (the operand flowing through the
collective — the bcast payload, the partial reduction, the gathered list,
the inclusive prefix) and ``prefix`` (scan only: the exclusive prefix of
everything before this member's node, delivered by the seam stages).  A
stage reads its root's payload from ``src`` and writes non-root results to
``dst``; stage roots never overwrite their own registers on a ``"bcast"``
stage (the seam root's carry is its final scan result and must survive).
:meth:`Schedule.finalize` assembles each member's return value from the two
registers — host-side only, consistent with the flat schedules' uncharged
final combine.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = [
    "Stage",
    "Schedule",
    "token_op",
    "schedule_for",
    "validate_schedule",
]


def token_op(left: Any, right: Any) -> None:
    """Reduction operator of a barrier's zero-payload token wave."""
    return None


class Stage:
    """One flat primitive over a subset of the group.

    ``kind`` names the primitive (``"bcast"``, ``"reduce"``, ``"gather"``,
    ``"scan"``); ``members`` are the participating group ranks in
    subgroup-rank order; ``root`` is a *member index* (not a group rank).
    ``src``/``dst`` select the value registers (see module docstring) and
    only vary for scan's seam/prefix-delivery bcast stages.
    """

    __slots__ = ("kind", "members", "root", "src", "dst")

    def __init__(self, kind: str, members, root: int = 0,
                 src: str = "carry", dst: str = "carry"):
        self.kind = kind
        self.members = tuple(members)
        self.root = root
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Stage({self.kind!r}, members={self.members!r}, "
                f"root={self.root}, src={self.src!r}, dst={self.dst!r})")


class Schedule:
    """A collective as a validated sequence of stages.

    ``op_name`` is the group-level operation; ``token`` selects the
    zero-payload :func:`token_op` for reduce stages (barrier); ``shape`` is
    the gather result's nesting structure (group ranks at the leaves),
    ``None`` for every other op.
    """

    __slots__ = ("op_name", "size", "stages", "token", "shape", "_by_rank",
                 "_token")

    def __init__(self, op_name: str, size: int, stages, token: bool = False,
                 shape=None):
        self.op_name = op_name
        self.size = size
        self.stages = tuple(stages)
        self.token = token
        self.shape = shape
        self._by_rank: Optional[dict] = None
        self._token: Optional[str] = None

    def stages_of(self, rank: int):
        """``[(stage, member index), ...]`` of ``rank``'s stages, in order.

        Both executors walk a member through this list: a schedule over p
        ranks has O(p) stages of which a rank takes part in a handful, and
        every rank and every lockstep phase of the group reads the same
        (cached) schedule — so the index is built once, for all ranks, by
        the first one that asks.
        """
        by_rank = self._by_rank
        if by_rank is None:
            by_rank = self._by_rank = {}
            for stage in self.stages:
                for index, member in enumerate(stage.members):
                    by_rank.setdefault(member, []).append((stage, index))
        return by_rank.get(rank, ())

    def stage_op(self, op: Optional[Callable]) -> Optional[Callable]:
        """The operator every stage applies for group operator ``op`` (the
        barrier's token wave reduces with :func:`token_op`)."""
        return token_op if self.token else op

    def ir_token(self) -> str:
        """Compact identifier of this schedule's stage composition.

        E.g. a hierarchical allreduce over 3 stages reads
        ``"allreduce/p64:reduce+reduce+bcast"``.  It is the schedule's
        label in both tiers (traced spans, the interpreter's ``ir`` event),
        so a run shows *which* IR program priced a phase, not just the op.
        """
        token = self._token
        if token is None:
            stages = "+".join(stage.kind for stage in self.stages)
            token = self._token = f"{self.op_name}/p{self.size}:{stages}"
        return token

    def finalize(self, rank: int, carry: Any, prefix: Any,
                 op: Optional[Callable]) -> Any:
        """Assemble ``rank``'s return value from its registers (host-side)."""
        name = self.op_name
        if name == "scan":
            # The exclusive node prefix aggregates strictly lower ranks, so
            # it is the LEFT operand — same orientation as the flat scan's
            # ``acc = op(contribution, acc)``.  Uncharged, like the flat
            # scan's final-round combine.
            return carry if prefix is None else op(prefix, carry)
        if name == "barrier":
            return None
        if name == "gather":
            return None if carry is None else _flatten_gather(self.shape, carry)
        return carry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Schedule({self.op_name!r}, size={self.size}, "
                f"{len(self.stages)} stage(s))")


def _flatten_gather(shape, nested) -> list:
    """Flatten a gather root's nested carry into group-rank order.

    ``shape`` mirrors the nesting produced by the gather stages with group
    ranks at the leaves, so payloads that are themselves lists are never
    confused with structural nesting.
    """
    pairs: list = []
    _walk_gather(shape, nested, pairs)
    pairs.sort(key=_pair_rank)
    return [value for _, value in pairs]


def _pair_rank(pair):
    return pair[0]


def _walk_gather(shape, nested, pairs: list) -> None:
    if isinstance(shape, int):
        pairs.append((shape, nested))
        return
    for sub_shape, sub_value in zip(shape, nested):
        _walk_gather(sub_shape, sub_value, pairs)


# ---------------------------------------------------------------------------
# Builders: Hierarchy -> Schedule (the IR-to-IR transform that used to be
# generator composition).
# ---------------------------------------------------------------------------

def schedule_for(hierarchy, op_name: str, root: int = 0) -> Schedule:
    """The cached :class:`Schedule` of ``op_name`` rooted at ``root``.

    ``"scan"`` requires a contiguous hierarchy (node blocks in group-rank
    order) — callers gate on :attr:`Hierarchy.contiguous` before selecting
    the hierarchical algorithm.
    """
    cache = hierarchy._schedules
    key = (op_name, root)
    schedule = cache.get(key)
    if schedule is None:
        builder = _BUILDERS[op_name]
        schedule = cache[key] = builder(hierarchy, root)
    return schedule


def _bcast_stages(h, root: int) -> list:
    """Root -> island leaders -> per-island node leaders -> node members."""
    node_leaders, island_leaders = h.leaders_for(root)
    stages = []
    if h.num_islands > 1:
        stages.append(Stage("bcast", island_leaders,
                            h.island_of_node[h.node_of[root]]))
    for island, nodes in enumerate(h.islands):
        if len(nodes) > 1:
            members = tuple(node_leaders[n] for n in nodes)
            stages.append(Stage("bcast", members,
                                members.index(island_leaders[island])))
    for node, members in enumerate(h.node_members):
        if len(members) > 1:
            stages.append(Stage("bcast", members,
                                members.index(node_leaders[node])))
    return stages


def _reduce_stages(h, root: int) -> list:
    """The broadcast tree bottom-up (intra-node first)."""
    node_leaders, island_leaders = h.leaders_for(root)
    stages = []
    for node, members in enumerate(h.node_members):
        if len(members) > 1:
            stages.append(Stage("reduce", members,
                                members.index(node_leaders[node])))
    for island, nodes in enumerate(h.islands):
        if len(nodes) > 1:
            members = tuple(node_leaders[n] for n in nodes)
            stages.append(Stage("reduce", members,
                                members.index(island_leaders[island])))
    if h.num_islands > 1:
        stages.append(Stage("reduce", island_leaders,
                            h.island_of_node[h.node_of[root]]))
    return stages


def _build_bcast(h, root: int) -> Schedule:
    return Schedule("bcast", len(h.node_of), _bcast_stages(h, root))


def _build_reduce(h, root: int) -> Schedule:
    return Schedule("reduce", len(h.node_of), _reduce_stages(h, root))


def _build_allreduce(h, root: int) -> Schedule:
    stages = _reduce_stages(h, 0) + _bcast_stages(h, 0)
    return Schedule("allreduce", len(h.node_of), stages)


def _build_barrier(h, root: int) -> Schedule:
    stages = _reduce_stages(h, 0) + _bcast_stages(h, 0)
    return Schedule("barrier", len(h.node_of), stages, token=True)


def _build_gather(h, root: int) -> Schedule:
    """Node members -> node leader -> island leader -> root, carrying lists.

    Each stage's root collects the member carries as a plain list in
    member order (exactly what the flat gather delivers on a subgroup), so
    the final root holds a statically known nesting that ``shape`` mirrors;
    :meth:`Schedule.finalize` flattens it back into group-rank order.
    """
    node_leaders, island_leaders = h.leaders_for(root)
    stages = []
    # shape register per rank: starts as the leaf group rank, becomes a
    # list of member shapes whenever the rank roots a gather stage.
    shape: dict = {}
    for node, members in enumerate(h.node_members):
        if len(members) > 1:
            leader = node_leaders[node]
            stages.append(Stage("gather", members, members.index(leader)))
            shape[leader] = [shape.get(g, g) for g in members]
    for island, nodes in enumerate(h.islands):
        if len(nodes) > 1:
            members = tuple(node_leaders[n] for n in nodes)
            leader = island_leaders[island]
            stages.append(Stage("gather", members, members.index(leader)))
            shape[leader] = [shape.get(g, g) for g in members]
    if h.num_islands > 1:
        final_root = h.island_of_node[h.node_of[root]]
        stages.append(Stage("gather", island_leaders, final_root))
        shape[root] = [shape.get(g, g) for g in island_leaders]
    return Schedule("gather", len(h.node_of), stages,
                    shape=shape.get(root, root))


def _build_scan(h, root: int) -> Schedule:
    """Segmented node-prefix scan (contiguous hierarchies only).

    1. inclusive scan inside every multi-member node;
    2. inclusive scan over the per-node *last* members (their node totals) —
       their results are final;
    3. per node ``k >= 1``: a two-member seam bcast delivers node ``k``'s
       exclusive prefix (``last(k-1)``'s result) to ``first(k)``, then an
       intra-node bcast spreads it to the remaining non-last members;
    4. finalize combines ``op(prefix, carry)`` host-side.

    One inter-node message per node plus one ``O(log nodes)`` scan replaces
    the flat scan's ``O(log p)`` all-spanning rounds.
    """
    if not h.contiguous:
        raise ValueError(
            "hierarchical scan requires a contiguous hierarchy (node blocks "
            "in group-rank order); callers must gate on Hierarchy.contiguous")
    stages = []
    node_members = h.node_members
    lasts = tuple(members[-1] for members in node_members)
    for members in node_members:
        if len(members) > 1:
            stages.append(Stage("scan", members))
    stages.append(Stage("scan", lasts))
    for node in range(1, len(node_members)):
        members = node_members[node]
        if len(members) > 1:
            stages.append(Stage("bcast", (lasts[node - 1], members[0]),
                                0, src="carry", dst="prefix"))
            spread = members[:-1]
            if len(spread) > 1:
                stages.append(Stage("bcast", spread, 0,
                                    src="prefix", dst="prefix"))
    return Schedule("scan", len(h.node_of), stages)


_BUILDERS = {
    "bcast": _build_bcast,
    "reduce": _build_reduce,
    "allreduce": _build_allreduce,
    "barrier": _build_barrier,
    "gather": _build_gather,
    "scan": _build_scan,
}


# ---------------------------------------------------------------------------
# Validation: the "machine-checkable" in machine-checkable IR.
# ---------------------------------------------------------------------------

def validate_schedule(schedule: Schedule) -> None:
    """Raise ``ValueError`` when ``schedule`` violates an IR invariant.

    Checked invariants:

    * every stage's members are distinct group ranks in ``[0, size)``, with
      a valid root index, and at least two members;
    * ``"scan"`` stages list members in ascending group-rank order (the
      dissemination pattern sends from lower to higher subgroup ranks and
      its result is the inclusive prefix in member order);
    * ``src``/``dst`` register names are known, and only ``"bcast"`` stages
      touch the ``prefix`` register;
    * a member whose carry was consumed by an ``"up"`` stage (non-root of a
      reduce/gather) never contributes its carry to a later stage — the
      register is empty;
    * every rank participates in at least one stage (a rank outside all
      stages would silently return its input).
    """
    size = schedule.size
    consumed = [False] * size
    participates = [False] * size
    for index, stage in enumerate(schedule.stages):
        members = stage.members
        if len(members) < 2:
            raise ValueError(
                f"stage {index}: fewer than two members ({members!r})")
        if len(set(members)) != len(members):
            raise ValueError(f"stage {index}: duplicate members {members!r}")
        if not all(0 <= g < size for g in members):
            raise ValueError(
                f"stage {index}: members {members!r} outside group of "
                f"size {size}")
        if not 0 <= stage.root < len(members):
            raise ValueError(
                f"stage {index}: root index {stage.root} outside members")
        if stage.kind not in ("bcast", "reduce", "gather", "scan"):
            raise ValueError(f"stage {index}: unknown kind {stage.kind!r}")
        if stage.src not in ("carry", "prefix") or \
                stage.dst not in ("carry", "prefix"):
            raise ValueError(
                f"stage {index}: unknown register {stage.src!r}/{stage.dst!r}")
        if stage.kind != "bcast" and (stage.src != "carry"
                                      or stage.dst != "carry"):
            raise ValueError(
                f"stage {index}: only bcast stages may route the prefix "
                f"register")
        if stage.kind == "scan" and list(members) != sorted(members):
            raise ValueError(
                f"stage {index}: scan members must ascend, got {members!r}")
        for position, g in enumerate(members):
            participates[g] = True
            reads_carry = (stage.kind in ("reduce", "gather", "scan")
                           or (stage.kind == "bcast"
                               and position == stage.root
                               and stage.src == "carry"))
            if reads_carry and consumed[g]:
                raise ValueError(
                    f"stage {index}: member {g} contributes a carry already "
                    f"consumed by an earlier up-stage")
        if stage.kind in ("reduce", "gather"):
            root_rank = members[stage.root]
            for g in members:
                consumed[g] = g != root_rank
        elif stage.kind == "scan" or stage.dst == "carry":
            # Scans and carry-writing bcasts refill every member's carry
            # (allreduce's down-phase revives the reduce-consumed ranks).
            for g in members:
                consumed[g] = False
    missing = [g for g in range(size) if not participates[g]]
    if missing:
        raise ValueError(
            f"ranks {missing!r} participate in no stage of "
            f"{schedule.op_name!r}")
