"""Differential tests for the schedule-IR replay of the lockstep tier.

On machines with a non-trivial placement the collectives run the node-leader
schedules of :mod:`repro.collectives.hierarchical`; under lockstep the op's
phase kind receives the same schedule-IR object from the dispatcher and
:class:`repro.core.spmd`'s ``_SchedulePhase`` replays it analytically.  The
contract is the same as for a flat schedule: bit-identical to the scalar IR
interpreter — same finish times, same results, same tracer statistics.
These tests run one opted-in
program on the default cluster (IR replay) and on the oracle
(``tests/oracle.py``: the scalar interpreter on the reference event core)
across operation x machine preset x root, plus the ``build_hierarchy``
scalar/vectorised boundary at the ``_HIERARCHY_VECTOR_MIN`` switch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import spmd
from repro.mpi import init_mpi
from repro.rbc import collectives as rbc
from repro.rbc import create_rbc_comm
from repro.simulator import Placement
from repro.simulator.costmodel import HierarchicalParams
from repro.simulator.errors import RankFailedError

from oracle import assert_equal_observables, run_both

#: Lockstep phase kinds this module covers differentially through the IR
#: replay (scanned by ``benchmarks/check_lockstep_registry.py``).
COVERS_KINDS = ("bcast", "reduce", "allreduce", "scan", "gather", "barrier")

#: Small instances of every hierarchical machine preset.  16 ranks at 4
#: ranks/node gives 4 nodes; the three-tier presets split them 2 nodes per
#: island/pod/group so both the node and the island seams are exercised.
PRESETS = {
    "supermuc": lambda: HierarchicalParams.supermuc_like(
        ranks_per_node=4, nodes_per_island=2),
    "fat_tree": lambda: HierarchicalParams.fat_tree(
        ranks_per_node=4, nodes_per_pod=2),
    "dragonfly": lambda: HierarchicalParams.dragonfly(
        ranks_per_node=4, nodes_per_group=2),
    "two_tier": lambda: HierarchicalParams.two_tier(ranks_per_node=4),
}

#: (operation, root) cells: rooted ops get both the aligned root 0 and a
#: mid-node rotated root; symmetric ops have no root axis.
CELLS = [("bcast", 0), ("bcast", 5),
         ("reduce", 0), ("reduce", 5),
         ("gather", 0), ("gather", 5),
         ("allreduce", 0), ("scan", 0), ("barrier", 0)]


def _collective_loop(env, *, op, words, reps, root=0):
    """Opted-in rank program: barrier, then ``reps`` back-to-back
    collectives.

    All operations use the default algorithm selection — on these machines
    that is the node-leader schedule — except the barrier, whose default
    stays dissemination on per-rank-port machines, so it asks for
    ``algorithm="hierarchical"`` explicitly; the dispatcher hands that
    schedule to the ``barrier`` kind like any other.
    """
    env.lockstep_collectives = True
    world_mpi = init_mpi(env, vendor="generic")
    world_rbc = yield from create_rbc_comm(world_mpi)
    payload = (np.ones(words) * (env.rank + 1)) if words else np.zeros(0)
    yield from rbc.barrier(world_rbc)
    start = env.now
    digests = []
    for _ in range(reps):
        request = {
            "bcast": lambda: rbc.ibcast(
                world_rbc, payload if env.rank == root else None, root),
            "reduce": lambda: rbc.ireduce(world_rbc, payload, root=root),
            "scan": lambda: rbc.iscan(world_rbc, payload),
            "gather": lambda: rbc.igather(world_rbc, payload, root=root),
            "allreduce": lambda: rbc.iallreduce(world_rbc, payload),
            "barrier": lambda: rbc.ibarrier(world_rbc,
                                            algorithm="hierarchical"),
        }[op]()
        yield from env.wait_until(request.test)
        value = request.result()
        if isinstance(value, list):
            digests.append(tuple(float(np.sum(part)) for part in value))
        elif value is not None:
            digests.append(float(np.sum(value)))
        else:
            digests.append(None)
    return (env.now - start, tuple(digests))


def _run_both(num_ranks, params, *, placement=None, **kwargs):
    return run_both(num_ranks, _collective_loop, params=params,
                    placement=placement, **kwargs)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("op,root", CELLS)
def test_hier_lockstep_bit_identical_to_scalar(preset, op, root):
    """Lockstep IR replay == scalar IR interpreter, every observable.

    As with the flat kinds, back-to-back repetitions may overlap phases in
    a way the eager pricer cannot mirror; the coordinator must then refuse
    with :class:`LockstepError` and the single-phase configuration must
    still price exactly.
    """
    params = PRESETS[preset]()
    try:
        lockstep, scalar = _run_both(16, params, op=op, words=8, reps=2,
                                     root=root)
    except RankFailedError as failure:
        assert isinstance(failure.__cause__, spmd.LockstepError)
        lockstep, scalar = _run_both(16, params, op=op, words=8, reps=1,
                                     root=root)
    assert_equal_observables(lockstep, scalar)
    assert lockstep.events_processed <= scalar.events_processed


@pytest.mark.parametrize("op,root", CELLS)
def test_hier_lockstep_identical_on_reference_core(op, root):
    """The fused hier wake-ups of the batched core land where the reference
    core's per-message events do (a second payload size of the matrix
    above; overlapping repetitions that tie on a receive port refuse, and
    the single repetition must then agree)."""
    make = PRESETS["supermuc"]
    try:
        fast, slow = _run_both(16, make(), op=op, words=4, reps=2, root=root)
    except RankFailedError as failure:
        assert isinstance(failure.__cause__, spmd.LockstepError)
        fast, slow = _run_both(16, make(), op=op, words=4, reps=1, root=root)
    assert_equal_observables(fast, slow)
    assert fast.events_processed < slow.events_processed


def test_hier_scan_noncontiguous_placement_falls_back():
    """Cyclic ranks break prefix order == node order: scan stays flat.

    The fallback must hold identically under lockstep and scalar execution —
    a lockstep-only hierarchy gate would silently diverge.
    """
    params = HierarchicalParams.two_tier(ranks_per_node=4)
    placement = Placement.cyclic(16, num_nodes=4)
    assert_equal_observables(*_run_both(16, params, placement=placement,
                                        op="scan", words=8, reps=2))


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=5),
    ranks_per_node=st.integers(min_value=1, max_value=5),
    op=st.sampled_from([op for op, _ in CELLS]),
    root_seed=st.integers(min_value=0, max_value=1 << 30),
    words=st.sampled_from([0, 3, 8]),
    preset=st.sampled_from(sorted(PRESETS)),
)
def test_hier_lockstep_property(num_nodes, ranks_per_node, op, root_seed,
                                words, preset):
    """Random machine shapes: lockstep and scalar agree or refuse honestly."""
    num_ranks = num_nodes * ranks_per_node
    params = {
        "supermuc": lambda: HierarchicalParams.supermuc_like(
            ranks_per_node=ranks_per_node, nodes_per_island=2),
        "fat_tree": lambda: HierarchicalParams.fat_tree(
            ranks_per_node=ranks_per_node, nodes_per_pod=2),
        "dragonfly": lambda: HierarchicalParams.dragonfly(
            ranks_per_node=ranks_per_node, nodes_per_group=2),
        "two_tier": lambda: HierarchicalParams.two_tier(
            ranks_per_node=ranks_per_node),
    }[preset]()
    root = root_seed % num_ranks if op in ("bcast", "reduce", "gather") else 0
    try:
        lockstep, scalar = _run_both(num_ranks, params, op=op, words=words,
                                     reps=1, root=root)
    except RankFailedError as failure:
        # The leading barrier's port writes can tie the collective's at
        # the same instant; the coordinator must refuse, never misprice.
        assert isinstance(failure.__cause__, spmd.LockstepError)
        return
    assert_equal_observables(lockstep, scalar)


# ---------------------------------------------------------------------------
# build_hierarchy scalar/vectorised boundary: the numpy bulk path takes over
# exactly at group size _HIERARCHY_VECTOR_MIN (4096).  Straddle it.
# ---------------------------------------------------------------------------

def _hierarchies_equal(a, b):
    return (a.node_members == b.node_members and a.node_of == b.node_of
            and a.islands == b.islands
            and a.island_of_node == b.island_of_node
            and a.nontrivial == b.nontrivial)


@pytest.mark.parametrize("size", [4095, 4096, 4097])
def test_build_hierarchy_boundary(size):
    """4095 takes the scalar loop, 4096/4097 the vectorised path — and the
    two constructions agree exactly on all three sizes, so the switchover
    can never change a schedule."""
    from repro.collectives import hierarchical as H
    from repro.collectives.ir import schedule_for, validate_schedule

    placement = Placement.regular(4097, ranks_per_node=16, nodes_per_island=8)
    world_ranks = range(size)

    def forced(threshold):
        saved = H._HIERARCHY_VECTOR_MIN
        try:
            H._HIERARCHY_VECTOR_MIN = threshold
            return H.build_hierarchy(placement, world_ranks)
        finally:
            H._HIERARCHY_VECTOR_MIN = saved

    default = H.build_hierarchy(placement, world_ranks)
    scalar = forced(1 << 60)   # force the scalar loop
    vector = forced(1)         # force the numpy bulk path
    assert _hierarchies_equal(default, scalar)
    assert _hierarchies_equal(default, vector)
    assert default.contiguous
    # The hierarchy feeds straight into the IR builders: every op's schedule
    # must validate on both sides of the boundary.
    for op_name in ("bcast", "reduce", "allreduce", "scan", "gather",
                    "barrier"):
        validate_schedule(schedule_for(default, op_name, root=size - 1
                                       if op_name in ("bcast", "reduce",
                                                      "gather") else 0))
