"""Decision matrix of ``repro.collectives.dispatch.start``.

Which schedule (flat / node-leader / a large-input algorithm) and which tier
(scalar ``CollectiveRequest`` or a lockstep join, and under which kind) a
collective gets is decided in one place.  ``EXPECTED`` pins that decision for
every op x API layer x machine shape x lockstep opt-in x ``algorithm`` cell.
It was first generated *before* the decision moved into ``dispatch.py`` — by
running this file as a script on the tree that still had one ladder per
operation in ``rbc/collectives.py`` and ``mpi/comm.py``:

    PYTHONPATH=src:tests python tests/collectives/test_dispatch.py

and regenerated once since, when the tier started to follow the selected
schedule; only the labels of node-leader schedules (and of an explicit
``"hierarchical"`` that runs the flat one) and the tier of explicitly named
node-leader algorithms moved then.

Each cell runs one collective call per rank on a fresh 8-rank traced cluster
and reads the decision off the returned request, spelled like the traced
span of the collective: ``<label>@lockstep`` (the coordinator's ``join`` is
replaced by a recorder, so nothing is priced and nothing can be refused),
``<label>@scalar``, or ``ValueError`` (its text is pinned by ``UNKNOWN``).
The label is the op's for a flat schedule and
:meth:`~repro.collectives.ir.Schedule.ir_token` for a node-leader one, in
both tiers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import dispatch
from repro.collectives.machines import CollectiveRequest
from repro.core import spmd
from repro.mpi import init_mpi
from repro.rbc import collectives as rbc
from repro.rbc import tags
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.simulator.costmodel import MACHINE_PRESETS, Placement
from repro.simulator.errors import RankFailedError

from oracle import assert_equal_observables, run_both

P = 8

#: name -> (machine preset, placement of the 8 ranks).
MACHINES = {
    "flat": ("flat", None),
    # Two nodes of four ranks in rank order: a contiguous hierarchy.
    "two_tier_block": ("two_tier", Placement.regular(P, 4, 1 << 30)),
    # Ranks dealt round-robin onto two nodes: a hierarchy, not contiguous.
    "two_tier_cyclic": ("two_tier", Placement.cyclic(P, num_nodes=2)),
    # One NIC per node: never lockstep-eligible, tree barrier by default.
    "shared_nic": ("shared_nic", Placement.regular(P, 4, 2)),
}

#: op -> explicit ``algorithm`` names of the RBC layer (None is the default,
#: "bogus" pins the error text).
ALGORITHMS = {
    "bcast": ("auto", "binomial", "hierarchical", "scatter_allgather",
              "pipeline"),
    "reduce": ("binomial", "hierarchical"),
    "allreduce": ("auto", "reduce_bcast", "hierarchical", "ring"),
    "scan": ("dissemination", "hierarchical"),
    "gather": ("binomial", "hierarchical"),
    "barrier": ("dissemination", "hierarchical"),
}

IMPLS = ("rbc", "mpi/intel", "mpi/generic")


def cells():
    """``(op, impl, algorithm, machine)``; each holds a lockstep off/on pair."""
    for op, names in ALGORITHMS.items():
        for impl in IMPLS:
            algorithms = (None, *names, "bogus") if impl == "rbc" else (None,)
            for algorithm in algorithms:
                for machine in MACHINES:
                    yield op, impl, algorithm, machine


def _call(op, impl, world_mpi, world_rbc, value, algorithm):
    if impl == "rbc":
        start = getattr(rbc, "i" + op)
        args = (world_rbc,) if op == "barrier" else (world_rbc, value)
        return start(*args, algorithm=algorithm).inner
    start = getattr(world_mpi, "i" + op)
    return start() if op == "barrier" else start(value)


def _program(env, *, op, impl, algorithm, lockstep, joins):
    env.lockstep_collectives = lockstep
    vendor = impl.partition("/")[2] or "generic"
    world_mpi = init_mpi(env, vendor=vendor)
    world_rbc = yield from create_rbc_comm(world_mpi)
    try:
        request = _call(op, impl, world_mpi, world_rbc, np.arange(4.0),
                        algorithm)
    except ValueError:
        return "ValueError"
    if isinstance(request, CollectiveRequest):
        return request._obs_label + "@scalar"
    return joins[env.rank] + "@lockstep"


def decide(monkeypatch, op, impl, algorithm, machine) -> tuple:
    """One cell's decisions, lockstep off then on (all ranks must agree)."""
    joins = {}

    def record_join(self, ep, kind, env, value, op, root, schedule=None):
        joins[env.rank] = kind if schedule is None else schedule.ir_token()
        return spmd.LockstepRequest(env)

    monkeypatch.setattr(spmd.SpmdCoordinator, "join", record_join)
    preset, placement = MACHINES[machine]
    pair = []
    for lockstep in (False, True):
        cluster = Cluster(P, MACHINE_PRESETS[preset](), placement=placement,
                          trace=True)
        result = cluster.run(_program, op=op, impl=impl, algorithm=algorithm,
                             lockstep=lockstep, joins=joins)
        decisions = set(result.results)
        assert len(decisions) == 1, decisions
        pair.append(decisions.pop())
    return tuple(pair)


# One cell per line: (op, impl, algorithm, machine): (lockstep off, lockstep on).
EXPECTED = {
    ('bcast', 'rbc', None, 'flat'): ('bcast@scalar', 'bcast@lockstep'),
    ('bcast', 'rbc', None, 'two_tier_block'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'rbc', None, 'two_tier_cyclic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'rbc', None, 'shared_nic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@scalar'),
    ('bcast', 'rbc', 'auto', 'flat'): ('_auto_bcast@scalar', '_auto_bcast@scalar'),
    ('bcast', 'rbc', 'auto', 'two_tier_block'): ('_auto_bcast@scalar', '_auto_bcast@scalar'),
    ('bcast', 'rbc', 'auto', 'two_tier_cyclic'): ('_auto_bcast@scalar', '_auto_bcast@scalar'),
    ('bcast', 'rbc', 'auto', 'shared_nic'): ('_auto_bcast@scalar', '_auto_bcast@scalar'),
    ('bcast', 'rbc', 'binomial', 'flat'): ('bcast@scalar', 'bcast@scalar'),
    ('bcast', 'rbc', 'binomial', 'two_tier_block'): ('bcast@scalar', 'bcast@scalar'),
    ('bcast', 'rbc', 'binomial', 'two_tier_cyclic'): ('bcast@scalar', 'bcast@scalar'),
    ('bcast', 'rbc', 'binomial', 'shared_nic'): ('bcast@scalar', 'bcast@scalar'),
    ('bcast', 'rbc', 'hierarchical', 'flat'): ('bcast@scalar', 'bcast@scalar'),
    ('bcast', 'rbc', 'hierarchical', 'two_tier_block'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'rbc', 'hierarchical', 'shared_nic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@scalar'),
    ('bcast', 'rbc', 'scatter_allgather', 'flat'): ('bcast_scatter_allgather@scalar', 'bcast_scatter_allgather@scalar'),
    ('bcast', 'rbc', 'scatter_allgather', 'two_tier_block'): ('bcast_scatter_allgather@scalar', 'bcast_scatter_allgather@scalar'),
    ('bcast', 'rbc', 'scatter_allgather', 'two_tier_cyclic'): ('bcast_scatter_allgather@scalar', 'bcast_scatter_allgather@scalar'),
    ('bcast', 'rbc', 'scatter_allgather', 'shared_nic'): ('bcast_scatter_allgather@scalar', 'bcast_scatter_allgather@scalar'),
    ('bcast', 'rbc', 'pipeline', 'flat'): ('pipeline_bcast@scalar', 'pipeline_bcast@scalar'),
    ('bcast', 'rbc', 'pipeline', 'two_tier_block'): ('pipeline_bcast@scalar', 'pipeline_bcast@scalar'),
    ('bcast', 'rbc', 'pipeline', 'two_tier_cyclic'): ('pipeline_bcast@scalar', 'pipeline_bcast@scalar'),
    ('bcast', 'rbc', 'pipeline', 'shared_nic'): ('pipeline_bcast@scalar', 'pipeline_bcast@scalar'),
    ('bcast', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('bcast', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('bcast', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('bcast', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('bcast', 'mpi/intel', None, 'flat'): ('bcast@scalar', 'bcast@lockstep'),
    ('bcast', 'mpi/intel', None, 'two_tier_block'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'mpi/intel', None, 'two_tier_cyclic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@lockstep'),
    ('bcast', 'mpi/intel', None, 'shared_nic'): ('bcast/p8:bcast+bcast+bcast@scalar', 'bcast/p8:bcast+bcast+bcast@scalar'),
    ('bcast', 'mpi/generic', None, 'flat'): ('bcast@scalar', 'bcast@lockstep'),
    ('bcast', 'mpi/generic', None, 'two_tier_block'): ('bcast@scalar', 'bcast@lockstep'),
    ('bcast', 'mpi/generic', None, 'two_tier_cyclic'): ('bcast@scalar', 'bcast@lockstep'),
    ('bcast', 'mpi/generic', None, 'shared_nic'): ('bcast@scalar', 'bcast@scalar'),
    ('reduce', 'rbc', None, 'flat'): ('reduce@scalar', 'reduce@lockstep'),
    ('reduce', 'rbc', None, 'two_tier_block'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'rbc', None, 'two_tier_cyclic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'rbc', None, 'shared_nic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@scalar'),
    ('reduce', 'rbc', 'binomial', 'flat'): ('reduce@scalar', 'reduce@scalar'),
    ('reduce', 'rbc', 'binomial', 'two_tier_block'): ('reduce@scalar', 'reduce@scalar'),
    ('reduce', 'rbc', 'binomial', 'two_tier_cyclic'): ('reduce@scalar', 'reduce@scalar'),
    ('reduce', 'rbc', 'binomial', 'shared_nic'): ('reduce@scalar', 'reduce@scalar'),
    ('reduce', 'rbc', 'hierarchical', 'flat'): ('reduce@scalar', 'reduce@scalar'),
    ('reduce', 'rbc', 'hierarchical', 'two_tier_block'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'rbc', 'hierarchical', 'shared_nic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@scalar'),
    ('reduce', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('reduce', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('reduce', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('reduce', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('reduce', 'mpi/intel', None, 'flat'): ('reduce@scalar', 'reduce@lockstep'),
    ('reduce', 'mpi/intel', None, 'two_tier_block'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'mpi/intel', None, 'two_tier_cyclic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@lockstep'),
    ('reduce', 'mpi/intel', None, 'shared_nic'): ('reduce/p8:reduce+reduce+reduce@scalar', 'reduce/p8:reduce+reduce+reduce@scalar'),
    ('reduce', 'mpi/generic', None, 'flat'): ('reduce@scalar', 'reduce@lockstep'),
    ('reduce', 'mpi/generic', None, 'two_tier_block'): ('reduce@scalar', 'reduce@lockstep'),
    ('reduce', 'mpi/generic', None, 'two_tier_cyclic'): ('reduce@scalar', 'reduce@lockstep'),
    ('reduce', 'mpi/generic', None, 'shared_nic'): ('reduce@scalar', 'reduce@scalar'),
    ('allreduce', 'rbc', None, 'flat'): ('allreduce@scalar', 'allreduce@lockstep'),
    ('allreduce', 'rbc', None, 'two_tier_block'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', None, 'two_tier_cyclic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', None, 'shared_nic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('allreduce', 'rbc', 'auto', 'flat'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'auto', 'two_tier_block'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', 'auto', 'two_tier_cyclic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', 'auto', 'shared_nic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('allreduce', 'rbc', 'reduce_bcast', 'flat'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'reduce_bcast', 'two_tier_block'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'reduce_bcast', 'two_tier_cyclic'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'reduce_bcast', 'shared_nic'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'hierarchical', 'flat'): ('allreduce@scalar', 'allreduce@scalar'),
    ('allreduce', 'rbc', 'hierarchical', 'two_tier_block'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'rbc', 'hierarchical', 'shared_nic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('allreduce', 'rbc', 'ring', 'flat'): ('allreduce_ring@scalar', 'allreduce_ring@scalar'),
    ('allreduce', 'rbc', 'ring', 'two_tier_block'): ('allreduce_ring@scalar', 'allreduce_ring@scalar'),
    ('allreduce', 'rbc', 'ring', 'two_tier_cyclic'): ('allreduce_ring@scalar', 'allreduce_ring@scalar'),
    ('allreduce', 'rbc', 'ring', 'shared_nic'): ('allreduce_ring@scalar', 'allreduce_ring@scalar'),
    ('allreduce', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('allreduce', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('allreduce', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('allreduce', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('allreduce', 'mpi/intel', None, 'flat'): ('allreduce@scalar', 'allreduce@lockstep'),
    ('allreduce', 'mpi/intel', None, 'two_tier_block'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'mpi/intel', None, 'two_tier_cyclic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('allreduce', 'mpi/intel', None, 'shared_nic'): ('allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'allreduce/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('allreduce', 'mpi/generic', None, 'flat'): ('allreduce@scalar', 'allreduce@lockstep'),
    ('allreduce', 'mpi/generic', None, 'two_tier_block'): ('allreduce@scalar', 'allreduce@lockstep'),
    ('allreduce', 'mpi/generic', None, 'two_tier_cyclic'): ('allreduce@scalar', 'allreduce@lockstep'),
    ('allreduce', 'mpi/generic', None, 'shared_nic'): ('allreduce@scalar', 'allreduce@scalar'),
    ('scan', 'rbc', None, 'flat'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'rbc', None, 'two_tier_block'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@lockstep'),
    ('scan', 'rbc', None, 'two_tier_cyclic'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'rbc', None, 'shared_nic'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@scalar'),
    ('scan', 'rbc', 'dissemination', 'flat'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'dissemination', 'two_tier_block'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'dissemination', 'two_tier_cyclic'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'dissemination', 'shared_nic'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'hierarchical', 'flat'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'hierarchical', 'two_tier_block'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@lockstep'),
    ('scan', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('scan@scalar', 'scan@scalar'),
    ('scan', 'rbc', 'hierarchical', 'shared_nic'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@scalar'),
    ('scan', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('scan', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('scan', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('scan', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('scan', 'mpi/intel', None, 'flat'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'mpi/intel', None, 'two_tier_block'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@lockstep'),
    ('scan', 'mpi/intel', None, 'two_tier_cyclic'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'mpi/intel', None, 'shared_nic'): ('scan/p8:scan+scan+scan+bcast+bcast@scalar', 'scan/p8:scan+scan+scan+bcast+bcast@scalar'),
    ('scan', 'mpi/generic', None, 'flat'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'mpi/generic', None, 'two_tier_block'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'mpi/generic', None, 'two_tier_cyclic'): ('scan@scalar', 'scan@lockstep'),
    ('scan', 'mpi/generic', None, 'shared_nic'): ('scan@scalar', 'scan@scalar'),
    ('gather', 'rbc', None, 'flat'): ('gather@scalar', 'gather@lockstep'),
    ('gather', 'rbc', None, 'two_tier_block'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'rbc', None, 'two_tier_cyclic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'rbc', None, 'shared_nic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@scalar'),
    ('gather', 'rbc', 'binomial', 'flat'): ('gather@scalar', 'gather@scalar'),
    ('gather', 'rbc', 'binomial', 'two_tier_block'): ('gather@scalar', 'gather@scalar'),
    ('gather', 'rbc', 'binomial', 'two_tier_cyclic'): ('gather@scalar', 'gather@scalar'),
    ('gather', 'rbc', 'binomial', 'shared_nic'): ('gather@scalar', 'gather@scalar'),
    ('gather', 'rbc', 'hierarchical', 'flat'): ('gather@scalar', 'gather@scalar'),
    ('gather', 'rbc', 'hierarchical', 'two_tier_block'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'rbc', 'hierarchical', 'shared_nic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@scalar'),
    ('gather', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('gather', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('gather', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('gather', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('gather', 'mpi/intel', None, 'flat'): ('gather@scalar', 'gather@lockstep'),
    ('gather', 'mpi/intel', None, 'two_tier_block'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'mpi/intel', None, 'two_tier_cyclic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@lockstep'),
    ('gather', 'mpi/intel', None, 'shared_nic'): ('gather/p8:gather+gather+gather@scalar', 'gather/p8:gather+gather+gather@scalar'),
    ('gather', 'mpi/generic', None, 'flat'): ('gather@scalar', 'gather@lockstep'),
    ('gather', 'mpi/generic', None, 'two_tier_block'): ('gather@scalar', 'gather@lockstep'),
    ('gather', 'mpi/generic', None, 'two_tier_cyclic'): ('gather@scalar', 'gather@lockstep'),
    ('gather', 'mpi/generic', None, 'shared_nic'): ('gather@scalar', 'gather@scalar'),
    ('barrier', 'rbc', None, 'flat'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'rbc', None, 'two_tier_block'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'rbc', None, 'two_tier_cyclic'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'rbc', None, 'shared_nic'): ('barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('barrier', 'rbc', 'dissemination', 'flat'): ('barrier@scalar', 'barrier@scalar'),
    ('barrier', 'rbc', 'dissemination', 'two_tier_block'): ('barrier@scalar', 'barrier@scalar'),
    ('barrier', 'rbc', 'dissemination', 'two_tier_cyclic'): ('barrier@scalar', 'barrier@scalar'),
    ('barrier', 'rbc', 'dissemination', 'shared_nic'): ('barrier@scalar', 'barrier@scalar'),
    ('barrier', 'rbc', 'hierarchical', 'flat'): ('barrier@scalar', 'barrier@scalar'),
    ('barrier', 'rbc', 'hierarchical', 'two_tier_block'): ('barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('barrier', 'rbc', 'hierarchical', 'two_tier_cyclic'): ('barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@lockstep'),
    ('barrier', 'rbc', 'hierarchical', 'shared_nic'): ('barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('barrier', 'rbc', 'bogus', 'flat'): ('ValueError', 'ValueError'),
    ('barrier', 'rbc', 'bogus', 'two_tier_block'): ('ValueError', 'ValueError'),
    ('barrier', 'rbc', 'bogus', 'two_tier_cyclic'): ('ValueError', 'ValueError'),
    ('barrier', 'rbc', 'bogus', 'shared_nic'): ('ValueError', 'ValueError'),
    ('barrier', 'mpi/intel', None, 'flat'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/intel', None, 'two_tier_block'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/intel', None, 'two_tier_cyclic'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/intel', None, 'shared_nic'): ('barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar', 'barrier/p8:reduce+reduce+reduce+bcast+bcast+bcast@scalar'),
    ('barrier', 'mpi/generic', None, 'flat'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/generic', None, 'two_tier_block'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/generic', None, 'two_tier_cyclic'): ('barrier@scalar', 'barrier@lockstep'),
    ('barrier', 'mpi/generic', None, 'shared_nic'): ('barrier@scalar', 'barrier@scalar'),
}


#: Text of the ``ValueError`` cells, by op (same tree, same moment).
UNKNOWN = {
    "bcast": "unknown broadcast algorithm 'bogus'; expected one of 'auto', "
             "'binomial', 'hierarchical', 'scatter_allgather', 'pipeline'",
    "reduce": "unknown reduce algorithm 'bogus'; expected one of "
              "'binomial', 'hierarchical'",
    "allreduce": "unknown allreduce algorithm 'bogus'; expected one of "
                 "'auto', 'reduce_bcast', 'hierarchical', 'ring'",
    "scan": "unknown scan algorithm 'bogus'; expected one of "
            "'dissemination', 'hierarchical'",
    "gather": "unknown gather algorithm 'bogus'; expected one of "
              "'binomial', 'hierarchical'",
    "barrier": "unknown barrier algorithm 'bogus'; expected one of "
               "'dissemination', 'hierarchical'",
}


def test_matrix_is_complete():
    assert list(EXPECTED) == list(cells())


@pytest.mark.parametrize("op", ALGORITHMS)
def test_decision_matrix(monkeypatch, op):
    got = {cell: decide(monkeypatch, *cell)
           for cell in cells() if cell[0] == op}
    assert got == {cell: pair for cell, pair in EXPECTED.items()
                   if cell[0] == op}


@pytest.mark.parametrize("op", ALGORITHMS)
def test_unknown_algorithm_text(op):
    def program(env):
        world_rbc = yield from create_rbc_comm(init_mpi(env))
        with pytest.raises(ValueError) as caught:
            _call(op, "rbc", None, world_rbc, np.arange(4.0), "bogus")
        return str(caught.value)

    assert set(Cluster(2).run(program).results) == {UNKNOWN[op]}


# ---------------------------------------------------------------------------
# The tier follows the schedule: an opted-in program's node-leader schedules
# fuse, bit-identically to the oracle or refused; flat schedules named
# explicitly keep the event tier and say so.
# ---------------------------------------------------------------------------

#: op -> the name of its flat algorithm.
FLAT_ALGORITHM = {op: names[1] for op, names in dispatch._NAMES.items()}


#: In ``_loop``'s ``algorithms``: a default bcast of a topology-blind caller
#: (``node_aware=False``), which fuses with the flat schedule.
TOPOLOGY_BLIND = "topology-blind"


def _loop(env, *, op, algorithms, skew=0.0):
    """Opted in: a delay of ``skew`` per rank, then one RBC ``op`` call per
    entry of ``algorithms``, back to back on the operation's one (context,
    tag).  No barrier first: a lockstep phase resumes the ranks it finishes
    at one instant in rank order, not in the oracle's order, so event-tier
    sends after it can break a port-write tie differently (ROADMAP item 4)."""
    env.lockstep_collectives = True
    world = yield from create_rbc_comm(init_mpi(env, vendor="generic"))
    if skew:
        yield from env.sleep(skew * env.rank)
    value = np.arange(4.0) + env.rank
    results = []
    for algorithm in algorithms:
        if algorithm == TOPOLOGY_BLIND:
            request = dispatch.start(env, rbc._endpoint(world, tags.BCAST_TAG),
                                     "bcast", value, node_aware=False)
        else:
            request = _call(op, "rbc", None, world, value, algorithm)
        yield from env.wait_until(request.test)
        results.append(request.result())
    return env.now, results


def _matches_oracle(machine, **kwargs):
    """The default cluster's run of ``_loop``, with the oracle's
    observables and a ``tier_declined`` reason for every scalar collective;
    None when lockstep refused with a ``LockstepError``."""
    preset, placement = MACHINES[machine]
    try:
        default, oracle = run_both(P, _loop, params=MACHINE_PRESETS[preset](),
                                   placement=placement, **kwargs)
    except RankFailedError as failure:
        assert isinstance(failure.__cause__, spmd.LockstepError)
        return None
    assert_equal_observables(default, oracle)
    declined = default.obs.get("tier_declined", {})
    assert sum(declined.values()) == default.obs.get("scalar_collectives", 0)
    return default


@pytest.mark.parametrize("machine",
                         ["flat", "two_tier_block", "two_tier_cyclic"])
@pytest.mark.parametrize("schedule", ["flat", "hierarchical"])
@pytest.mark.parametrize("op", ALGORITHMS)
def test_explicit_algorithms_match_the_oracle(op, schedule, machine):
    name = FLAT_ALGORITHM[op] if schedule == "flat" else schedule
    _matches_oracle(machine, op=op, algorithms=(name, name))


@pytest.mark.parametrize("flat", ["binomial", TOPOLOGY_BLIND])
@pytest.mark.parametrize("skew", [0.0, 3.0])
def test_two_schedules_share_one_op_kind(flat, skew):
    """Flat and node-leader bcasts alternate on one (context, tag).  A
    topology-blind default call fuses, so both schedules share the one
    ``bcast`` kind and its generation list, and a join enters only
    generations of its own schedule; an explicit ``"binomial"`` runs event
    by event between the fused ones.  With a skew, the root runs ahead, so
    several calls are live at once."""
    default = _matches_oracle("two_tier_block", op="bcast", skew=skew,
                              algorithms=(flat, "hierarchical") * 3)
    if default is not None:
        scalar = 3 * P if flat == "binomial" else 0
        assert default.obs.get("scalar_collectives", 0) == scalar


@pytest.mark.parametrize("reference_engine", [False, True],
                         ids=["default", "oracle"])
def test_tier_declined_explains_every_scalar_collective(reference_engine):
    """An opted-in program's calls that run event by event are each
    counted once per rank under one reason: no lockstep pricer (large-input
    algorithms, ``"auto"`` bcast), a flat algorithm named explicitly, or —
    on the oracle — the reference engine."""
    def program(env):
        env.lockstep_collectives = True
        world = yield from create_rbc_comm(init_mpi(env, vendor="generic"))
        payload = np.arange(64.0)
        for algorithm in ("pipeline", "scatter_allgather", "auto",
                          "binomial", None, "pipeline"):
            yield from rbc.bcast(world, payload, 0, algorithm=algorithm)
        yield from rbc.allreduce(world, payload, algorithm="ring")
        return env.now

    result = Cluster(P, reference_engine=reference_engine).run(program)
    if reference_engine:
        assert result.obs["tier_declined"] == {
            "lockstep: the reference engine prices collectives event by "
            "event": 7 * P}
        assert result.obs["scalar_collectives"] == 7 * P
        return
    assert result.obs["tier_declined"] == {
        "lockstep: pipeline_bcast has no lockstep pricer": 2 * P,
        "lockstep: bcast_scatter_allgather has no lockstep pricer": P,
        "lockstep: _auto_bcast has no lockstep pricer": P,
        "lockstep: explicit 'binomial' bcast runs event by event": P,
        "lockstep: allreduce_ring has no lockstep pricer": P,
    }
    # Every scalar collective is explained; the default bcast fused.
    assert result.obs["scalar_collectives"] == 6 * P
    assert result.obs["phases_lockstep"] == 1


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    try:
        print("EXPECTED = {")
        for cell in cells():
            print(f"    {cell!r}: {decide(patch, *cell)!r},")
        print("}")
    finally:
        patch.undo()
