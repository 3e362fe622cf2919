"""Rank-free collective endpoints, interned once per transport."""

import numpy as np
import pytest

from repro.collectives.endpoint import TransportEndpoint
from repro.mpi import MpiGroup, init_mpi
from repro.rbc import collectives as rbc_collectives
from repro.rbc import create_rbc_comm
from repro.rbc.collectives import _endpoint
from repro.rbc.comm import RbcRange
from repro.simulator import Cluster


def _mixed_program(env, lockstep):
    """RBC barrier + scan + gather and an MPI iscan on the world, far enough
    apart that no two phases overlap (lockstep refuses overlapping ones)."""
    env.lockstep_collectives = lockstep
    world_mpi = init_mpi(env, vendor="intel")
    world = yield from create_rbc_comm(world_mpi)
    yield from rbc_collectives.barrier(world)
    yield from env.sleep(1000.0)
    prefix = yield from rbc_collectives.scan(world, 1)
    yield from env.sleep(1000.0)
    gathered = yield from rbc_collectives.gather(world, env.rank)
    yield from env.sleep(1000.0)
    request = world_mpi.iscan(np.ones(2))
    yield from env.wait_until(request.test)
    return prefix, gathered, request.result()


def _constructions(monkeypatch, p, lockstep):
    """How many descriptions of each kind a p-rank run builds."""
    counts = {}
    for cls in (TransportEndpoint, RbcRange, MpiGroup):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    result = Cluster(p).run(_mixed_program, lockstep=lockstep)
    for rank, (prefix, gathered, scanned) in enumerate(result.results):
        assert prefix == rank + 1
        assert gathered == (list(range(p)) if rank == 0 else None)
        assert np.array_equal(scanned, np.full(2, rank + 1.0))
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("lockstep", [False, True])
def test_description_count_does_not_depend_on_p(monkeypatch, lockstep):
    """The world group, the world range and one endpoint per collective are
    built once per cluster, however many ranks share them."""
    small = _constructions(monkeypatch, 32, lockstep)
    large = _constructions(monkeypatch, 256, lockstep)
    assert small == large
    assert small == {"MpiGroup": 1, "RbcRange": 1, "TransportEndpoint": 4}


def test_members_share_one_endpoint_and_derive_their_rank(run_ranks):
    def program(env):
        world = yield from create_rbc_comm(init_mpi(env))
        sub = world.split_local(1, world.size - 1, 2)   # world ranks 1, 3, 5
        if sub.rank is None:
            with pytest.raises(ValueError, match="not a member"):
                _endpoint(sub, 7)
            return None
        ep = _endpoint(sub, 7)
        assert ep.rank_of(env.rank) == sub.rank
        with pytest.raises(ValueError, match="not a member"):
            ep.rank_of(0)
        return id(ep)

    results = run_ranks(6, program)
    assert results[0::2] == [None] * 3
    assert len(set(results[1::2])) == 1


def test_non_affine_rank_of_indexes_the_translation():
    cluster = Cluster(6)
    members = (4, 0, 5)
    ep = TransportEndpoint(cluster.transport, context="ctx", tag=0,
                           size=len(members), to_world=members.__getitem__)
    assert [ep.rank_of(world) for world in members] == [0, 1, 2]
    for outsider in (1, 2, 3):
        with pytest.raises(ValueError, match="not a member"):
            ep.rank_of(outsider)


def test_creation_endpoint_composes_an_affine_member_range(run_ranks):
    """The context-id agreement of a strided ``create_group`` translates
    with one multiply-add, like the collectives do; a member list keeps
    the translation through the parent's group."""
    from repro.mpi.comm_create import _creation_endpoint

    def program(env):
        world = init_mpi(env)
        yield from env.sleep(0.0)
        endpoints = [
            _creation_endpoint(world, channel="create_group", tag=0,
                               members=members)
            for members in (range(1, 8, 2), [1, 3, 5, 7])]
        return [(ep._affine, [ep.to_world(i) for i in range(ep.size)])
                for ep in endpoints]

    for result in run_ranks(8, program):
        assert result == [((1, 2), [1, 3, 5, 7]), (None, [1, 3, 5, 7])]
