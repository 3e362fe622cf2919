"""RBC communicator creation, splitting, rank translation and strided ranges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MpiGroup, init_mpi
from repro.rbc import RBC_CREATE_OPS, RbcComm, comm_rank, comm_size, create_rbc_comm
from repro.rbc.comm import RbcRange
from repro.simulator import Cluster


def test_create_rbc_comm_covers_whole_mpi_comm(run_ranks):
    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        return comm_rank(world), comm_size(world), world.first, world.last

    results = run_ranks(6, program)
    for rank, (rbc_rank, size, first, last) in enumerate(results):
        assert rbc_rank == rank
        assert size == 6
        assert (first, last) == (0, 5)


def test_create_is_local_and_constant_time(run_cluster):
    """Creating / splitting RBC communicators sends no messages and costs a
    constant amount of local work regardless of the communicator size."""

    def program(env):
        world_mpi = init_mpi(env)
        start = env.now
        world = yield from create_rbc_comm(world_mpi)
        sub = yield from world.split(0, world.size // 2)
        subsub = yield from sub.split(0, sub.size - 1)
        return env.now - start

    from repro.simulator import NetworkParams

    small = run_cluster(4, program)
    large = run_cluster(64, program)
    assert small.stats.messages_sent == 0
    assert large.stats.messages_sent == 0
    assert max(large.results) == pytest.approx(max(small.results))
    expected = 3 * RBC_CREATE_OPS * NetworkParams.default().gamma
    assert max(large.results) == pytest.approx(expected)


def test_split_translates_ranks(run_ranks):
    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        sub = yield from world.split(2, 5)
        return sub.rank, sub.size, sub.first, sub.last

    results = run_ranks(8, program)
    for rank, (sub_rank, size, first, last) in enumerate(results):
        assert size == 4 and (first, last) == (2, 5)
        if 2 <= rank <= 5:
            assert sub_rank == rank - 2
        else:
            assert sub_rank is None


def test_nested_splits_compose(run_ranks):
    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        outer = yield from world.split(4, 11)      # MPI ranks 4..11
        if outer.rank is None:
            return None
        inner = yield from outer.split(2, 5)       # MPI ranks 6..9
        return inner.first, inner.last, inner.rank

    results = run_ranks(12, program)
    for rank, value in enumerate(results):
        if rank < 4:
            assert value is None
        else:
            first, last, inner_rank = value
            assert (first, last) == (6, 9)
            assert inner_rank == (rank - 6 if 6 <= rank <= 9 else None)


def test_strided_range(run_ranks):
    """Footnote 2 of the paper: strided ranges are supported."""

    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        evens = world.split_local(0, world.size - 2, stride=2)
        return evens.size, evens.rank, [evens.to_mpi(i) for i in range(evens.size)]

    results = run_ranks(8, program)
    for rank, (size, rbc_rank, members) in enumerate(results):
        assert size == 4
        assert members == [0, 2, 4, 6]
        assert rbc_rank == (rank // 2 if rank % 2 == 0 else None)


def test_strided_split_of_strided_comm(run_ranks):
    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        evens = world.split_local(0, world.size - 2, stride=2)   # 0,2,4,...
        every_fourth = evens.split_local(0, evens.size - 1, stride=2)  # 0,4,8,...
        return [every_fourth.to_mpi(i) for i in range(every_fourth.size)]

    results = run_ranks(16, program)
    assert results[0] == [0, 4, 8, 12]


def test_rank_translation_errors():
    class FakeMpi:
        size = 8
        rank = 0
        group = MpiGroup.contiguous(0, 7)

        class env:  # noqa: N801 - minimal stub
            pass

        def _p2p_context(self):
            return (0, "pt2pt")

    comm = RbcComm.__new__(RbcComm)
    comm.mpi_comm = FakeMpi()
    comm.range = RbcRange(comm.mpi_comm, 2, 6, 2)
    assert comm.size == 3
    assert comm.to_mpi(1) == 4
    assert comm.from_mpi(6) == 2
    assert comm.from_mpi(3) is None
    assert comm.from_mpi(7) is None
    with pytest.raises(ValueError):
        comm.to_mpi(3)


def test_invalid_ranges_rejected(run_ranks):
    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        with pytest.raises(ValueError):
            world.split_local(5, 2)
        with pytest.raises(ValueError):
            world.split_local(0, world.size)   # beyond the MPI communicator
        with pytest.raises(ValueError):
            world.split_local(0, 1, stride=0)
        return True

    assert all(run_ranks(4, program))


@given(st.integers(min_value=1, max_value=64), st.data())
@settings(max_examples=40, deadline=None)
def test_property_rank_translation_roundtrip(size, data):
    first = data.draw(st.integers(min_value=0, max_value=size - 1))
    last = data.draw(st.integers(min_value=first, max_value=size - 1))
    stride = data.draw(st.integers(min_value=1, max_value=4))
    last = first + ((last - first) // stride) * stride

    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        sub = world.split_local(first, last, stride)
        ok = True
        for rbc_rank in range(sub.size):
            mpi_rank = sub.to_mpi(rbc_rank)
            ok &= sub.from_mpi(mpi_rank) == rbc_rank
            ok &= first <= mpi_rank <= last
        return ok

    results = Cluster(size).run(program).results
    assert all(results)
