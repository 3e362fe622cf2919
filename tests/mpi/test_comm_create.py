"""Communicator creation: comm_create_group, comm_split, comm_dup, vendor costs."""

from types import SimpleNamespace

import pytest

from repro.mpi import SUM, MpiGroup, init_mpi
from repro.simulator import Cluster


def test_create_group_builds_working_communicator(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank >= 4:
            yield from env.sleep(0.0)
            return None
        group = MpiGroup.contiguous(0, 3)
        sub = yield from world.create_group(group, tag=11)
        assert sub.size == 4
        assert sub.rank == world.rank
        total = yield from sub.allreduce(1, SUM)
        return total

    results = run_ranks(8, program)
    assert results[:4] == [4, 4, 4, 4]
    assert results[4:] == [None] * 4


def test_create_group_rejects_non_members(run_ranks):
    def program(env):
        world = init_mpi(env)
        group = MpiGroup.contiguous(0, 0)
        if world.rank == 1:
            with pytest.raises(ValueError):
                yield from world.create_group(group, tag=1)
            return "rejected"
        if world.rank == 0:
            sub = yield from world.create_group(group, tag=1)
            return sub.size
        yield from env.sleep(0.0)

    results = run_ranks(2, program)
    assert results == [1, "rejected"]


def test_create_group_allocates_distinct_context_ids(run_ranks):
    def program(env):
        world = init_mpi(env)
        group = MpiGroup.contiguous(0, world.size - 1)
        first = yield from world.create_group(group, tag=1)
        second = yield from world.create_group(group, tag=2)
        assert first.context_id != second.context_id != world.context_id
        # Traffic on the two communicators does not interfere.
        if world.rank == 0:
            first.isend("A", 1, tag=0)
            second.isend("B", 1, tag=0)
            yield from env.sleep(0.0)
            return None
        if world.rank == 1:
            b = yield from second.recv(0, 0)
            a = yield from first.recv(0, 0)
            return a, b
        yield from env.sleep(0.0)

    results = run_ranks(3, program)
    assert results[1] == ("A", "B")


def test_overlapping_groups_with_distinct_tags(run_ranks):
    """A process can create two overlapping communicators back to back."""

    def program(env):
        world = init_mpi(env)
        results = []
        if world.rank <= 2:
            left = yield from world.create_group(MpiGroup.contiguous(0, 2), tag=1)
            results.append((yield from left.allreduce(1, SUM)))
        if world.rank >= 2:
            right = yield from world.create_group(MpiGroup.contiguous(2, 4), tag=2)
            results.append((yield from right.allreduce(1, SUM)))
        return results

    results = run_ranks(5, program)
    assert results[0] == [3] and results[1] == [3]
    assert results[2] == [3, 3]
    assert results[3] == [3] and results[4] == [3]


def test_comm_split_groups_by_color_and_orders_by_key(run_ranks):
    def program(env):
        world = init_mpi(env)
        color = world.rank % 3
        # Reverse the ordering within each color via the key.
        sub = yield from world.split(color, key=-world.rank)
        members = yield from sub.allgather(world.rank)
        return color, sub.rank, members

    results = run_ranks(9, program)
    for world_rank, (color, sub_rank, members) in enumerate(results):
        expected_members = sorted(
            (r for r in range(9) if r % 3 == color), reverse=True)
        assert members == expected_members
        assert members[sub_rank] == world_rank


def test_comm_split_with_undefined_color(run_ranks):
    def program(env):
        world = init_mpi(env)
        color = 0 if world.rank < 2 else None
        sub = yield from world.split(color, key=world.rank)
        if color is None:
            assert sub is None
            return None
        return sub.size

    results = run_ranks(5, program)
    assert results == [2, 2, None, None, None]


def test_comm_dup_preserves_group(run_ranks):
    def program(env):
        world = init_mpi(env)
        duplicate = yield from world.dup()
        assert duplicate.size == world.size
        assert duplicate.rank == world.rank
        assert duplicate.context_id != world.context_id
        value = yield from duplicate.allreduce(1, SUM)
        return value

    assert run_ranks(4, program) == [4, 4, 4, 4]


def test_comm_free_releases_context(run_ranks):
    def program(env):
        world = init_mpi(env)
        first = yield from world.dup()
        first_id = first.context_id
        first.free()
        second = yield from world.dup()
        # The released id is reused by the next creation.
        return first_id == second.context_id

    assert all(run_ranks(3, program))


def _creation_time(vendor, method, p=32):
    def program(env):
        world = init_mpi(env, vendor=vendor)
        half = world.size // 2
        start = env.now
        if method == "create_group":
            first, last = (0, half - 1) if world.rank < half else (half, world.size - 1)
            yield from world.create_group(MpiGroup.contiguous(first, last), tag=1)
        else:
            yield from world.split(0 if world.rank < half else 1, world.rank)
        return env.now - start

    return max(Cluster(p).run(program).results)


def test_vendor_cost_ordering_matches_fig5():
    intel_create = _creation_time("intel", "create_group")
    intel_split = _creation_time("intel", "split")
    ibm_create = _creation_time("ibm", "create_group")
    generic_create = _creation_time("generic", "create_group")
    assert ibm_create > intel_create * 3
    assert intel_split > intel_create
    assert generic_create <= intel_create


def test_create_group_cost_grows_with_group_size():
    small = _creation_time("intel", "create_group", p=16)
    large = _creation_time("intel", "create_group", p=128)
    assert large > small


# ---------------------------------------------------------------------------
# One table of per-color groups per split, shared and dropped by its readers.
# ---------------------------------------------------------------------------

def test_split_shares_one_group_per_color_and_leaves_no_table(run_ranks):
    """Back-to-back splits of one parent, ``color=None`` ranks included."""

    def program(env):
        world = init_mpi(env, vendor="intel")
        tables = env.transport._split_tables
        first = yield from world.split(
            None if world.rank % 3 == 0 else world.rank % 2, key=-world.rank)
        second = yield from world.split(world.rank // 4, key=world.rank)
        yield from world.barrier()
        # Every rank with a color has read its group by now; close() has
        # not run yet, so the readers themselves emptied the table.
        assert tables == {}
        return (None if first is None else first.group), second.group

    results = run_ranks(12, program)
    for rank, (first, second) in enumerate(results):
        assert (first is None) == (rank % 3 == 0)
        assert second.world_ranks() == \
            list(range(rank // 4 * 4, rank // 4 * 4 + 4))
        if first is not None:
            assert first.world_ranks() == sorted(
                (r for r in range(12) if r % 3 and r % 2 == rank % 2),
                reverse=True)
        for other_first, other_second in results[:rank]:
            if first is not None and other_first is not None \
                    and other_first == first:
                assert other_first is first
            if other_second == second:
                assert other_second is second


def test_split_with_every_color_none_builds_no_table(run_ranks):
    def program(env):
        world = init_mpi(env)
        sub = yield from world.split(None)
        assert env.transport._split_tables == {}
        return sub

    assert run_ranks(4, program) == [None] * 4


def test_split_groups_locally_when_the_table_holds_another_list(run_ranks):
    """A table under the split's key that was built from a different list
    object is neither used nor touched."""
    stale = SimpleNamespace(entries=["another", "split"], groups={}, unread=5)

    def program(env):
        world = init_mpi(env)
        key = (world.context_id, world._coll_seq, world.to_world(0))
        if world.rank == 0:
            env.transport._split_tables[key] = stale
        sub = yield from world.split(world.rank % 2, key=world.rank)
        members = yield from sub.allgather(world.rank)
        yield from world.barrier()
        assert env.transport._split_tables == {key: stale}
        return members, sub.group

    results = run_ranks(6, program)
    assert [members for members, _ in results] == \
        [[0, 2, 4], [1, 3, 5]] * 3
    assert (stale.entries, stale.groups, stale.unread) == \
        (["another", "split"], {}, 5)
    # Grouped locally: equal groups, one object per rank.
    assert results[0][1] == results[2][1]
    assert results[0][1] is not results[2][1]
