"""Split / create semantics outside the Fig. 5 shapes, on both event cores.

The benchmark workloads only ever split a world communicator into two halves
with ascending keys.  Each case here reaches a branch they do not — several
colors, descending and tied keys, ``color=None``, a non-affine parent whose
sibling communicators split at the same sequence number, an explicit
non-contiguous ``create_group``, list payloads under a vendor word factor
through the node-leader stages — checks the outcome against a brute-force
expectation, and requires the default cluster and the oracle
(``tests/oracle.py``) to agree byte for byte.
"""

from __future__ import annotations

import pytest

from repro.mpi import MpiGroup, init_mpi
from repro.simulator import HierarchicalParams

from oracle import assert_equal_observables, run_both

P = 12


def _members(sub):
    """World ranks of ``sub`` in communicator-rank order (no communication)."""
    return [sub.to_world(r) for r in range(sub.size)]


def _split_by(color_of, key_of):
    """(program, expected per-rank result) of one split of the world."""
    def program(env):
        world = init_mpi(env, vendor="intel")
        sub = yield from world.split(color_of(world.rank), key_of(world.rank))
        if sub is None:
            return None
        gathered = yield from sub.allgather(world.rank)
        return sub.rank, _members(sub), gathered

    expected = []
    for rank in range(P):
        color = color_of(rank)
        if color is None:
            expected.append(None)
            continue
        members = sorted((r for r in range(P) if color_of(r) == color),
                         key=lambda r: (key_of(r), r))
        expected.append((members.index(rank), members, members))
    return program, expected


def _split_of_shuffled_split():
    """Both children of a key-shuffled split split again, at the same
    sequence number and under one shared context id."""
    def program(env):
        world = init_mpi(env, vendor="intel")
        shuffled = yield from world.split(world.rank % 2, key=-world.rank)
        assert shuffled.group.affine_world_map() is None
        inner = yield from shuffled.split(shuffled.rank % 3, key=shuffled.rank)
        total = yield from inner.allreduce(world.rank)
        return shuffled.rank, _members(inner), total

    expected = []
    for rank in range(P):
        outer = sorted((r for r in range(P) if r % 2 == rank % 2),
                       reverse=True)
        position = outer.index(rank)
        inner = [r for i, r in enumerate(outer) if i % 3 == position % 3]
        expected.append((position, inner, sum(inner)))
    return program, expected


_EXPLICIT = [9, 2, 7, 4]


def _explicit_create_group():
    def program(env):
        world = init_mpi(env, vendor="intel")
        if world.rank not in _EXPLICIT:
            return None
        sub = yield from world.create_group(MpiGroup.incl(_EXPLICIT), tag=3)
        gathered = yield from sub.allgather(world.rank)
        return sub.rank, _members(sub), gathered

    expected = [(_EXPLICIT.index(r), _EXPLICIT, _EXPLICIT)
                if r in _EXPLICIT else None for r in range(P)]
    return program, expected


def _ragged(rank):
    return [rank] * (rank % 3 + 1)


def _vendor_lists():
    """Ragged lists gathered, broadcast and allgathered by Intel's
    collectives: the gather and the broadcast run their node-leader stages
    on ``SubgroupEndpoint`` views at word factors 1.6 and 6.0, the flat
    allgather at 1.5."""
    def program(env):
        world = init_mpi(env, vendor="intel")
        gathered = yield from world.gather(_ragged(world.rank), root=5)
        everyone = yield from world.bcast(gathered, root=5)
        again = yield from world.allgather(_ragged(world.rank))
        return everyone, again

    lists = [_ragged(r) for r in range(P)]
    return program, [(lists, lists)] * P


CASES = {
    "three-colors-descending-keys": lambda: _split_by(
        lambda r: r % 3, lambda r: -r),
    "equal-keys-tie-by-parent-rank": lambda: _split_by(
        lambda r: r % 2, lambda r: 7),
    "partly-tied-keys": lambda: _split_by(
        lambda r: 0, lambda r: r % 4),
    "color-none": lambda: _split_by(
        lambda r: None if r % 4 == 1 else r // 6, lambda r: -r),
    "split-of-shuffled-split": _split_of_shuffled_split,
    "explicit-create-group": _explicit_create_group,
    "vendor-lists-two-tier": _vendor_lists,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_creation_semantics_identical_across_engine_modes(name):
    program, expected = CASES[name]()
    params = HierarchicalParams.two_tier(ranks_per_node=4) \
        if name == "vendor-lists-two-tier" else None
    default, reference = run_both(P, program, params=params)
    assert default.results == expected
    assert_equal_observables(default, reference)
    # Nothing here opts in to a faster tier: both sides run the same events.
    assert default.events_processed == reference.events_processed
    assert default.stats.words_sent > 0
