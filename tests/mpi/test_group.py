"""Tests of MPI process groups (explicit and range storage formats)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import UNDEFINED
from repro.mpi.group import GroupFormat, MpiGroup


def test_incl_preserves_order():
    group = MpiGroup.incl([5, 2, 9])
    assert group.size == 3
    assert group.world_ranks() == [5, 2, 9]
    assert group.translate(0) == 5
    assert group.translate(2) == 9
    assert group.rank_of(2) == 1
    assert group.format == GroupFormat.EXPLICIT


def test_incl_rejects_duplicates():
    with pytest.raises(ValueError):
        MpiGroup.incl([1, 2, 1])


def test_range_incl_single_range():
    group = MpiGroup.range_incl([(4, 9, 1)])
    assert group.size == 6
    assert group.world_ranks() == [4, 5, 6, 7, 8, 9]
    assert group.format == GroupFormat.RANGE
    assert group.as_contiguous_range() == (4, 9)


def test_range_incl_with_stride():
    group = MpiGroup.range_incl([(0, 10, 2)])
    assert group.world_ranks() == [0, 2, 4, 6, 8, 10]
    assert group.rank_of(6) == 3
    assert group.rank_of(5) == UNDEFINED
    assert group.as_contiguous_range() is None


def test_range_incl_multiple_ranges():
    group = MpiGroup.range_incl([(0, 2), (10, 11)])
    assert group.world_ranks() == [0, 1, 2, 10, 11]
    assert group.translate(3) == 10
    assert group.rank_of(11) == 4
    assert group.as_contiguous_range() is None
    assert group.range_count() == 2


def test_range_incl_rejects_overlapping_ranges():
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(0, 5), (3, 8)])


def test_range_incl_rejects_bad_ranges():
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(5, 2)])
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(0, 4, 0)])


def test_contiguous_constructor():
    group = MpiGroup.contiguous(3, 7)
    assert group.world_ranks() == [3, 4, 5, 6, 7]
    assert group.as_contiguous_range() == (3, 7)


def test_explicit_contiguous_detection():
    assert MpiGroup.incl([2, 3, 4]).as_contiguous_range() == (2, 4)
    assert MpiGroup.incl([2, 4, 3]).as_contiguous_range() is None
    assert MpiGroup.incl([2, 4, 6]).as_contiguous_range() is None


def test_constructor_requires_exactly_one_source():
    with pytest.raises(ValueError):
        MpiGroup()
    with pytest.raises(ValueError):
        MpiGroup(explicit=[1], ranges=[(0, 1)])


def test_translate_out_of_range():
    group = MpiGroup.contiguous(0, 3)
    with pytest.raises(IndexError):
        group.translate(4)
    with pytest.raises(ValueError):
        group.translate(-1)


def test_contains_and_len_and_eq():
    a = MpiGroup.contiguous(1, 4)
    b = MpiGroup.incl([1, 2, 3, 4])
    assert len(a) == 4
    assert a.contains(2)
    assert not a.contains(0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != MpiGroup.incl([1, 2, 3])


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40,
                unique=True))
def test_property_explicit_translate_roundtrip(ranks):
    group = MpiGroup.incl(ranks)
    for local, world in enumerate(ranks):
        assert group.translate(local) == world
        assert group.rank_of(world) == local
    assert group.rank_of(max(ranks) + 1) == UNDEFINED


@given(st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=80)
def test_property_range_equals_explicit(first, extra, stride):
    last = first + extra * stride
    range_group = MpiGroup.range_incl([(first, last, stride)])
    explicit_group = MpiGroup.incl(list(range(first, last + 1, stride)))
    assert range_group.world_ranks() == explicit_group.world_ranks()
    assert range_group.size == explicit_group.size
    for local in range(range_group.size):
        assert range_group.translate(local) == explicit_group.translate(local)
    # Membership queries agree on a window around the range.
    for world in range(max(0, first - 2), last + 3):
        assert range_group.rank_of(world) == explicit_group.rank_of(world)


# ---------------------------------------------------------------------------
# Group-to-group translation (the member list of comm_create_group).
# ---------------------------------------------------------------------------

def _per_rank_translation(parent: MpiGroup, subgroup: MpiGroup):
    """What ``comm_create_group`` computed before the closed form existed."""
    ranks = sorted(parent.rank_of(w) for w in subgroup.world_ranks())
    if any(rank == UNDEFINED for rank in ranks):
        raise ValueError("group contains ranks outside the parent communicator")
    return ranks


def _affine(first, stride, count):
    return MpiGroup.range_incl([(first, first + (count - 1) * stride, stride)])


_SMALL = range(1, 7)
_AFFINE_SHAPES = [(first, stride, count) for first in range(0, 7)
                  for stride in _SMALL for count in _SMALL]

_IRREGULAR_PARENTS = {
    "three-ranges": MpiGroup.range_incl([(0, 4, 2), (9, 15, 3), (5, 7, 2)]),
    "two-ranges": MpiGroup.range_incl([(3, 8), (20, 30, 5)]),
    "explicit-shuffled": MpiGroup.incl([12, 0, 7, 3, 9, 6, 15, 18, 4]),
    "explicit-descending": MpiGroup.incl(list(range(40, -1, -1))),
}


def _same_translation(parent: MpiGroup, subgroup: MpiGroup):
    """Same list or same ``ValueError``; returns the translation or None."""
    try:
        expected = _per_rank_translation(parent, subgroup)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            parent.ranks_of_subgroup(subgroup)
        return None
    got = parent.ranks_of_subgroup(subgroup)
    assert list(got) == expected
    assert len(got) == subgroup.size
    for index, rank in enumerate(expected):
        assert got[index] == rank and got.index(rank) == index
    return got


def test_subgroup_translation_of_affine_pairs_is_a_range_equal_to_per_rank():
    closed = rejected = 0
    for parent_shape in _AFFINE_SHAPES:
        parent = _affine(*parent_shape)
        for sub_shape in _AFFINE_SHAPES:
            got = _same_translation(parent, _affine(*sub_shape))
            if got is None:
                rejected += 1
            else:
                # Every affine subgroup inside an affine parent has the
                # closed form: the rank-by-rank path is never what answers.
                assert isinstance(got, range)
                closed += 1
    assert closed > 1000 and rejected > 1000


def test_subgroup_translation_falls_back_when_strides_do_not_divide():
    parent = _affine(0, 2, 6)                      # 0 2 4 6 8 10
    # Stride 3 over a stride-2 parent: 0 and 6 are members, 3 is not.
    with pytest.raises(ValueError, match="outside the parent"):
        parent.ranks_of_subgroup(_affine(0, 3, 3))
    # A one-member subgroup has no stride to divide.
    assert list(parent.ranks_of_subgroup(_affine(6, 5, 1))) == [3]
    # Aligned strides, but starting off the parent's lattice / past its end.
    for outside in (_affine(1, 2, 3), _affine(8, 2, 3), _affine(12, 2, 1)):
        with pytest.raises(ValueError, match="outside the parent"):
            parent.ranks_of_subgroup(outside)


@pytest.mark.parametrize("name", sorted(_IRREGULAR_PARENTS))
def test_subgroup_translation_of_multi_range_and_explicit_parents(name):
    parent = _IRREGULAR_PARENTS[name]
    members = parent.world_ranks()
    subgroups = [_affine(*shape) for shape in _AFFINE_SHAPES]
    subgroups += [
        MpiGroup.incl(members[::-1]),
        MpiGroup.incl(members[1::2]),
        MpiGroup.incl([members[2], members[0]]),
        MpiGroup.incl([members[0], 1000]),
        MpiGroup.range_incl([(members[0], members[0]), (1000, 1001)]),
    ]
    accepted = sum(_same_translation(parent, sub) is not None
                   for sub in subgroups)
    assert 0 < accepted < len(subgroups)


def test_explicit_and_multi_range_subgroups_of_an_affine_parent():
    parent = _affine(3, 2, 10)                     # 3 5 ... 21
    for sub in (MpiGroup.incl([21, 3, 9]),
                MpiGroup.range_incl([(5, 9, 2), (15, 21, 6)]),
                MpiGroup.incl([3, 4]),
                MpiGroup.range_incl([(3, 5, 2), (23, 25, 2)])):
        _same_translation(parent, sub)


def test_explicit_rank_of_after_many_lookups_matches_positions():
    ranks = [17, 3, 99, 0, 42]
    group = MpiGroup.incl(ranks)
    for _ in range(2):  # the second round is served by the built index
        assert [group.rank_of(r) for r in ranks] == [0, 1, 2, 3, 4]
        assert group.rank_of(5) == UNDEFINED
        assert not group.contains(-1)
