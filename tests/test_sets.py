import pytest

from centra.sets import ElemSet, Subgroup, ids_from_mask
from conftest import mask_from_ids


def test_mask_roundtrip():
    ids = (0, 3, 5, 11)
    s = ElemSet.from_ids(12, ids)
    assert s.mask == 0b100000101001
    assert ids_from_mask(s.mask) == ids
    assert ElemSet.from_ids(12, ids_from_mask(s.mask)) == s


def test_members_ascending():
    s = ElemSet.from_ids(12, [5, 0, 11, 3])
    assert s.members == (0, 3, 5, 11)
    assert list(s) == [0, 3, 5, 11]
    assert len(s) == 4


def test_out_of_range_id_rejected():
    with pytest.raises(ValueError, match="out of range"):
        ElemSet.from_ids(4, [4])
    with pytest.raises(ValueError, match="outside the universe"):
        ElemSet(4, 1 << 4)


def test_bad_universe():
    with pytest.raises(ValueError, match="positive"):
        ElemSet(0)


def test_set_algebra():
    a = ElemSet.from_ids(8, [0, 1, 2])
    b = ElemSet.from_ids(8, [2, 3])
    assert (a & b).members == (2,)
    assert (a | b).members == (0, 1, 2, 3)
    assert (a - b).members == (0, 1)
    assert b.issubset(a | b)
    assert not a.issubset(b)
    assert ElemSet.empty(8) <= a < ElemSet.full(8)


def test_universe_mismatch():
    with pytest.raises(ValueError, match="different universes"):
        ElemSet.full(4) & ElemSet.full(5)


def test_contains_and_bool():
    s = ElemSet.from_ids(6, [2])
    assert 2 in s and 3 not in s and -1 not in s and 6 not in s
    assert s and not ElemSet.empty(6)


def test_equality_and_hash():
    a = ElemSet.from_ids(6, [1, 4])
    b = ElemSet(6, mask_from_ids([1, 4]))
    assert a == b and hash(a) == hash(b)
    assert a != ElemSet.from_ids(7, [1, 4])
    # Subgroup with the same members compares equal as a set
    assert a == Subgroup(6, a.mask)


def test_repr_truncates():
    small = ElemSet.from_ids(4, [0, 2])
    assert repr(small) == "ElemSet(4, {0,2})"
    big = ElemSet.full(40)
    assert "(40 total)" in repr(big)
