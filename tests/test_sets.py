import random

import numpy as np
import pytest

from centra.sets import ElemSet, Subgroup, ids_from_mask
from conftest import mask_from_ids


def test_mask_roundtrip():
    ids = (0, 3, 5, 11)
    s = ElemSet.from_ids(12, ids)
    assert s.mask == 0b100000101001
    assert ids_from_mask(s.mask) == ids
    assert ElemSet.from_ids(12, ids_from_mask(s.mask)) == s


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 64, 200])
@pytest.mark.parametrize("universe", [40, 64, 65, 2187])
def test_ids_from_mask_either_side_of_the_loop_bound(size, universe):
    # Up to 32 set bits the bit loop lists them, above it numpy; both must
    # give every id once, ascending, as Python ints, ending at any bit.
    k = min(size, universe)
    rng = random.Random(size * universe)
    for ids in (sorted(rng.sample(range(universe), k)), list(range(universe - k, universe))):
        got = ids_from_mask(mask_from_ids(ids))
        assert got == tuple(ids) and all(type(i) is int for i in got)


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


@pytest.mark.parametrize("ids,bad", [
    ([1, -2, 3], -2),     # negative
    ([2, 4, -1], 4),      # equal to the order; the first bad id in input order is named
    ([0, 9, 4], 9),
])
def test_out_of_range_message_names_first_bad_id(ids, bad):
    message = f"element id {bad} out of range for universe of order 4"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ElemSet.from_ids(4, ids)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ElemSet.from_ids(4, np.array(ids))


def test_generator_input_read_once():
    reads = []

    def ids():
        for i in (5, 0, 11, 3, 5):
            reads.append(i)
            yield i

    assert ElemSet.from_ids(12, ids()).members == (0, 3, 5, 11)
    assert reads == [5, 0, 11, 3, 5]
    with pytest.raises(ValueError, match="element id 12 out"):
        ElemSet.from_ids(12, (i for i in (1, 12, -1)))


def test_numpy_ids_accepted():
    ids = np.array([3, 70, 99, 0], dtype=np.int64)
    expected = (0, 3, 70, 99)
    assert ElemSet.from_ids(100, ids).members == expected
    assert ElemSet.from_ids(100, ids.astype(np.uint16)).members == expected
    assert ElemSet.from_ids(100, list(ids)).members == expected  # numpy scalars in a list
    assert ElemSet.from_ids(100, [1 << 6, np.int64(99)]).members == (64, 99)
    assert ElemSet.from_ids(100, np.array([], dtype=np.int64)) == ElemSet(100)


def test_huge_id_refused():
    with pytest.raises(ValueError, match=f"element id {10**30} out of range"):
        ElemSet.from_ids(8, [1, 10**30])


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
    assert ElemSet(8) <= a < ElemSet(8, (1 << 8) - 1)


def test_universe_mismatch():
    with pytest.raises(ValueError, match="different universes"):
        ElemSet(4, (1 << 4) - 1) & ElemSet(5, (1 << 5) - 1)


def test_contains_and_bool():
    s = ElemSet.from_ids(6, [2])
    assert 2 in s and 3 not in s and -1 not in s and 6 not in s
    assert s and not ElemSet(6)


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
    big = ElemSet(40, (1 << 40) - 1)
    assert "(40 total)" in repr(big)
