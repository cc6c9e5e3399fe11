import random
import re

import pytest

import centra as c
from conftest import (
    FlippedCentMasks,
    by_label,
    former_centralizer_mask,
    former_z_star_partition,
    label_set,
    naive_abelian_subset,
    naive_centralizer,
    naive_closure,
    mask_from_ids,
)
from centra.sets import ids_from_mask


class TestCentralizer:
    def test_s4_three_cycle(self, s4):
        H = c.centralizer(s4, by_label(s4, "(1,2,3)"))
        assert label_set(s4, H) == {"1", "(1,2,3)", "(1,3,2)"}

    def test_empty_set_gives_whole_group(self, fleet):
        for G in fleet.values():
            assert c.centralizer(G, []).mask == G.full_mask

    def test_s4_klein_pair(self, s4):
        H = c.centralizer(s4, by_label(s4, "(1,2)(3,4)", "(1,3)(2,4)"))
        assert label_set(s4, H) == {"1", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}

    def test_matches_naive_oracle(self, small_groups):
        for G in small_groups.values():
            n = G.order
            for m in range(1 << n):
                ids = ids_from_mask(m)
                assert set(c.centralizer(G, ids)) == naive_centralizer(G, ids)

    def test_result_is_subgroup(self, fleet):
        import random

        rng = random.Random(3)
        for G in fleet.values():
            for _ in range(15):
                ids = rng.sample(range(G.order), rng.randint(0, G.order // 2))
                assert c.is_subgroup(G, c.centralizer(G, ids))


class TestCentralizerMask:
    def test_matches_naive_oracle_on_power_sets(self, small_groups):
        for G in small_groups.values():
            for m in range(1 << G.order):
                expected = mask_from_ids(naive_centralizer(G, ids_from_mask(m)))
                assert c.centralizer_mask(G, m) == expected

    @pytest.mark.parametrize("key", ["H3", "D16"])
    def test_matches_naive_oracle_on_random_masks(self, key, fleet):
        G = fleet[key]
        n = G.order
        rng = random.Random(2000)
        for _ in range(2000):
            ids = rng.sample(range(n), rng.randint(0, n))
            assert c.centralizer_mask(G, mask_from_ids(ids)) == mask_from_ids(naive_centralizer(G, ids))

    def test_empty_mask_gives_whole_group(self, fleet):
        for G in fleet.values():
            assert c.centralizer_mask(G, 0) == G.full_mask

    def test_rejects_bits_outside_group(self, d8):
        for bad in (1 << 8, -1):
            with pytest.raises(ValueError, match="outside"):
                c.centralizer_mask(d8, bad)


class CountedMasks(tuple):
    """A tuple of centralizer masks that counts its indexed reads."""

    reads = 0

    def __getitem__(self, g):
        type(self).reads += 1
        return super().__getitem__(g)


class CountedCentMasks(c.Group):
    """A copy of a group whose ``cent_masks`` count the masks read by index."""

    def __init__(self, G):
        super().__init__(G.table, G.labels, G.name)
        self.cent_masks = CountedMasks(G.cent_masks)


def random_band_masks(G, rng, count=500):
    """``count`` random masks in each size band: up to 8 ids, up to 64, up to
    half of G, and above half."""
    n = G.order
    for lo, hi in ((1, 8), (9, 64), (65, n // 2), (n // 2 + 1, n)):
        for _ in range(count):
            yield mask_from_ids(rng.sample(range(n), rng.randint(lo, hi)))


class TestClassKernel:
    """``centralizer_mask`` ANDs one centralizer per Z*-class it meets: the
    same masks as the former one-AND-per-member loop, for any ``cent_masks``."""

    def test_matches_former_loop_on_small_groups(self, small_groups):
        for G in small_groups.values():
            for m in range(1 << G.order):
                assert c.centralizer_mask(G, m) == former_centralizer_mask(G, m), (G.name, m)

    def test_matches_former_loop_on_flipped_d8(self, d8):
        for g in range(d8.order):
            for h in range(d8.order):
                bad = FlippedCentMasks(d8, g, h)
                for m in range(1 << d8.order):
                    assert c.centralizer_mask(bad, m) == former_centralizer_mask(bad, m), (g, h, m)

    def test_abelian_subset_matches_member_loop_on_flipped_d8(self, d8):
        for g in range(d8.order):
            for h in range(d8.order):
                bad = FlippedCentMasks(d8, g, h)
                for m in range(1 << d8.order):
                    members = ids_from_mask(m)
                    expected = all(m & ~bad.cent_masks[x] == 0 for x in members)
                    assert c.is_abelian_subset(bad, members) == expected, (g, h, m)

    @pytest.mark.parametrize("key", ["H3xH3", "UT43xC3", "S6"])
    def test_matches_former_loop_on_large_groups(self, key, fleet, ut43xc3, order_fleet):
        G = {"H3xH3": fleet["H3xH3"], "UT43xC3": ut43xc3, "S6": order_fleet["S6"]}[key]
        masks = [node.mask for node in c.build_lattice(G).nodes]
        for cl in c.z_star_partition(G):
            masks += [cl.cent.mask, cl.ecenter.mask]
        masks += random_band_masks(G, random.Random(12))
        for m in masks:
            assert c.centralizer_mask(G, m) == former_centralizer_mask(G, m)

    def test_one_read_per_class_met(self, h3):
        G = CountedCentMasks(h3)
        G.center, G._zstar_buckets  # built before counting
        classes = c.z_star_partition(G)
        for cl in classes:
            CountedMasks.reads = 0
            assert c.centralizer_mask(G, cl.members.mask) == cl.cent.mask
            assert CountedMasks.reads == 1
        for node in c.build_lattice(G).nodes:
            CountedMasks.reads = 0
            c.centralizer_mask(G, node.mask)
            met = sum(1 for cl in classes if cl.members.mask & node.mask)
            assert CountedMasks.reads <= met

    def test_same_errors_as_former_loop(self, fleet):
        for G in (fleet["D8"], fleet["H3xH3"]):
            for bad in (-1, -(1 << G.order), 1 << G.order, G.full_mask + 1, 1 << (G.order + 70)):
                with pytest.raises(ValueError) as former:
                    former_centralizer_mask(G, bad)
                with pytest.raises(ValueError, match=f"^{re.escape(str(former.value))}$"):
                    c.centralizer_mask(G, bad)

    def test_partition_unchanged(self, order_fleet, small_groups, d8):
        flips = [FlippedCentMasks(d8, g, h) for g in range(d8.order) for h in range(d8.order)]
        groups = [*order_fleet.values(), *small_groups.values(), *flips]
        for G in groups:
            classes = [(cl.representative, cl.members.mask, cl.cent.mask, cl.ecenter.mask)
                       for cl in c.z_star_partition(G)]
            assert classes == former_z_star_partition(G), G.name


class TestClosure:
    def test_d8_reflection_subgroup(self, d8):
        b_sub = c.subgroup_generated_by(d8, by_label(d8, "b"))
        assert label_set(d8, c.closure(d8, b_sub)) == {"1", "a^2", "b", "a^2b"}

    def test_d8_center_is_fixed_point(self, d8):
        z = c.subgroup_generated_by(d8, by_label(d8, "a^2"))
        assert c.closure(d8, z) == z

    def test_abelian_closure_is_group(self):
        G = c.builtin_group("cyclic", 6)
        for S in ([], [1], [2, 3]):
            assert c.closure(G, S).mask == G.full_mask

    def test_matches_naive_oracle(self, small_groups):
        for name, G in small_groups.items():
            n = G.order
            if n > 6:
                continue
            for m in range(1 << n):
                ids = ids_from_mask(m)
                assert set(c.closure(G, ids)) == naive_closure(G, ids)


class TestElementCenter:
    """The element center Z(g) = C_G(C_G(g)) is ``closure(G, [g])``, and the
    ``ecenter`` of g's Z*-class."""

    def test_q8_i(self, q8):
        (i,) = by_label(q8, "i")
        assert label_set(q8, c.closure(q8, [i])) == {"1", "-1", "i", "-i"}

    def test_central_element_gives_center(self, fleet):
        for G in fleet.values():
            for z in G.center:
                assert c.closure(G, [z]) == G.center

    def test_d8_b(self, d8):
        (b,) = by_label(d8, "b")
        assert label_set(d8, c.closure(d8, [b])) == {"1", "a^2", "b", "a^2b"}
        # C(b) is abelian here, so Z(b) = C(b)
        assert c.closure(d8, [b]) == c.centralizer(d8, [b])

    def test_always_abelian_and_center_of_centralizer(self, fleet):
        for G in fleet.values():
            ecenter = {g: cl.ecenter for cl in c.z_star_partition(G) for g in cl.members}
            for g in range(G.order):
                Z = c.closure(G, [g])
                assert Z == ecenter[g]
                assert c.is_abelian_subset(G, Z)
                cent = c.centralizer(G, [g])
                zc = {x for x in cent if all(G.table[x, y] == G.table[y, x] for y in cent)}
                assert set(Z) == zc


class TestZStarPartition:
    def test_d8_classes(self, d8):
        classes = c.z_star_partition(d8)
        assert [label_set(d8, cl.members) for cl in classes] == [
            {"1", "a^2"},
            {"a", "a^3"},
            {"b", "a^2b"},
            {"ab", "a^3b"},
        ]

    def test_abelian_single_class(self):
        G = c.builtin_group("cyclic", 7)
        classes = c.z_star_partition(G)
        assert len(classes) == 1 and classes[0].members.mask == G.full_mask

    def test_q8_classes(self, q8):
        classes = c.z_star_partition(q8)
        assert [label_set(q8, cl.members) for cl in classes] == [
            {"1", "-1"},
            {"i", "-i"},
            {"j", "-j"},
            {"k", "-k"},
        ]

    def test_class_invariants(self, fleet):
        for G in fleet.values():
            union = 0
            for cl in c.z_star_partition(G):
                assert union & cl.members.mask == 0
                union |= cl.members.mask
                assert cl.representative == cl.members.members[0]
                for m in cl.members:
                    assert c.centralizer(G, [m]) == cl.cent
                assert cl.members.issubset(cl.ecenter)
                assert cl.ecenter == c.closure(G, [cl.representative])
                assert c.is_abelian_subset(G, cl.ecenter)
                assert len(cl.members) % len(G.center) == 0
            assert union == G.full_mask

    def test_central_class_is_center(self, fleet):
        for G in fleet.values():
            classes = c.z_star_partition(G)
            assert classes[0].representative == 0
            assert classes[0].members.mask == G.center.mask


class TestUStar:
    def test_d8_examples(self, d8):
        X = c.class_transversal(d8)
        assert label_set(d8, X) == {"1", "a", "b", "ab"}
        H = c.closure(d8, by_label(d8, "b"))  # <a^2,b>
        u = c.u_star(d8, H, X)
        assert label_set(d8, u) == {"1", "b"}
        assert c.centralizer(d8, u) == H

    def test_whole_group_gives_central_rep(self, d8):
        X = c.class_transversal(d8)
        u = c.u_star(d8, c.Subgroup(d8.order, d8.full_mask), X)
        assert label_set(d8, u) == {"1"}

    def test_center_gives_all_of_x(self, d8):
        X = c.class_transversal(d8)
        u = c.u_star(d8, d8.center, X)
        assert u == X

    def test_recovers_h_on_all_lattice_nodes(self, fleet):
        for G in fleet.values():
            X = c.class_transversal(G)
            for node in c.build_lattice(G).nodes:
                assert c.centralizer(G, c.u_star(G, node, X)) == node

    def test_rejects_non_closed_h(self, d8):
        X = c.class_transversal(d8)
        H = c.subgroup_generated_by(d8, by_label(d8, "b"))  # {1, b}: not closed
        with pytest.raises(ValueError, match="not a centralizer"):
            c.u_star(d8, H, X)

    def test_rejects_bad_transversal(self, d8):
        H = c.closure(d8, by_label(d8, "b"))
        with pytest.raises(ValueError, match="transversal"):
            c.u_star(d8, H, [0, 1, 4])  # misses a class
        with pytest.raises(ValueError, match="two representatives"):
            c.u_star(d8, H, [0, 1, 2, 4, 5])  # 1 and a^2 share a class


class TestFiberSupremum:
    """The union of a centralizer fiber is the closure C(C(S))."""

    @pytest.mark.parametrize("key", ["D8", "S3"])
    def test_powerset_fiber_oracle(self, key, d8, s3):
        G = {"D8": d8, "S3": s3}[key]
        n = G.order
        fibers: dict[int, int] = {}
        for m in range(1 << n):
            cm = naive_centralizer(G, ids_from_mask(m))
            key_mask = 0
            for x in cm:
                key_mask |= 1 << x
            fibers[key_mask] = fibers.get(key_mask, 0) | m
        for cmask, union in fibers.items():
            assert c.closure(G, ids_from_mask(union)).mask == union
        # and every subset's supremum equals its fiber's union
        for m in range(1 << n):
            sup = c.closure(G, ids_from_mask(m)).mask
            cm = naive_centralizer(G, ids_from_mask(m))
            key_mask = 0
            for x in cm:
                key_mask |= 1 << x
            assert sup == fibers[key_mask]

    def test_abelian_returns_group(self):
        G = c.builtin_group("cyclic", 5)
        assert c.closure(G, [3]).mask == G.full_mask

    def test_s3_three_cycle(self, s3):
        (g,) = by_label(s3, "(1,2,3)")
        assert label_set(s3, c.closure(s3, [g])) == {"1", "(1,2,3)", "(1,3,2)"}


def generated_and_closed_abelian(G, S):
    """(is <S> abelian, is C_G(C_G(S)) abelian); the two always agree."""
    return (c.is_abelian_subset(G, c.subgroup_generated_by(G, S)),
            c.is_abelian_subset(G, c.closure(G, S)))


class TestClosedAbelianIff:
    def test_s4_cases(self, s4):
        g3 = by_label(s4, "(1,2,3)")
        assert generated_and_closed_abelian(s4, g3) == (True, True)
        two = by_label(s4, "(1,2)", "(1,3)")
        assert generated_and_closed_abelian(s4, two) == (False, False)

    def test_empty_set(self, fleet):
        for G in fleet.values():
            assert generated_and_closed_abelian(G, []) == (True, True)

    def test_booleans_always_agree(self, small_groups):
        from conftest import naive_generated

        for G in small_groups.values():
            n = G.order
            if n > 6:
                continue
            for m in range(1 << n):
                ids = ids_from_mask(m)
                a, b = generated_and_closed_abelian(G, ids)
                assert a == b
                assert a == naive_abelian_subset(G, sorted(naive_generated(G, ids)))

    def test_agreement_on_random_sets(self, fleet):
        import random

        rng = random.Random(5)
        for G in fleet.values():
            for _ in range(10):
                ids = rng.sample(range(G.order), rng.randint(0, 5))
                a, b = generated_and_closed_abelian(G, ids)
                assert a == b
