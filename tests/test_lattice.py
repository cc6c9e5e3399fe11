import random

import pytest

import centra as c
from conftest import (
    ORDER_FLEET,
    by_label,
    former_bit_string_key,
    former_node_sort_key,
    former_transversal_error,
    label_set,
    leq_covers,
    leq_up_sets,
    naive_centralizer,
    naive_u_star,
    node_leq,
    pairwise_lattice_masks,
    unitriangular,
    worklist_lattice_masks,
)
from centra.lattice import _sorted_masks
from centra.sets import ids_from_mask


def node_labels(G, obj):
    return [c.subgroup_label(G, n) for n in obj.nodes]


class TestBuildLattice:
    def test_d8_five_bolded_subgroups(self, d8):
        lat = c.build_lattice(d8)
        assert node_labels(d8, lat) == ["<a^2>", "<a>", "<a^2,b>", "<a^2,ab>", "D8"]

    def test_abelian_single_node(self):
        G = c.builtin_group("cyclic", 6)
        lat = c.build_lattice(G)
        assert len(lat.nodes) == 1 and lat.top == lat.bottom == 0

    def test_s3_six_nodes(self, s3):
        lat = c.build_lattice(s3)
        assert node_labels(s3, lat) == [
            "1", "<(2,3)>", "<(1,2)>", "<(1,3)>", "<(1,2,3)>", "S3",
        ]

    def test_powerset_oracle(self, small_groups, s3):
        groups = [G for G in small_groups.values() if G.order <= 12] + [
            c.builtin_group("cyclic", 9),
            c.builtin_group("dihedral", 10),
            c.builtin_group("dihedral", 12),
            c.group_from_generators(
                [c.parse_cycle_notation("(1,2,3)", 4), c.parse_cycle_notation("(1,2)(3,4)", 4)],
                name="A4",
            ),
            c.direct_product(s3, c.builtin_group("cyclic", 2)),
        ]
        for G in groups:
            lat = c.build_lattice(G)
            seen = set()
            for m in range(1 << G.order):
                cm = naive_centralizer(G, ids_from_mask(m))
                mask = 0
                for x in cm:
                    mask |= 1 << x
                seen.add(mask)
            assert seen == {n.mask for n in lat.nodes}

    @pytest.mark.parametrize("name", ORDER_FLEET)
    def test_matches_pairwise_closure(self, order_fleet, name):
        G = order_fleet[name]
        assert {n.mask for n in c.build_lattice(G).nodes} == pairwise_lattice_masks(G)

    @pytest.mark.parametrize("name", ORDER_FLEET + ("UT4_3xC3", "D8xS3", "UT5_2"))
    def test_matches_worklist_closure(self, order_fleet, ut43xc3, d8, s3, name):
        extra = {
            "UT4_3xC3": lambda: ut43xc3,
            "D8xS3": lambda: c.direct_product(d8, s3),
            "UT5_2": lambda: unitriangular(5, 2),
        }
        G = extra[name]() if name in extra else order_fleet[name]
        masks = {n.mask for n in c.build_lattice(G).nodes}
        assert masks == worklist_lattice_masks(G)
        if name == "UT5_2":
            assert G.order == 1024 and len(masks) == 3885

    def test_nodes_are_fixed_points(self, fleet):
        for G in fleet.values():
            for node in c.build_lattice(G).nodes:
                assert c.closure(G, node) == node

    def test_top_and_bottom(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            assert lat.nodes[lat.top].mask == G.full_mask
            assert lat.nodes[lat.bottom] == G.center


class TestDuality:
    def test_involution_and_order_reversing(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            k = len(lat.nodes)
            assert sorted(lat.dual) == list(range(k))
            for i in range(k):
                assert lat.dual[lat.dual[i]] == i
                assert c.centralizer(G, lat.nodes[i]).mask == lat.nodes[lat.dual[i]].mask
            for i in range(k):
                for j in range(k):
                    assert node_leq(lat, i, j) == node_leq(lat, lat.dual[j], lat.dual[i])

    def test_node_self_duality(self, fleet):
        # C(C(H)) = H for every lattice node
        for G in fleet.values():
            for node in c.build_lattice(G).nodes:
                assert c.centralizer(G, c.centralizer(G, node)) == node


class TestMeetJoin:
    def test_d8_meet(self, d8):
        lat = c.build_lattice(d8)
        a_sub = c.subgroup_generated_by(d8, by_label(d8, "a"))
        b_sub = c.closure(d8, by_label(d8, "b"))
        assert label_set(d8, lat.meet(a_sub, b_sub)) == {"1", "a^2"}

    def test_meet_with_top_is_identity_map(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            top = lat.nodes[lat.top]
            for node in lat.nodes:
                assert lat.meet(node, top) == node
                assert lat.join(node, lat.nodes[lat.bottom]) == node

    def test_s3_transposition_meet_trivial(self, s3):
        lat = c.build_lattice(s3)
        h12 = c.centralizer(s3, by_label(s3, "(1,2)"))
        h13 = c.centralizer(s3, by_label(s3, "(1,3)"))
        assert lat.meet(h12, h13).members == (0,)

    def test_s4_join_exceeds_generated_subgroup(self, s4):
        lat = c.build_lattice(s4)
        H = c.centralizer(s4, by_label(s4, "(1,2,3)"))
        K = c.centralizer(s4, by_label(s4, "(1,2)(3,4)", "(1,3)(2,4)"))
        join = lat.join(H, K)
        assert join.mask == s4.full_mask
        assert len(c.subgroup_generated_by(s4, H | K)) == 12

    def test_d8_join_to_top(self, d8):
        lat = c.build_lattice(d8)
        H = c.closure(d8, by_label(d8, "b"))
        K = c.subgroup_generated_by(d8, by_label(d8, "a"))
        assert lat.join(H, K).mask == d8.full_mask

    def test_join_is_least_upper_bound(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            for H in lat.nodes:
                for K in lat.nodes:
                    join = lat.join(H, K)
                    expected = G.full_mask
                    for other in lat.nodes:
                        if (H.mask | K.mask) & ~other.mask == 0:
                            expected &= other.mask
                    assert join.mask == expected

    def test_join_via_dual_representation(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            for i, H in enumerate(lat.nodes):
                for j, K in enumerate(lat.nodes):
                    A = lat.nodes[lat.dual[i]]
                    B = lat.nodes[lat.dual[j]]
                    assert lat.join(H, K) == c.centralizer(G, A & B)

    def test_not_a_node_rejected(self, d8):
        lat = c.build_lattice(d8)
        offnode = c.subgroup_generated_by(d8, by_label(d8, "b"))
        with pytest.raises(ValueError, match="not a lattice node"):
            lat.meet(offnode, lat.nodes[0])
        with pytest.raises(ValueError, match="not a lattice node"):
            lat.join(offnode, lat.nodes[0])

    def test_index_access(self, d8):
        lat = c.build_lattice(d8)
        assert lat.meet(1, 2) == lat.meet(lat.nodes[1], lat.nodes[2])
        with pytest.raises(ValueError, match="out of range"):
            lat.meet(99, 0)
        poset = c.center_poset(d8)
        assert poset.index_of(poset.nodes[2]) == 2
        with pytest.raises(ValueError, match="not a poset node"):
            poset.index_of(c.subgroup_generated_by(d8, by_label(d8, "b")))


class TestCenterPoset:
    def test_d8_antichain_over_center(self, d8):
        poset = c.center_poset(d8)
        assert node_labels(d8, poset) == ["<a^2>", "<a>", "<a^2,b>", "<a^2,ab>"]
        assert poset.min_index == 0
        assert poset.class_sizes == (2, 2, 2, 2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert node_leq(poset, i, j) == (i == j)

    def test_q8(self, q8):
        poset = c.center_poset(q8)
        assert node_labels(q8, poset) == ["<-1>", "<i>", "<j>", "<k>"]

    def test_abelian_single_node(self):
        G = c.builtin_group("cyclic", 4)
        poset = c.center_poset(G)
        assert len(poset.nodes) == 1
        assert poset.class_sizes == (4,)

    def test_nodes_are_abelian_and_min_is_center(self, fleet):
        for G in fleet.values():
            poset = c.center_poset(G)
            assert poset.nodes[poset.min_index] == G.center
            for i, node in enumerate(poset.nodes):
                assert c.is_abelian_subset(G, node)
                assert node_leq(poset, poset.min_index, i)

    def test_node_set_is_element_centers(self, fleet):
        for G in fleet.values():
            poset = c.center_poset(G)
            expected = {c.element_center(G, g).mask for g in range(G.order)}
            assert expected == {n.mask for n in poset.nodes}

    def test_class_sizes_sum_to_order(self, fleet):
        for G in fleet.values():
            assert sum(c.center_poset(G).class_sizes) == G.order


class TestFGroup:
    def test_d8_true(self, d8):
        assert c.is_f_group(d8)
        assert c.f_group_chain_witness(d8) is None

    def test_d8xd8_false_with_witness(self, fleet):
        G = fleet["D8xD8"]
        assert not c.is_f_group(G)
        x, y = c.f_group_chain_witness(G)
        cx, cy = G.cent_masks[x], G.cent_masks[y]
        assert cx != cy and cx & ~cy == 0

    def test_abelian_vacuously_true(self):
        assert c.is_f_group(c.builtin_group("cyclic", 9))

    def test_fleet_f_statuses(self, fleet):
        expected = {
            "D8": True, "Q8": True, "D16": True, "H3": True, "H5": True,
            "D8xC2": True, "D8xD8": False, "H3xH3": False, "UT4_2": False,
        }
        assert {k: c.is_f_group(G) for k, G in fleet.items()} == expected


class TestHasse:
    def test_d8_lattice_edges(self, d8):
        lat = c.build_lattice(d8)
        names = node_labels(d8, lat)
        edges = {(names[i], names[j]) for i, j in c.hasse_edges(lat)}
        assert edges == {
            ("<a^2>", "<a>"),
            ("<a^2>", "<a^2,b>"),
            ("<a^2>", "<a^2,ab>"),
            ("<a>", "D8"),
            ("<a^2,b>", "D8"),
            ("<a^2,ab>", "D8"),
        }

    def test_two_node_chain(self, s3):
        c2 = c.builtin_group("cyclic", 2)  # a lattice holds its group weakly
        lat = c.build_lattice(c2)
        assert len(lat.nodes) == 1 and c.hasse_edges(lat) == ()
        # a poset that is a genuine 2-chain: S3's poset is {1} under A3 and the <(i,j)>s
        poset = c.center_poset(s3)
        assert len(c.hasse_edges(poset)) == len(poset.nodes) - 1

    def test_q8_poset_edges(self, q8):
        poset = c.center_poset(q8)
        assert c.hasse_edges(poset) == ((0, 1), (0, 2), (0, 3))

    def test_covers_have_nothing_between(self, fleet):
        for G in fleet.values():
            lat = c.build_lattice(G)
            for i, j in c.hasse_edges(lat):
                assert node_leq(lat, i, j) and i != j
                for k in range(len(lat.nodes)):
                    if k not in (i, j):
                        assert not (node_leq(lat, i, k) and node_leq(lat, k, j))


class TestOrderMasks:
    """Up-sets and covers against ``node_leq``, one pair at a time."""

    @pytest.mark.parametrize("kind", ["lattice", "poset"])
    @pytest.mark.parametrize("name", ORDER_FLEET)
    def test_match_leq(self, order_fleet, name, kind):
        G = order_fleet[name]
        obj = c.build_lattice(G) if kind == "lattice" else c.center_poset(G)
        assert list(obj.above) == leq_up_sets(obj)
        assert list(c.hasse_edges(obj)) == leq_covers(obj)


class TestNodeOrder:
    """Nodes by size, then by ascending member list, as the former key that
    listed every member id sorted them."""

    @pytest.mark.parametrize("kind", ["lattice", "poset"])
    @pytest.mark.parametrize("name", ORDER_FLEET + ("UT4_3xC3",))
    def test_matches_member_list_key(self, order_fleet, ut43xc3, name, kind):
        G = ut43xc3 if name == "UT4_3xC3" else order_fleet[name]
        obj = c.build_lattice(G) if kind == "lattice" else c.center_poset(G)
        masks = [node.mask for node in obj.nodes]
        assert masks == sorted(masks, key=former_node_sort_key)

    @pytest.mark.parametrize("order", [1, 7, 8, 9, 13, 64, 65])
    def test_byte_key_matches_bit_string_key(self, order):
        rng = random.Random(order)
        full = (1 << order) - 1
        masks = {rng.getrandbits(order) for _ in range(300)}
        # Same-size masks, with long shared prefixes and suffixes, and the extremes.
        masks |= {full ^ (1 << i) for i in range(order)} | {1 << i for i in range(order)} | {0, full}
        masks |= {m & ~(full >> (order // 2)) for m in list(masks)}
        assert _sorted_masks(order, masks) == sorted(masks, key=former_bit_string_key(order))

    def test_all_subgroups_match_member_list_key(self, small_groups):
        for G in small_groups.values():
            masks = [H.mask for H in c.all_subgroups(G)]
            assert masks == sorted(masks, key=former_node_sort_key)


class TestUStar:
    @pytest.mark.parametrize("name", ORDER_FLEET)
    def test_matches_definition_on_every_node(self, order_fleet, name):
        G = order_fleet[name]
        lat = c.build_lattice(G)
        X = c.class_transversal(G)
        largest = sorted(cl.members.members[-1] for cl in c.z_star_partition(G))  # another transversal
        cents = {}
        for i, node in enumerate(lat.nodes):
            expected = tuple(naive_u_star(G, node, X, cents))
            assert c.u_star(G, node, X).members == expected
            assert lat.ustar[i].members == expected
            assert c.u_star(G, node, largest).members == tuple(naive_u_star(G, node, largest, cents))

    @pytest.mark.parametrize("name", ORDER_FLEET)
    def test_bad_transversal_messages(self, order_fleet, name):
        G = order_fleet[name]
        T = list(c.class_transversal(G))
        bad = []
        for cl in c.z_star_partition(G):
            bad.append([x for x in T if x != cl.representative])  # misses the class
            if len(cl.members) > 1:
                bad.append(T + [cl.members.members[-1]])  # two of the class
        rng = random.Random(name)
        for _ in range(30):
            bad.append(rng.sample(range(G.order), rng.randint(0, G.order)))
        H = c.build_lattice(G).nodes[-1]
        for X in bad:
            message = former_transversal_error(G, X)
            if message is None:
                continue
            with pytest.raises(ValueError) as err:
                c.u_star(G, H, X)
            assert str(err.value) == message


class TestUStarIntersectionLaw:
    def test_exhaustive_node_pairs(self, fleet):
        for name, G in fleet.items():
            if G.order > 64:
                continue
            lat = c.build_lattice(G)
            X = c.class_transversal(G)
            for H in lat.nodes:
                for K in lat.nodes:
                    lhs = c.u_star(G, lat.join(H, K), X).mask
                    rhs = c.u_star(G, H, X).mask & c.u_star(G, K, X).mask
                    assert lhs == rhs, (name, c.subgroup_label(G, H), c.subgroup_label(G, K))


class TestAllSubgroups:
    def test_d8_has_ten(self, d8):
        subs = c.all_subgroups(d8)
        assert len(subs) == 10
        assert {len(s) for s in subs} == {1, 2, 4, 8}

    def test_s3_has_six(self, s3):
        assert len(c.all_subgroups(s3)) == 6

    def test_q8_has_six(self, q8):
        assert len(c.all_subgroups(q8)) == 6

    def test_every_result_is_subgroup(self, d8):
        for H in c.all_subgroups(d8):
            assert c.is_subgroup(d8, H)

    def test_order_limit(self, fleet):
        with pytest.raises(ValueError, match="limited"):
            c.all_subgroups(fleet["H3xH3"])
