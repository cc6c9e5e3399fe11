"""Edge cases that do not fit the main module test files: associativity
validation above order 512, poset guards, and concurrent reads."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import centra as c
from test_groups import NONASSOC_LATIN_5, assert_rejects_missing_product_or_inverse


class TestSampledAssociativity:
    def test_order_625_nonassociative_table_rejected(self):
        """A latin square built as (5-element loop) x C125, with identity and
        inverses, is rejected by the exact associativity test."""
        loop = np.array(NONASSOC_LATIN_5, dtype=np.int64)
        m = 125
        cyc = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
        # id (l, a) -> l*m + a; componentwise operation
        table = (loop[:, None, :, None] * m + cyc[None, :, None, :]).reshape(625, 625)
        with pytest.raises(c.GroupTableError) as exc:
            c.Group(table)
        assert exc.value.law == "associativity"

    def test_order_625_valid_group_accepted(self):
        G = c.direct_product(
            c.builtin_group("cyclic", 5), c.builtin_group("cyclic", 125)
        )
        assert G.order == 625 and G.is_abelian


class TestMoebiusGuard:
    def test_no_unique_minimum_rejected(self, d8):
        """A CenterPoset whose minimum is claimed to be its top node; built
        afresh, so D8's shared poset keeps its mu."""
        shared = c.center_poset(d8)
        masks = [node.mask for node in shared.nodes]
        poset = c.CenterPoset(d8, masks)
        poset.min_index = len(poset.nodes) - 1
        with pytest.raises(ValueError, match="unique minimal"):
            c.moebius(poset)


class TestExportDotGuards:
    def test_unknown_object_type(self):
        with pytest.raises(TypeError):
            c.export_dot(object())

    def test_mu_on_group_graph_rejected(self, d8):
        poset = c.center_poset(d8)
        with pytest.raises(ValueError):
            c.export_dot(c.commuting_graph(d8), c.moebius(poset))


class TestConcurrentReads:
    def test_parallel_queries_agree(self, fleet):
        G = fleet["D8xD8"]

        def work(seed):
            lat = c.build_lattice(G)
            part = c.z_star_partition(G)
            return (
                tuple(n.mask for n in lat.nodes),
                tuple(cl.members.mask for cl in part),
                c.centralizer(G, [seed % G.order]).mask,
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16)))
        lattices = {r[0] for r in results}
        partitions = {r[1] for r in results}
        assert len(lattices) == 1 and len(partitions) == 1


@pytest.fixture(scope="module")
def big(ut43xc3):
    return ut43xc3


class TestOrder2187Scale:
    """Full pipeline at order 3^7 on a directly constructible 3-group,
    UT(4,3) x C3."""

    def test_structure(self, big):
        assert big.order == 3**7
        assert c.p_group_prime(big.order) == 3
        assert not c.is_f_group(big)

    def test_is_subgroup_rejects_missing_product_or_inverse(self, big):
        assert_rejects_missing_product_or_inverse(big)

    def test_congruences_hold(self, big):
        assert c.check_class_size_congruence(big).ok
        assert c.check_mob_sums(big).ok

    def test_partition_theorem_all_nodes(self, big):
        classes = c.z_star_partition(big)
        lat = c.build_lattice(big)
        for node in lat.nodes:
            union = 0
            for cl in classes:
                if cl.ecenter.issubset(node):
                    assert union & cl.members.mask == 0
                    union |= cl.members.mask
            assert union == node.mask

    def test_moebius_values_and_graph_residues(self, big):
        poset = c.center_poset(big)
        table = c.moebius(poset)
        assert set(table.mu) == {-1, 0, 1, 3}
        residues = {d % 3 for d in c.centralizer_graph(big).degrees()}
        assert len(residues) > 1  # non-F with mixed residues

    def test_degree_formulas_and_quotient(self, big):
        z = len(big.center)
        com = c.commuting_graph(big)
        for x, deg in zip(com.vertex_ids, com.degrees()):
            assert deg == big.cent_masks[x].bit_count() - z - 1
        assert c.quotient_consistency(big)

    def test_table_roundtrip_at_scale(self, big, tmp_path):
        import numpy as np

        path = tmp_path / "big.tbl"
        path.write_text(c.cayley_table_text(big))
        G2 = c.group_from_cayley_table(path)
        assert np.array_equal(G2.table, big.table)
        assert G2.labels == big.labels


class TestSingleEntryCorruption:
    def test_any_single_corruption_is_rejected(self, d8, q8):
        import random

        rng = random.Random(7)
        for G in (d8, q8):
            for _ in range(25):
                table = G.table.copy()
                a = rng.randrange(1, G.order)
                b = rng.randrange(1, G.order)
                old = table[a, b]
                table[a, b] = (old + 1 + rng.randrange(G.order - 1)) % G.order
                if table[a, b] == old:
                    continue
                with pytest.raises(c.GroupTableError):
                    c.Group(table)

    def test_relabeling_still_validates(self, d8):
        import random

        rng = random.Random(9)
        sigma = [0] + rng.sample(range(1, d8.order), d8.order - 1)
        table = d8.table
        relabeled = [[0] * d8.order for _ in range(d8.order)]
        for a in range(d8.order):
            for b in range(d8.order):
                relabeled[sigma[a]][sigma[b]] = sigma[table[a, b]]
        G = c.Group(relabeled)  # isomorphic copy passes every law
        assert G.order == 8 and not G.is_abelian


class TestGeneratedSubgroupRandomLawsAboveEight:
    def test_closure_axioms_random(self, fleet):
        import random

        rng = random.Random(11)
        for key in ("H3", "D8xD8", "H5"):
            G = fleet[key]
            for _ in range(30):
                s_ids = rng.sample(range(G.order), rng.randint(0, 5))
                t_ids = sorted(set(s_ids) | set(rng.sample(range(G.order), 2)))
                gs = c.subgroup_generated_by(G, s_ids)
                gt = c.subgroup_generated_by(G, t_ids)
                assert all(x in gs for x in s_ids)
                assert gs.issubset(gt)
                assert c.subgroup_generated_by(G, gs) == gs
