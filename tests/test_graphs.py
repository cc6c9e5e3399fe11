import tracemalloc

import pytest

import centra as c
from centra import graphs
from centra.moebius import p_group_prime
from conftest import (
    ORDER_FLEET,
    by_label,
    commutes,
    former_graph_dot,
    former_quotient_consistency,
    label_set,
    naive_centralizer_graph_edges,
    naive_degree_csv,
    naive_degrees,
    naive_graph_edges,
)

# What commuting_graph(H3xH3) keeps allocated: about 105 KB of adjacency masks
# and id tuples, where a tuple of its 37 224 edges held 2.4 MB.
HELD_BYTES_BOUND = 512 * 1024


class TestCommutingGraph:
    def test_d8_exact_edges(self, d8):
        g = c.commuting_graph(d8)
        assert g.vertex_count == 6
        assert g.labels == ("a", "a^3", "b", "ab", "a^2b", "a^3b")
        named = {(g.labels[i], g.labels[j]) for i, j in g.edges}
        assert named == {("a", "a^3"), ("b", "a^2b"), ("ab", "a^3b")}
        assert g.degrees() == (1, 1, 1, 1, 1, 1)

    def test_s3_degrees(self, s3):
        g = c.commuting_graph(s3)
        assert g.vertex_count == 5 and g.edge_count == 1
        degs = dict(zip(g.labels, g.degrees()))
        assert degs["(1,2,3)"] == 1 and degs["(1,2)"] == 0

    def test_q8(self, q8):
        g = c.commuting_graph(q8)
        assert g.vertex_count == 6
        assert g.degrees() == (1,) * 6

    def test_abelian_rejected(self):
        with pytest.raises(c.AbelianGroupError, match="abelian"):
            c.commuting_graph(c.builtin_group("cyclic", 6))

    def test_edges_match_commutation(self, fleet):
        for G in fleet.values():
            g = c.commuting_graph(G)
            adj = set(g.edges)
            for i, x in enumerate(g.vertex_ids):
                for j in range(i + 1, g.vertex_count):
                    y = g.vertex_ids[j]
                    assert ((i, j) in adj) == commutes(G, x, y)

    def test_degree_formula(self, fleet):
        for G in fleet.values():
            z = len(G.center)
            g = c.commuting_graph(G)
            for x, deg in zip(g.vertex_ids, g.degrees()):
                assert deg == len(c.centralizer(G, [x])) - z - 1

    def test_degrees_minus_one_mod_p(self, fleet):
        for G in fleet.values():
            p = p_group_prime(len(G.center))
            assert p is not None  # the whole fleet has nontrivial p-group centers
            for deg in c.commuting_graph(G).degrees():
                assert deg % p == (-1) % p


class TestTransversalGraph:
    def test_d8_default(self, d8):
        g = c.transversal_graph(d8)
        assert g.labels == ("a", "b", "ab")
        assert g.edge_count == 0
        assert g.degrees() == (0, 0, 0)

    def test_q8_default(self, q8):
        g = c.transversal_graph(q8)
        assert g.labels == ("i", "j", "k")
        assert g.degrees() == (0, 0, 0)

    def test_h3_degrees(self, h3):
        g = c.transversal_graph(h3)
        assert g.vertex_count == 8
        assert g.degrees() == (1,) * 8

    def test_supplied_transversal(self, d8):
        # {1, a^3, a^2b, a^3b} also hits each coset of Z(G) = {1, a^2} once
        T = by_label(d8, "1", "a^3", "a^2b", "a^3b")
        g = c.transversal_graph(d8, T)
        assert g.vertex_count == 3
        z = len(d8.center)
        for x, deg in zip(g.vertex_ids, g.degrees()):
            assert deg == len(c.centralizer(d8, [x])) // z - 2

    def test_invalid_transversal_rejected(self, d8):
        with pytest.raises(ValueError, match="transversal has"):
            c.transversal_graph(d8, [0, 1, 4])
        with pytest.raises(ValueError, match="duplicates"):
            c.transversal_graph(d8, [0, 2, 4, 5])  # 1 and a^2 share the center coset

    def test_default_is_minimal_per_coset(self, fleet):
        for G in fleet.values():
            T = c.default_transversal(G)
            assert len(T) == G.order // len(G.center)
            for t in T:
                coset = {G.mul(t, z) for z in G.center}
                assert t == min(coset)

    def test_degree_formula(self, fleet):
        for G in fleet.values():
            z = len(G.center)
            g = c.transversal_graph(G)
            for x, deg in zip(g.vertex_ids, g.degrees()):
                assert deg == len(c.centralizer(G, [x])) // z - 2

    def test_degrees_minus_two_mod_p(self, fleet):
        for G in fleet.values():
            p = p_group_prime(G.order // len(G.center))
            assert p is not None
            for deg in c.transversal_graph(G).degrees():
                assert deg % p == (-2) % p


class TestCentralizerGraph:
    def test_d8(self, d8):
        g = c.centralizer_graph(d8)
        assert g.labels == ("<a>", "<a^2,b>", "<a^2,ab>")
        assert g.edges == ()

    def test_q8(self, q8):
        g = c.centralizer_graph(q8)
        assert g.labels == ("<i>", "<j>", "<k>")
        assert g.edges == ()

    def test_h3_f_group_degrees(self, h3):
        g = c.centralizer_graph(h3)
        assert g.vertex_count == 4
        assert g.degrees() == (0, 0, 0, 0)  # 0 mod 3, per the F-group law

    def test_abelian_rejected(self):
        with pytest.raises(c.AbelianGroupError):
            c.centralizer_graph(c.builtin_group("cyclic", 9))

    def test_edge_rule_and_symmetry(self, fleet):
        for G in fleet.values():
            classes = [cl for cl in c.z_star_partition(G) if cl.cent.mask != G.full_mask]
            g = c.centralizer_graph(G)
            assert g.vertex_ids == tuple(cl.representative for cl in classes)
            adj = set(g.edges)
            for i, a in enumerate(classes):
                for j in range(i + 1, len(classes)):
                    b = classes[j]
                    expected = b.ecenter.issubset(a.cent)
                    assert expected == a.ecenter.issubset(b.cent)  # duality
                    assert ((i, j) in adj) == expected

    def test_f_group_degrees_zero_mod_p(self, fleet):
        for key, G in fleet.items():
            if not c.is_f_group(G):
                continue
            p = p_group_prime(G.order)
            for deg in c.centralizer_graph(G).degrees():
                assert deg % p == 0, key

    def test_nonuniform_residue_witness_exists_in_fleet(self, fleet):
        # The products D8xD8 and H3xH3 are non-F yet residue-uniform; UT4(2)
        # realizes the mixed-residue phenomenon at order 64.
        witnesses = []
        for key, G in fleet.items():
            if c.is_f_group(G):
                continue
            p = p_group_prime(G.order)
            residues = {deg % p for deg in c.centralizer_graph(G).degrees()}
            if len(residues) > 1:
                witnesses.append(key)
        assert "UT4_2" in witnesses

    def test_products_are_residue_uniform(self, fleet):
        for key in ("D8xD8", "H3xH3"):
            G = fleet[key]
            p = p_group_prime(G.order)
            residues = {deg % p for deg in c.centralizer_graph(G).degrees()}
            assert len(residues) == 1


class TestQuotientConsistency:
    @pytest.mark.parametrize("key", ["D8", "Q8", "D8xD8"])
    def test_named_groups(self, fleet, key):
        assert c.quotient_consistency(fleet[key])

    def test_whole_fleet(self, fleet):
        flagged = [key for key, G in fleet.items() if not c.quotient_consistency(G)]
        assert flagged == []

    def test_nonabelian_non_p_groups_too(self, s3, s4):
        assert c.quotient_consistency(s3)
        assert c.quotient_consistency(s4)

    def test_abelian_rejected(self):
        with pytest.raises(c.AbelianGroupError):
            c.quotient_consistency(c.builtin_group("cyclic", 4))


class TestDotExport:
    def test_empty_graph(self, s3):
        g = c.GroupGraph(kind="commuting", vertex_ids=(), labels=(), adjacency=())
        text = c.export_dot(g)
        assert text == "graph commuting {\n}\n"

    def test_d8_lattice_golden(self, d8):
        text = c.export_dot(c.build_lattice(d8))
        assert text == (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="<a^2>"];\n'
            '  n1 [label="<a>"];\n'
            '  n2 [label="<a^2,b>"];\n'
            '  n3 [label="<a^2,ab>"];\n'
            '  n4 [label="D8"];\n'
            "  n0 -> n1;\n"
            "  n0 -> n2;\n"
            "  n0 -> n3;\n"
            "  n1 -> n4;\n"
            "  n2 -> n4;\n"
            "  n3 -> n4;\n"
            "}\n"
        )

    def test_poset_with_mu_labels(self, q8):
        poset = c.center_poset(q8)
        text = c.export_dot(poset, c.moebius(poset))
        assert 'n0 [label="<-1>\\nmu=1"];' in text
        assert 'n1 [label="<i>\\nmu=-1"];' in text
        assert text.count("->") == 3

    def test_commuting_graph_dot(self, d8):
        text = c.export_dot(c.commuting_graph(d8))
        assert text.startswith("graph commuting {")
        assert "  v0 -- v1;" in text
        assert text.count("--") == 3

    def test_mu_table_only_for_matching_poset(self, d8, q8):
        poset_d8 = c.center_poset(d8)
        poset_q8 = c.center_poset(q8)
        with pytest.raises(ValueError, match="different poset"):
            c.export_dot(poset_q8, c.moebius(poset_d8))
        with pytest.raises(ValueError, match="CenterPoset"):
            c.export_dot(c.build_lattice(d8), c.moebius(poset_d8))

    def test_byte_stability(self, fleet):
        for G in (fleet["D8"], fleet["H3"]):
            assert c.export_dot(c.commuting_graph(G)) == c.export_dot(c.commuting_graph(G))
            assert c.export_dot(c.build_lattice(G)) == c.export_dot(c.build_lattice(G))


class TestDegreeCsv:
    def test_d8_golden(self, d8):
        text = c.degree_csv(c.commuting_graph(d8), 2)
        assert text == (
            "vertex,degree,residue_mod_p\n"
            "a,1,1\n"
            "a^3,1,1\n"
            "b,1,1\n"
            "ab,1,1\n"
            "a^2b,1,1\n"
            "a^3b,1,1\n"
        )

    def test_without_prime_residue_blank(self, s3):
        text = c.degree_csv(c.commuting_graph(s3))
        # vertices in ascending element-id order; comma-bearing labels are quoted
        assert text.splitlines()[1] == '"(2,3)",0,'

    def test_labels_with_commas_are_quoted(self, s4):
        text = c.degree_csv(c.commuting_graph(s4))
        assert '"(1,2)(3,4)"' in text


def largest_transversal(G):
    """The largest id in each coset of Z(G)."""
    z = list(G.center)
    return sorted({max(G.mul(g, x) for x in z) for g in G.elements()})


@pytest.fixture(scope="module")
def graph_groups(order_fleet, d8, s3):
    return {**order_fleet, "D8": d8, "S3": s3}


class TestMaskGraphsAgainstOracle:
    """Mask-held graphs against the former pair loop, edge scans and writers."""

    @pytest.mark.parametrize("key", ORDER_FLEET + ("D8", "S3"))
    def test_views_and_artifacts(self, graph_groups, key):
        G = graph_groups[key]
        p = p_group_prime(G.order)
        largest = largest_transversal(G)
        cases = [
            (c.commuting_graph(G), naive_graph_edges(G, G.elements())),
            (c.transversal_graph(G), naive_graph_edges(G, c.default_transversal(G))),
            (c.transversal_graph(G, largest), naive_graph_edges(G, largest)),
            (c.centralizer_graph(G), naive_centralizer_graph_edges(G)),
        ]
        for graph, (verts, edges) in cases:
            degrees = naive_degrees(len(verts), edges)
            # Compared as booleans: pytest's diff of values this long takes minutes.
            same = {
                "vertices": graph.vertex_ids == verts,
                "edges": graph.edges == edges,
                "edge_count": graph.edge_count == len(edges),
                "degrees": graph.degrees() == degrees,
                "dot": c.export_dot(graph) == former_graph_dot(graph.kind, graph.labels, edges),
                "csv": c.degree_csv(graph, p) == naive_degree_csv(graph.labels, degrees, p),
            }
            assert all(same.values()), (graph.kind, same)

    @pytest.mark.parametrize("key", ORDER_FLEET + ("D8", "S3"))
    def test_quotient_matches_former_edge_walk(self, graph_groups, key):
        G = graph_groups[key]
        assert c.quotient_consistency(G) is former_quotient_consistency(G) is True

    @pytest.mark.parametrize("walk_bits, block_bits", [(0, 64), (0, 1 << 12), (1 << 40, 1 << 20)])
    def test_both_dot_edge_writers_agree(self, graph_groups, monkeypatch, walk_bits, block_bits):
        # Every graph's edge lines through numpy (one mask per block, or
        # several), or every graph's through the Python walk.
        monkeypatch.setattr(graphs, "EDGE_WALK_BITS", walk_bits)
        monkeypatch.setattr(graphs, "EDGE_BLOCK_BITS", block_bits)
        for key in ("S3", "D8", "Q8", "S4", "H3", "D16"):
            G = graph_groups[key]
            for graph, (_, edges) in (
                (c.commuting_graph(G), naive_graph_edges(G, G.elements())),
                (c.centralizer_graph(G), naive_centralizer_graph_edges(G)),
            ):
                same_dot = c.export_dot(graph) == former_graph_dot(graph.kind, graph.labels, edges)
                assert same_dot, (key, graph.kind)

    def test_commuting_graph_holds_no_per_edge_objects(self, h3):
        G = c.direct_product(h3, h3)  # 720 vertices, 37 224 edges
        assert not G.is_abelian and G.labels and G.cent_masks  # built before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = c.commuting_graph(G)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert graph.edge_count == 37224
        assert held < HELD_BYTES_BOUND, held
