import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

import centra as c
from centra import groups
from centra.checks import _centralizer_sizes, run_suite
from centra.groups import _table_dtype, element_orders
from centra.sets import ids_from_mask
from conftest import (
    by_label,
    c1024_intercalate_table,
    former_generated_mask,
    former_subgroup_label,
    intercalates,
    label_set,
    naive_center,
    naive_element_order,
    naive_first_failing_law,
    naive_generated,
    paired_inverse_table,
    swap_intercalate,
    unitriangular,
    unitriangular_generators,
)

# Found by backtracking over latin squares with identity row/column and paired
# inverses; frozen here.  Structural preconditions are re-asserted below so the
# rejection can only come from associativity.
NONASSOC_LATIN_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def assert_rejects_missing_product_or_inverse(G):
    """``is_subgroup`` accepts G and rejects G with one element x of order
    > 2 removed (the inverse of x^-1 is missing), or with x and x^-1 removed
    (inverse-closed, but x is a product of members)."""
    x = next(g for g in range(G.order) if G.inv_table[g] != g)
    assert c.is_subgroup(G, range(G.order))
    assert not c.is_subgroup(G, [g for g in range(G.order) if g != x])
    assert not c.is_subgroup(G, [g for g in range(G.order) if g not in (x, G.inv_table[x])])


class TestBuiltins:
    def test_dihedral8(self, d8):
        assert d8.order == 8
        assert label_set(d8, d8.center) == {"1", "a^2"}
        assert d8.labels == ("1", "a", "a^2", "a^3", "b", "ab", "a^2b", "a^3b")

    def test_dihedral_relation_bab_is_a_inverse(self, d8):
        a, b = by_label(d8, "a", "b")
        assert d8.table[d8.table[b, a], b] == d8.inv_table[a]

    def test_quaternion8_element_orders(self, q8):
        orders = sorted(naive_element_order(q8, g) for g in range(q8.order))
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_heisenberg3(self, h3):
        assert h3.order == 27
        assert len(h3.center) == 3
        assert all(naive_element_order(h3, g) in (1, 3) for g in range(h3.order))

    def test_heisenberg5_center(self):
        h5 = c.builtin_group("heisenberg", 5)
        assert h5.order == 125
        assert len(h5.center) == 5

    def test_heisenberg_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            c.builtin_group("heisenberg", 4)

    def test_cyclic_is_abelian(self):
        g = c.builtin_group("cyclic", 12)
        assert g.is_abelian and len(g.center) == 12

    def test_symmetric_3(self, s3):
        assert s3.order == 6
        assert len(s3.center) == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown builtin family"):
            c.builtin_group("alternating", 4)

    def test_dihedral_odd_order_rejected(self):
        with pytest.raises(ValueError):
            c.builtin_group("dihedral", 7)

    @pytest.mark.parametrize(
        "family,param",
        [("cyclic", 0), ("cyclic", None), ("symmetric", 0), ("symmetric", None),
         ("dihedral", None), ("heisenberg", None), ("quaternion8", 4)],
    )
    def test_invalid_params(self, family, param):
        with pytest.raises(ValueError):
            c.builtin_group(family, param)

    def test_builtin_order_bounds(self, monkeypatch):
        monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 20 * 20))  # orders up to 20
        for family, param, name, order in [("cyclic", 64, "C64", 64), ("dihedral", 32, "D32", 32),
                                           ("heisenberg", 3, "H3", 27), ("symmetric", 4, "S4", 24)]:
            with pytest.raises(c.OrderBoundError) as err:
                c.builtin_group(family, param)
            assert str(err.value) == (
                f"{name} order {order} exceeds 20, the largest order whose table fits in CENTRA_TABLE_BYTES"
            )

    def test_elem_set_universe_guard(self, d8, q8):
        s = d8.elem_set([0, 1])
        with pytest.raises(ValueError, match="different group"):
            c.builtin_group("symmetric", 3).elem_set(s)
        assert q8.elem_set([7]).members == (7,)


class TestGeneratedGroups:
    def test_s4_from_transposition_and_4cycle(self):
        gens = [c.parse_cycle_notation("(1,2)", 4), c.parse_cycle_notation("(1,2,3,4)", 4)]
        G = c.group_from_generators(gens)
        assert G.order == 24
        assert len(G.center) == 1

    def test_d8_as_square_symmetries(self):
        gens = [c.parse_cycle_notation("(1,2,3,4)", 4), c.parse_cycle_notation("(1,3)", 4)]
        G = c.group_from_generators(gens)
        assert G.order == 8
        assert not G.is_abelian

    def test_no_generators_gives_trivial_group(self):
        G = c.group_from_generators([], degree=1)
        assert G.order == 1

    def test_identity_is_element_zero(self):
        G = c.group_from_generators([c.parse_cycle_notation("(1,2,3)", 3)])
        assert G.labels[0] == "()"
        assert G.order == 3

    def test_degree_mismatch(self):
        gens = [c.parse_cycle_notation("(1,2)", 2), c.parse_cycle_notation("(1,2)", 3)]
        with pytest.raises(ValueError, match="degree mismatch"):
            c.group_from_generators(gens)

    def test_order_bound(self, monkeypatch):
        gens = [c.parse_cycle_notation("(1,2)", 4), c.parse_cycle_notation("(1,2,3,4)", 4)]
        monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 10 * 10))  # orders up to 10
        with pytest.raises(c.OrderBoundError, match="^S4 order at least 11 exceeds 10, "):
            c.group_from_generators(gens, name="S4")

    def test_numbering_is_bfs_deterministic(self):
        gens = [c.parse_cycle_notation("(1,2)", 3), c.parse_cycle_notation("(1,2,3)", 3)]
        G1 = c.group_from_generators(gens)
        G2 = c.group_from_generators(gens)
        assert G1.labels == G2.labels
        assert np.array_equal(G1.table, G2.table)


class TestTableIO:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "c2.tbl"
        path.write_text("2\n0 1\n1 0\n")
        G = c.group_from_cayley_table(path)
        assert G.order == 2 and G.is_abelian

    def test_q8_roundtrip_and_orders(self, q8, tmp_path):
        path = tmp_path / "q8.tbl"
        path.write_text(c.cayley_table_text(q8))
        G = c.group_from_cayley_table(path)
        assert G.order == 8
        assert sum(1 for g in range(G.order) if naive_element_order(G, g) == 4) == 6
        assert G.labels == q8.labels
        assert np.array_equal(G.table, q8.table)

    def test_nonassociative_latin_square_rejected(self):
        sq = NONASSOC_LATIN_5
        n = len(sq)
        for row in sq:  # latin + identity preconditions of the frozen square
            assert sorted(row) == list(range(n))
        for j in range(n):
            assert sorted(sq[i][j] for i in range(n)) == list(range(n))
        assert sq[0] == list(range(n)) and [row[0] for row in sq] == list(range(n))
        assert all((sq[a][b] == 0) == (sq[b][a] == 0) for a in range(n) for b in range(n))
        with pytest.raises(c.GroupTableError) as exc:
            c.Group(sq)
        assert exc.value.law == "associativity"

    def test_broken_identity_named(self):
        with pytest.raises(c.GroupTableError) as exc:
            c.Group([[1, 0], [0, 1]])
        assert exc.value.law == "identity"

    def test_non_latin_named(self):
        with pytest.raises(c.GroupTableError) as exc:
            c.Group([[0, 1, 2], [1, 1, 1], [2, 0, 1]])
        assert exc.value.law == "latin"

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("x\n")
        with pytest.raises(ValueError, match="group order"):
            c.group_from_cayley_table(path)
        path.write_text("3\n0 1 2\n1 2 0\n")
        with pytest.raises(ValueError, match="rows"):
            c.group_from_cayley_table(path)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("0\n", "positive"),
            ("2\n0 x\n1 0\n", "non-integer"),
            ("2\n0 1 1\n1 0\n", "entries"),
            ("2\n0 1\n1 0\nnota label\n", "trailing"),
            ("2\n0 1\n1 0\nlabel 5 x\n", "out of range"),
        ],
    )
    def test_malformed_table_text(self, text, match):
        with pytest.raises(ValueError, match=match):
            c.parse_cayley_table_text(text)

    def test_serialize_without_labels(self, q8):
        text = c.cayley_table_text(q8, with_labels=False)
        assert "label" not in text
        G = c.parse_cayley_table_text(text)
        assert G.labels[1] == "g1"  # defaults kick in

    def test_nonsquare_and_range_rejected(self):
        with pytest.raises(c.GroupTableError) as exc:
            c.Group([[0, 1], [1, 0], [0, 1]])
        assert exc.value.law == "shape"
        with pytest.raises(c.GroupTableError) as exc:
            c.Group([[0, 1], [1, 2]])
        assert exc.value.law == "range"

    def test_mismatched_inverses_named(self):
        # latin square with identity where row-inverses and column-inverses
        # disagree: 1*2 = 0 but 2*1 = 3
        square = [
            [0, 1, 2, 3, 4],
            [1, 2, 0, 4, 3],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 0, 3, 1, 2],
        ]
        n = len(square)
        for row in square:
            assert sorted(row) == list(range(n))
        for j in range(n):
            assert sorted(square[i][j] for i in range(n)) == list(range(n))
        with pytest.raises(c.GroupTableError) as exc:
            c.Group(square)
        assert exc.value.law == "inverse"

    def test_labels_from_file(self, tmp_path):
        path = tmp_path / "c2.tbl"
        path.write_text("2\n0 1\n1 0\nlabel 0 e\nlabel 1 t\n")
        G = c.group_from_cayley_table(path)
        assert G.labels == ("e", "t")

    def test_generator_file(self, tmp_path):
        path = tmp_path / "s3.gens"
        path.write_text("perm 3\n(1,2)\n(1,2,3)\n")
        G = c.group_from_generator_file(path)
        assert G.order == 6

    def test_generator_file_bad_header(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("(1,2)\n")
        with pytest.raises(ValueError, match="perm"):
            c.group_from_generator_file(path)
        path.write_text("perm x\n(1,2)\n")
        with pytest.raises(ValueError, match="bad degree"):
            c.group_from_generator_file(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


C2 = lambda: c.builtin_group("cyclic", 2)

CONSTRUCTIONS = {
    "cyclic:1": lambda tmp: c.builtin_group("cyclic", 1),
    "cyclic:7": lambda tmp: c.builtin_group("cyclic", 7),
    "dihedral:10": lambda tmp: c.builtin_group("dihedral", 10),
    "quaternion8": lambda tmp: c.builtin_group("quaternion8"),
    "symmetric:4": lambda tmp: c.builtin_group("symmetric", 4),
    "heisenberg:3": lambda tmp: c.builtin_group("heisenberg", 3),
    "generators": lambda tmp: c.group_from_generators(unitriangular_generators(4, 2)),
    "generator file": lambda tmp: c.group_from_generator_file(_write(tmp, "s3.gens", "perm 3\n(1,2)\n(1,2,3)\n")),
    "cayley file": lambda tmp: c.group_from_cayley_table(_write(tmp, "c3.tbl", "3\n0 1 2\n1 2 0\n2 0 1\n")),
    "Group(lists)": lambda tmp: c.Group([[0, 1], [1, 0]]),
    "Group(int64)": lambda tmp: c.Group(np.array([[0, 1], [1, 0]], dtype=np.int64)),
    "product": lambda tmp: c.direct_product(C2(), c.builtin_group("symmetric", 3)),
    "nested product": lambda tmp: c.direct_product(c.direct_product(C2(), C2()), c.builtin_group("dihedral", 8)),
}


class TestTableDtype:
    @pytest.mark.parametrize("path", sorted(CONSTRUCTIONS))
    def test_every_construction_is_uint16_and_read_only(self, path, tmp_path):
        G = CONSTRUCTIONS[path](tmp_path)
        assert G.table.dtype == G.inv_table.dtype == np.uint16
        assert not G.table.flags.writeable and not G.inv_table.flags.writeable
        assert [G.inv_table[g] for g in range(G.order)] == [
            next(h for h in range(G.order) if G.table[g, h] == 0) for g in range(G.order)
        ]

    def test_dtype_rule_boundary(self):
        """Ids run to order - 1, so uint16 holds every order up to 2^16."""
        assert _table_dtype(1) == _table_dtype(1 << 16) == np.uint16
        assert _table_dtype((1 << 16) + 1) == _table_dtype(1 << 32) == np.uint32

    def test_narrow_table_is_not_copied(self, d8):
        table = d8.table.copy()
        assert c.Group(table).table is table

    @pytest.mark.parametrize("make", ["d8", "s4", "h3"])
    def test_cayley_text_roundtrips_byte_for_byte(self, make, request):
        G = request.getfixturevalue(make)
        text = c.cayley_table_text(G)
        again = c.parse_cayley_table_text(text, name=G.name)
        assert np.array_equal(again.table, G.table) and again.labels == G.labels
        assert c.cayley_table_text(again) == text

    def test_cayley_text_format(self):
        text = c.cayley_table_text(c.builtin_group("cyclic", 3))
        assert text == "3\n0 1 2\n1 2 0\n2 0 1\nlabel 0 1\nlabel 1 g\nlabel 2 g^2\n"

    @pytest.mark.parametrize("table", [
        pytest.param(np.array([[0, 1], [1, 2**32]]), id="int64 2^32, wraps to 0 in int32"),
        pytest.param(np.array([[0, 1], [1, 1 << 16]]), id="int64 2^16, wraps to 0 in uint16"),
        pytest.param(np.array([[0, 1], [1, (1 << 16) + 1]], dtype=np.int32), id="int32 2^16+1"),
        pytest.param(np.array([[0, 1], [1, -(1 << 16)]]), id="int64 -2^16"),
        pytest.param([[0, 1.5], [1, 0]], id="float 1.5"),
        pytest.param([[0.0, 1.0], [1.0, 0.0]], id="integral floats"),
        pytest.param([[0, 1], [1, 2**70]], id="object 2^70"),
        pytest.param([[False, True], [True, False]], id="bool"),
    ])
    def test_range_is_checked_before_narrowing(self, table):
        with pytest.raises(c.GroupTableError) as exc:
            c.Group(table)
        assert exc.value.law == "range"

    @pytest.mark.parametrize("entry", ["2", "-1", "65536", "4294967296", str(2**70)])
    def test_cayley_file_range_is_checked_before_narrowing(self, entry):
        with pytest.raises(c.GroupTableError) as exc:
            c.parse_cayley_table_text(f"2\n0 1\n1 {entry}\n")
        assert exc.value.law == "range"

    def test_no_n_squared_temporaries(self):
        """At order 3^7 one n x n bool array is 4.8 MB.  Construction (with
        validation's ``table == 0``) reads the table in row blocks, and
        ``cent_masks`` and the graphs suite's degree oracle (each
        ``table == table.T``) in square tiles, so the traced peak of all
        three stays within 1 MB of what they keep: the 9.6 MB uint16 table,
        the masks, graphs and results."""
        UT, C3 = unitriangular(4, 3), c.builtin_group("cyclic", 3)
        tracemalloc.start()
        try:
            G = c.direct_product(UT, C3)
            G.cent_masks
            results = run_suite(G, "graphs")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(r.failed for r in results)
        assert kept >= G.table.nbytes == 2 * G.order**2
        assert peak <= kept + (1 << 20), (peak, kept)


class TestDirectProduct:
    def test_klein_four(self):
        c2 = c.builtin_group("cyclic", 2)
        v4 = c.direct_product(c2, c2)
        assert v4.order == 4
        assert all(naive_element_order(v4, g) == 2 for g in range(v4.order) if g != 0)

    def test_product_with_trivial_is_same_table(self, d8):
        triv = c.builtin_group("cyclic", 1)
        P = c.direct_product(d8, triv)
        assert np.array_equal(P.table, d8.table)

    def test_order_and_center_multiply(self, fleet):
        for a, b in [("D8", "Q8"), ("Q8", "H3"), ("D8", "D8")]:
            G, H = fleet[a], fleet[b]
            P = c.direct_product(G, H)
            assert P.order == G.order * H.order
            assert len(P.center) == len(G.center) * len(H.center)

    def test_d8xd8_contains_centralizer_chain(self, fleet):
        # exhaustive comparison of all element-centralizer pairs
        G = fleet["D8xD8"]
        masks = {G.cent_masks[g] for g in range(G.order) if G.cent_masks[g] != G.full_mask}
        assert any(
            a != b and a & ~b == 0 for a in masks for b in masks
        )

    def test_order_bound(self, d8, monkeypatch):
        monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 32 * 32))  # orders up to 32
        with pytest.raises(c.OrderBoundError) as err:
            c.direct_product(d8, d8)
        assert str(err.value) == "D8xD8 order 64 exceeds 32, the largest order whose table fits in CENTRA_TABLE_BYTES"

    def test_env_bound(self, d8, monkeypatch):
        monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 64 * 64))  # orders up to 64
        assert c.direct_product(d8, d8).order == 64
        monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 64 * 64 - 1))
        with pytest.raises(c.OrderBoundError, match="^D8xD8 order 64 exceeds 63, "):
            c.direct_product(d8, d8)


class TestSubgroups:
    def test_generated_by_three_cycle(self, s4):
        (g,) = by_label(s4, "(1,2,3)")
        H = c.subgroup_generated_by(s4, [g])
        assert len(H) == 3
        assert label_set(s4, H) == {"1", "(1,2,3)", "(1,3,2)"}

    def test_empty_generates_identity(self, fleet):
        for G in fleet.values():
            assert c.subgroup_generated_by(G, []).members == (0,)

    def test_union_of_centralizers_generates_a4(self, s4):
        g3 = by_label(s4, "(1,2,3)")
        vv = by_label(s4, "(1,2)(3,4)", "(1,3)(2,4)")
        union = c.centralizer(s4, g3) | c.centralizer(s4, vv)
        H = c.subgroup_generated_by(s4, union)
        assert len(H) == 12
        # A4 is exactly the even permutations
        even = {
            g
            for g in range(s4.order)
            if s4.labels[g].count(",") % 2 == 0  # a k-cycle has k - 1 commas and k - 1 transpositions
        }
        assert set(H) == even

    def test_matches_naive_oracle(self, small_groups):
        import random

        rng = random.Random(1)
        for G in small_groups.values():
            for _ in range(20):
                ids = rng.sample(range(G.order), rng.randint(0, min(4, G.order)))
                assert set(c.subgroup_generated_by(G, ids)) == naive_generated(G, ids)

    @pytest.mark.parametrize("key", ["S4", "H3", "UT4_3"])
    def test_matches_naive_closure_with_edge_inputs(self, key, order_fleet):
        import random

        G = order_fleet[key]
        rng = random.Random(6)
        drawn = [rng.sample(range(1, G.order), k) for k in (1, 2, 2, 3)]
        cases = [[], [0], [0, 0, 0]] + drawn + [ids + ids[::-1] + [0] for ids in drawn[:2]]
        for ids in cases:
            H = c.subgroup_generated_by(G, ids)
            assert isinstance(H, c.Subgroup) and H.universe_order == G.order
            assert set(H) == naive_generated(G, ids), ids
        for bad in (G.order, -1):
            with pytest.raises(ValueError, match=f"element id {bad} out of range for universe of order {G.order}"):
                c.subgroup_generated_by(G, [0, bad])

    @pytest.mark.parametrize("key", ["S6", "UT4_3xC3"])
    def test_matches_naive_oracle_at_scale(self, key, order_fleet, ut43xc3):
        import random

        G = ut43xc3 if key == "UT4_3xC3" else order_fleet[key]
        rng = random.Random(8)
        drawn = [rng.sample(range(1, G.order), k) for k in range(1, 7)]
        whole = drawn[-1]
        assert naive_generated(G, whole) == set(range(G.order))
        edge = [ids + [0] + ids[::-1] + ids for ids in drawn[1:4]] + [[0, 0], sorted(whole, reverse=True)]
        for ids in drawn + edge:
            assert set(c.subgroup_generated_by(G, ids)) == naive_generated(G, ids), ids

    def test_element_orders_match_element_order(self, order_fleet):
        for G in order_fleet.values():
            assert element_orders(G) == tuple(naive_element_order(G, g) for g in range(G.order)), G.name

    def test_closure_operator_axioms_exhaustive(self, small_groups):
        from centra.sets import ids_from_mask

        for G in small_groups.values():
            n = G.order
            gen = {m: c.subgroup_generated_by(G, ids_from_mask(m)).mask for m in range(1 << n)}
            for m in range(1 << n):
                assert m & ~gen[m] == 0  # extensive
                assert gen[gen[m]] == gen[m]  # idempotent
                sub = m
                while True:  # monotone over all submasks
                    assert gen[sub] & ~gen[m] == 0
                    if sub == 0:
                        break
                    sub = (sub - 1) & m

    def test_is_subgroup(self, d8):
        assert c.is_subgroup(d8, [0, 2])
        assert not c.is_subgroup(d8, [0, 1])  # <a> needs a^2, a^3
        assert not c.is_subgroup(d8, [2])  # missing identity

    def test_is_subgroup_rejects_missing_product_or_inverse(self, h3):
        assert_rejects_missing_product_or_inverse(h3)


class TestLagrangeExit:
    """``subgroup_generated_by`` returns G once it lists more than n/q elements,
    q the least prime dividing n; checked against the breadth-first closure."""

    @pytest.mark.parametrize("key", ["S6", "UT4_3xC3"])
    def test_random_sets_match_breadth_first_closure(self, key, order_fleet, ut43xc3):
        G = ut43xc3 if key == "UT4_3xC3" else order_fleet[key]
        rng = random.Random(18)
        for _ in range(40):
            ids = rng.sample(range(G.order), rng.randint(1, 4))
            assert c.subgroup_generated_by(G, ids).mask == former_generated_mask(G, ids), ids

    def test_index_two_subgroup_does_not_exit(self, order_fleet):
        # A6 = <(1,2,3), (2,3,4,5,6)> has exactly 720/2 elements, the limit itself.
        G = order_fleet["S6"]
        ids = by_label(G, "(1,2,3)", "(2,3,4,5,6)")
        H = c.subgroup_generated_by(G, ids)
        assert len(H) == G.order // 2
        assert H.mask == former_generated_mask(G, ids)

    def test_index_three_subgroup_does_not_exit(self, ut43xc3):
        # An element centralizer of index 3, generated from all its members.
        G = ut43xc3
        mask = next(m for m in G.cent_masks if m.bit_count() == G.order // 3)
        assert c.subgroup_generated_by(G, ids_from_mask(mask)).mask == mask

    def test_whole_group_exits_early(self, order_fleet, monkeypatch):
        G = order_fleet["S6"]
        listed = []
        adjoin = groups._adjoin

        def counting(item, elements, *args):
            adjoin(item, elements, *args)
            listed.append(len(elements))

        monkeypatch.setattr(groups, "_adjoin", counting)
        ids = by_label(G, "(1,2)", "(1,2,3,4,5,6)")
        assert c.subgroup_generated_by(G, ids).mask == G.full_mask == former_generated_mask(G, ids)
        assert G.order // 2 < listed[-1] < G.order

    @pytest.mark.parametrize("n", [1, 7])
    def test_trivial_and_prime_orders(self, n):
        G = c.builtin_group("cyclic", n)
        for ids in ([], [0], *([g] for g in range(1, n))):
            assert c.subgroup_generated_by(G, ids).mask == former_generated_mask(G, ids), ids


class TestTiles:
    """``cent_masks`` and the graphs suite's degree oracle in small square
    tiles (sides 4 and 8), so that orders 7, 9, 6, 24 and 2187 end in a
    ragged band and column, against ``table == table.T`` in one piece."""

    @pytest.mark.parametrize("block", [16, 64])
    @pytest.mark.parametrize("spec", ["C1", "C7", "D8", "C9", "D6", "S4", "UT4_3xC3"])
    def test_scans_match_whole_table(self, spec, block, ut43xc3, monkeypatch):
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block)
        if spec == "UT4_3xC3":
            G = ut43xc3
        else:
            family = {"C": "cyclic", "D": "dihedral", "S": "symmetric"}[spec[0]]
            G = c.builtin_group(family, int(spec[1:]))
        commuting = G.table == G.table.T
        packed = np.packbits(commuting, axis=1, bitorder="little")
        assert c.Group.cent_masks.func(G) == tuple(int.from_bytes(row, "little") for row in packed)
        assert _centralizer_sizes(G) == commuting.sum(axis=1).tolist()

    def test_tiles_cover_the_table_once(self, monkeypatch):
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", 16)
        seen = np.zeros((9, 9), dtype=int)
        for rows, cols in groups._tiles(9):
            assert (rows.stop - rows.start) * (cols.stop - cols.start) <= 16
            seen[rows, cols] += 1
        assert (seen == 1).all()

    def test_cent_masks_peak_is_the_masks_plus_one_band(self, ut43xc3):
        # One n x n bool array is 4.8 MB at order 3^7; one band of tile rows
        # is isqrt(BLOCK_ENTRIES) * n bools, 0.56 MB.
        G = ut43xc3
        band = math.isqrt(groups.BLOCK_ENTRIES) * G.order
        tracemalloc.start()
        try:
            masks = c.Group.cent_masks.func(G)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= sum(map(sys.getsizeof, masks)) >= G.order * (G.order // 8)
        assert peak <= kept + band + (64 << 10), (peak, kept, band)


class TestCenter:
    def test_center_matches_naive(self, fleet, small_groups):
        for G in list(fleet.values()) + list(small_groups.values()):
            assert set(G.center) == naive_center(G)

    def test_d8_center(self, d8):
        assert label_set(d8, d8.center) == {"1", "a^2"}

    def test_s4_center_trivial(self, s4):
        assert s4.center.members == (0,)

    def test_abelian_center_is_group(self):
        G = c.builtin_group("cyclic", 9)
        assert len(G.center) == 9


class TestValidationInvariants:
    def test_every_fleet_group_validates(self, fleet):
        # reconstructing from the table re-runs all law checks
        for G in fleet.values():
            c.Group(G.table, G.labels, G.name)

    def test_labels_unique(self, fleet):
        for G in fleet.values():
            assert len(set(G.labels)) == G.order

    def test_subgroup_label_examples(self, d8, q8):
        lat = c.build_lattice(d8)
        assert [c.subgroup_label(d8, n) for n in lat.nodes] == [
            "<a^2>", "<a>", "<a^2,b>", "<a^2,ab>", "D8",
        ]
        assert c.subgroup_label(q8, c.closure(q8, by_label(q8, "i"))) == "<i>"
        assert c.subgroup_label(d8, c.subgroup_generated_by(d8, [])) == "1"


class TestExactValidation:
    def test_c1024_intercalate_rejected(self):
        """One swapped intercalate in C1024 keeps the latin, identity and
        inverse laws, so only an exact associativity test rejects it."""
        with pytest.raises(c.GroupTableError) as exc:
            c.Group(c1024_intercalate_table())
        assert exc.value.law == "associativity"

    def test_matches_naive_oracle(self, small_groups):
        """Accepted exactly when every law holds; otherwise the law named is
        the oracle's first failing one."""
        tables = [np.array(NONASSOC_LATIN_5)]
        for key in ("D8", "Q8", "C8", "C4xC2", "C2xC2xC2"):
            T = small_groups[key].table
            tables += [swap_intercalate(T, *q) for q in intercalates(T)]
        rng = np.random.default_rng(23)
        tables += [paired_inverse_table(rng, n) for n in rng.integers(2, 9, size=300)]
        for n in rng.integers(2, 9, size=100):  # identity only: zeros anywhere
            table = rng.integers(0, n, size=(n, n))
            table[0] = table[:, 0] = np.arange(n)
            tables.append(table)
        seen = set()
        for table in tables:
            expected = naive_first_failing_law(table.tolist())
            try:
                c.Group(table)
                law = None
            except c.GroupTableError as exc:
                law = exc.law
            assert law == expected, table.tolist()
            seen.add(law)
        assert seen == {None, "latin", "inverse", "associativity"}


class TestSubgroupLabel:
    @pytest.mark.parametrize("name", ["d8", "q8", "s4", "H3xH3", "S6", "ut43xc3"])
    def test_matches_former_labels(self, name, request, fleet, order_fleet):
        G = fleet.get(name) or order_fleet.get(name) or request.getfixturevalue(name)
        nodes = c.build_lattice(G).nodes + c.center_poset(G).nodes
        assert [c.subgroup_label(G, n) for n in nodes] == [former_subgroup_label(G, n) for n in nodes]
        vertices = [cl.ecenter for cl in c.z_star_partition(G) if cl.cent.mask != G.full_mask]
        assert c.centralizer_graph(G).labels == tuple(former_subgroup_label(G, e) for e in vertices)

    @pytest.mark.parametrize("labels", [("1", "a"), ("a^2",), ("a", "b"), ("1", "a^2", "b", "ab")])
    def test_non_subgroup_raises(self, d8, labels):
        S = d8.elem_set(by_label(d8, *labels))
        for label in (c.subgroup_label, former_subgroup_label):
            with pytest.raises(c.InvariantViolation, match="^generator fell outside the subgroup$"):
                label(d8, S)
