"""Law-level properties of the centralizer map: exhaustive on tiny groups,
hypothesis-driven on a mixed pool."""

import pytest
from hypothesis import given, settings, strategies as st

import centra as c
from centra.sets import ids_from_mask
from conftest import naive_centralizer

# module-level pool so @given strategies can stay fixture-free
_C2 = c.builtin_group("cyclic", 2)
GROUPS = {
    "C6": c.builtin_group("cyclic", 6),
    "S3": c.builtin_group("symmetric", 3),
    "D8": c.builtin_group("dihedral", 8),
    "Q8": c.builtin_group("quaternion8"),
    "V4": c.direct_product(_C2, _C2),
    "H3": c.builtin_group("heisenberg", 3),
    "S4": c.builtin_group("symmetric", 4),
    "D8xC2": c.direct_product(c.builtin_group("dihedral", 8), _C2),
}

group_keys = st.sampled_from(sorted(GROUPS))


def cmask(G, ids):
    return c.centralizer(G, ids).mask


class TestExhaustiveSmall:
    """Every law on every subset (or subset pair) of all 14 groups of order <= 8."""

    def test_antitone_and_monotone(self, small_groups):
        for G in small_groups.values():
            n = G.order
            for t in range(1 << n):
                ct = cmask(G, ids_from_mask(t))
                clt = cmask(G, ids_from_mask(ct))
                s = t
                while True:
                    cs = cmask(G, ids_from_mask(s))
                    assert ct & ~cs == 0  # antitone
                    assert cmask(G, ids_from_mask(cs)) & ~clt == 0  # closure monotone
                    if s == 0:
                        break
                    s = (s - 1) & t

    def test_extensive_idempotent_triple(self, small_groups):
        for G in small_groups.values():
            n = G.order
            for m in range(1 << n):
                ids = ids_from_mask(m)
                cs = cmask(G, ids)
                ccs = cmask(G, ids_from_mask(cs))
                cccs = cmask(G, ids_from_mask(ccs))
                assert m & ~ccs == 0  # extensive
                assert cccs == cs  # triple centralizer
                assert cmask(G, ids_from_mask(cccs)) == ccs  # closure idempotent

    def test_galois_equivalence(self, small_groups):
        for G in small_groups.values():
            n = G.order
            cents = [cmask(G, ids_from_mask(m)) for m in range(1 << n)]
            for s in range(1 << n):
                for t in range(1 << n):
                    assert (t & ~cents[s] == 0) == (s & ~cents[t] == 0)

    def test_intersection_law_pairs(self, small_groups):
        for G in small_groups.values():
            n = G.order
            cents = [cmask(G, ids_from_mask(m)) for m in range(1 << n)]
            for s in range(1 << n):
                for t in range(1 << n):
                    assert cents[s | t] == cents[s] & cents[t]

    def test_generated_subgroup_law(self, small_groups):
        for G in small_groups.values():
            n = G.order
            for m in range(1 << n):
                ids = ids_from_mask(m)
                gen = c.subgroup_generated_by(G, ids)
                assert cmask(G, ids) == cmask(G, gen.members)


class TestPartitionTheorem:
    def test_every_lattice_node_every_fleet_group(self, fleet):
        for name, G in fleet.items():
            classes = c.z_star_partition(G)
            for node in c.build_lattice(G).nodes:
                union = 0
                total = 0
                for cl in classes:
                    if cl.ecenter.issubset(node):
                        assert union & cl.members.mask == 0, name  # disjoint
                        union |= cl.members.mask
                        total += len(cl.members)
                assert union == node.mask, name
                assert total == len(node), name

    def test_dual_indexing_agrees(self, fleet):
        # summing over centers inside H equals summing over centralizers above C(H)
        for G in fleet.values():
            classes = c.z_star_partition(G)
            for node in c.build_lattice(G).nodes:
                ch = c.centralizer(G, node)
                via_centers = {cl.representative for cl in classes if cl.ecenter.issubset(node)}
                via_cents = {cl.representative for cl in classes if ch.issubset(cl.cent)}
                assert via_centers == via_cents

    def test_coset_structure(self, fleet):
        for G in fleet.values():
            z = G.center.members
            for cl in c.z_star_partition(G):
                assert len(cl.members) % len(z) == 0
                for m in cl.members:
                    for zi in z:
                        assert G.table.item(m, zi) in cl.members


class TestStrictContainmentWitness:
    def test_s4_display(self, s4):
        from conftest import by_label

        H = c.centralizer(s4, by_label(s4, "(1,2,3)"))
        K = c.centralizer(s4, by_label(s4, "(1,2)(3,4)", "(1,3)(2,4)"))
        union = H | K
        gen = c.subgroup_generated_by(s4, union)
        whole = c.centralizer(s4, [])
        assert len(union) == 6
        assert union.mask != gen.mask  # the union is not a subgroup
        assert len(gen) == 12
        assert gen < whole  # proper containment in C(empty) = G
        assert union < gen


@settings(max_examples=60, deadline=None)
@given(key=group_keys, data=st.data())
def test_centralizer_matches_naive_oracle(key, data):
    G = GROUPS[key]
    ids = data.draw(st.lists(st.integers(0, G.order - 1), max_size=G.order, unique=True))
    assert set(c.centralizer(G, ids)) == naive_centralizer(G, ids)


@settings(max_examples=60, deadline=None)
@given(key=group_keys, data=st.data())
def test_triple_and_galois_random(key, data):
    G = GROUPS[key]
    n = G.order
    s = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    t = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    cs, ct = cmask(G, s), cmask(G, t)
    assert cmask(G, ids_from_mask(cmask(G, ids_from_mask(cs)))) == cs
    s_mask = 0
    for i in s:
        s_mask |= 1 << i
    t_mask = 0
    for i in t:
        t_mask |= 1 << i
    assert (t_mask & ~cs == 0) == (s_mask & ~ct == 0)


@settings(max_examples=60, deadline=None)
@given(key=group_keys, data=st.data())
def test_intersection_and_generated_law_random(key, data):
    G = GROUPS[key]
    n = G.order
    parts = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    union = sorted(set().union(*map(set, parts)))
    inter = G.full_mask
    for part in parts:
        inter &= cmask(G, part)
    assert cmask(G, union) == inter
    small = data.draw(st.lists(st.integers(0, n - 1), max_size=5, unique=True))
    assert cmask(G, small) == cmask(G, c.subgroup_generated_by(G, small).members)


@settings(max_examples=40, deadline=None)
@given(key=group_keys, data=st.data())
def test_closure_axioms_random(key, data):
    G = GROUPS[key]
    n = G.order
    s = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    t = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    both = sorted(set(s) | set(t))
    cl_s = c.closure(G, s)
    cl_both = c.closure(G, both)
    assert all(x in cl_s for x in s)  # extensive
    assert cl_s.issubset(cl_both)  # monotone (s is a subset of both)
    assert c.closure(G, cl_s) == cl_s  # idempotent


class TestSuiteRunner:
    def test_all_suites_pass_on_fleet(self, fleet):
        from centra.checks import run_suite

        for name, G in fleet.items():
            results = run_suite(G, "all", seed=0, samples=40)
            failed = [r for r in results if r.failed]
            assert failed == [], (name, [(r.name, r.witness) for r in failed])

    def test_suites_on_non_p_groups_skip_mod_p(self, s4):
        from centra.checks import run_suite

        results = run_suite(s4, "moebius", samples=20)
        by_name = {r.name: r for r in results}
        assert by_name["moebius/class_size_congruence"].status == "skip"
        assert by_name["moebius/recursion_reverified"].status == "pass"

    def test_unknown_suite_rejected(self, d8):
        from centra.checks import run_suite

        with pytest.raises(ValueError, match="unknown suite"):
            run_suite(d8, "nonsense")

    def test_abelian_graphs_suite_skips(self):
        from centra.checks import run_suite

        results = run_suite(c.builtin_group("cyclic", 4), "graphs", samples=10)
        assert all(r.status == "skip" for r in results)
