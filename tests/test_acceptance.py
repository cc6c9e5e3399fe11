"""Acceptance criteria: each test prints one pass/fail line and enforces the
stated runtime budget.  Run with ``pytest tests/test_acceptance.py -s``."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import centra as c
from centra.sets import ids_from_mask
from conftest import by_label, label_set, load_smallgroup_3_7_261

FLEET_KEYS_ORDER_729 = [
    "D8", "Q8", "D16", "H3", "H5", "D8xC2", "D8xD8", "H3xH3", "UT4_2",
]
MOEBIUS_FLEET = ["D8", "Q8", "D16", "H3", "H5", "D8xC2", "D8xD8", "H3xH3"]


@contextmanager
def criterion(num, desc, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2}] {desc}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else f"FAIL (over {limit_s}s budget)"
    print(f"[criterion {num:2}] {desc}: {verdict} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"


def cmask(G, ids):
    return c.centralizer(G, ids).mask


def test_criterion_1_d8_lattice_reproduction(d8):
    with criterion(1, "D8 lattice reproduction + one-step closure", 1.0):
        lat = c.build_lattice(d8)
        expected = {
            "<a^2>": {"1", "a^2"},
            "<a>": {"1", "a", "a^2", "a^3"},
            "<a^2,b>": {"1", "a^2", "b", "a^2b"},
            "<a^2,ab>": {"1", "a^2", "ab", "a^3b"},
            "D8": {"1", "a", "a^2", "a^3", "b", "ab", "a^2b", "a^3b"},
        }
        actual = {c.subgroup_label(d8, n): label_set(d8, n) for n in lat.nodes}
        assert actual == expected
        node_masks = {n.mask for n in lat.nodes}
        subs = c.all_subgroups(d8)
        assert len(subs) == 10
        for H in subs:
            assert c.closure(d8, H).mask in node_masks  # one move suffices for D8


def test_criterion_2_s4_counterexample(s4):
    with criterion(2, "S4 union/join counterexample", 1.0):
        H = c.centralizer(s4, by_label(s4, "(1,2,3)"))
        K = c.centralizer(s4, by_label(s4, "(1,2)(3,4)", "(1,3)(2,4)"))
        union = H | K
        assert len(union) == 6
        assert not c.is_subgroup(s4, union)
        gen = c.subgroup_generated_by(s4, union)
        assert len(gen) == 12
        lat = c.build_lattice(s4)
        assert len(lat.join(H, K)) == 24


def test_criterion_3_closure_operator_suite(small_groups, fleet):
    with criterion(3, "closure-operator suite (exhaustive <=8 + 10^4 random/fleet)", 60.0):
        # exhaustive over the power set of all 14 groups of order <= 8
        for G in small_groups.values():
            n = G.order
            cents = [cmask(G, ids_from_mask(m)) for m in range(1 << n)]
            for m in range(1 << n):
                cs = cents[m]
                ccs = cmask(G, ids_from_mask(cs))
                assert m & ~ccs == 0                       # extensive
                assert cmask(G, ids_from_mask(ccs)) == cs  # triple identity
                assert cmask(G, ids_from_mask(cmask(G, ids_from_mask(ccs)))) == ccs  # idempotent
            for s_mask in range(1 << n):
                for t_mask in range(1 << n):
                    assert (t_mask & ~cents[s_mask] == 0) == (s_mask & ~cents[t_mask] == 0)  # Galois
                    assert cents[s_mask | t_mask] == cents[s_mask] & cents[t_mask]  # intersection
                    if s_mask & ~t_mask == 0:  # monotone on ordered pairs
                        assert cents[t_mask] & ~cents[s_mask] == 0
        # 10^4 random subsets per fleet group of order <= 729
        for key in FLEET_KEYS_ORDER_729:
            G = fleet[key]
            n = G.order
            assert n <= 729
            rng = random.Random(0xC3)
            for _ in range(10_000):
                s_ids = rng.sample(range(n), rng.randint(0, n))
                u_ids = rng.sample(range(n), rng.randint(0, n))
                extra = rng.sample(range(n), rng.randint(0, 8))
                t_ids = sorted(set(s_ids) | set(extra))
                cs = cmask(G, s_ids)
                ccs = cmask(G, ids_from_mask(cs))
                cccs = cmask(G, ids_from_mask(ccs))
                s_mask = 0
                for i in s_ids:
                    s_mask |= 1 << i
                u_mask = 0
                for i in u_ids:
                    u_mask |= 1 << i
                assert s_mask & ~ccs == 0                      # extensive
                assert cccs == cs                              # triple identity
                assert cmask(G, ids_from_mask(cccs)) == ccs    # idempotent
                ct = cmask(G, t_ids)
                assert ct & ~cs == 0                           # antitone
                assert ccs & ~cmask(G, ids_from_mask(ct)) == 0 # closure monotone
                cu = cmask(G, u_ids)
                assert (u_mask & ~cs == 0) == (s_mask & ~cu == 0)              # Galois
                assert cmask(G, sorted(set(s_ids) | set(u_ids))) == cs & cu    # intersection


def test_criterion_4_fiber_theorem(d8, s3):
    with criterion(4, "fiber theorem on D8 and S3 (full power sets)", 5.0):
        for G in (d8, s3):
            n = G.order
            fibers = {}
            for m in range(1 << n):
                fibers.setdefault(cmask(G, ids_from_mask(m)), []).append(m)
            for cent_mask_val, members in fibers.items():
                union = 0
                for m in members:
                    union |= m
                sup = c.closure(G, ids_from_mask(members[0])).mask
                assert union == sup
                for m in members:
                    assert c.closure(G, ids_from_mask(m)).mask == union


def test_criterion_5_partition_theorem(fleet):
    with criterion(5, "partition theorem on every lattice node of the fleet", 30.0):
        for key in FLEET_KEYS_ORDER_729:
            G = fleet[key]
            classes = c.z_star_partition(G)
            for node in c.build_lattice(G).nodes:
                union = 0
                for cl in classes:
                    if cl.ecenter.issubset(node):
                        assert union & cl.members.mask == 0, key
                        union |= cl.members.mask
                assert union == node.mask, key
                assert G.center.issubset(node)  # Z(G) always participates


def test_criterion_6_moebius_congruences(fleet):
    with criterion(6, "Möbius congruences across the p-group fleet", 120.0):
        for key in MOEBIUS_FLEET:
            G = fleet[key]
            r1 = c.check_class_size_congruence(G)
            assert r1.ok, (key, [l.label for l in r1.lines if not l.passed])
            r2 = c.check_mob_sums(G)
            assert r2.ok, (key, [l.label for l in r2.lines if not l.passed])
            assert all(line.rhs == -1 for line in r2.lines)


def test_criterion_7_f_group_corollaries(fleet):
    with criterion(7, "F-group counting corollaries", 10.0):
        expected_z_counts = {"D8": 3, "Q8": 3, "H3": 4, "H5": 6}
        for key, count in expected_z_counts.items():
            G = fleet[key]
            p = c.p_group_prime(G.order)
            rep = c.check_f_group_counts(G, p)
            assert rep.ok, key
            total = [l for l in rep.lines if l.label.startswith("number of")]
            assert total[0].lhs == count and total[0].lhs % p == 1 % p
            for line in rep.lines:
                if line.label.startswith(("centers within", "centralizers above")):
                    assert line.lhs == 1  # frozen: all four groups have count exactly 1


def test_criterion_8_graph_degree_formulas(fleet):
    with criterion(8, "graph degree formulas + residue witness", 30.0):
        for key in FLEET_KEYS_ORDER_729:
            G = fleet[key]
            z = len(G.center)
            com = c.commuting_graph(G)
            for x, deg in zip(com.vertex_ids, com.degrees()):
                assert deg == G.cent_masks[x].bit_count() - z - 1, key
            tg = c.transversal_graph(G)
            for x, deg in zip(tg.vertex_ids, tg.degrees()):
                assert deg == G.cent_masks[x].bit_count() // z - 2, key
            p = c.p_group_prime(G.order)
            if c.is_f_group(G):
                for deg in c.centralizer_graph(G).degrees():
                    assert deg % p == 0, key
        # at least one non-F fleet member has mixed residues (UT4(2) does;
        # the direct products are non-F but residue-uniform)
        mixed = []
        for key in FLEET_KEYS_ORDER_729:
            G = fleet[key]
            if c.is_f_group(G):
                continue
            p = c.p_group_prime(G.order)
            residues = {deg % p for deg in c.centralizer_graph(G).degrees()}
            if len(residues) > 1:
                mixed.append(key)
        assert mixed, "no non-F fleet group with mixed residues"


def test_criterion_9_smallgroup_2187_conditional(fleet):
    G = load_smallgroup_3_7_261()
    if G is None:
        print(
            "[criterion  9] SmallGroup(3^7,261) center-poset facts: SKIPPED "
            "(no imported table; the order-729 non-F 3-group H3xH3 stands in)"
        )
        stand_in = fleet["H3xH3"]
        assert stand_in.order == 729
        assert c.p_group_prime(stand_in.order) == 3
        assert not c.is_f_group(stand_in)
        assert c.check_mob_sums(stand_in).ok
        pytest.skip("SmallGroup(3^7,261) table not provided")
    with criterion(9, "SmallGroup(3^7,261) center-poset facts", 300.0):
        assert G.order == 2187
        poset = c.center_poset(G)
        table = c.moebius(poset)
        assert len(poset.nodes) == 101
        nonmin = [m for i, m in enumerate(table.mu) if i != poset.min_index]
        assert len(nonmin) == 100
        assert sorted(nonmin).count(3) == 3
        assert sorted(nonmin).count(-1) == 4
        assert sorted(nonmin).count(0) == 93
        assert sum(nonmin) == 5
        assert sum(nonmin) % 3 == (-1) % 3


def _cli(*args):
    res = subprocess.run(
        [sys.executable, "-m", "centra", *args], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical analyze/emit runs", 120.0):
        for args in (
            ("analyze", "--builtin", "dihedral:8", "--format", "json"),
            ("analyze", "--builtin", "quaternion8", "--format", "json"),
            ("analyze", "--product", "dihedral:8,dihedral:8", "--format", "json"),
        ):
            assert _cli(*args) == _cli(*args)
            json.loads(_cli(*args))  # and it is valid JSON
        for spec, artifact in (
            ("dihedral:8", "lattice-dot"),
            ("dihedral:8", "degrees-csv"),
            ("heisenberg:3", "poset-dot"),
            ("quaternion8", "commuting-dot"),
            ("quaternion8", "centgraph-dot"),
        ):
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            _cli("emit", "--builtin", spec, artifact, str(a))
            _cli("emit", "--builtin", spec, artifact, str(b))
            assert a.read_bytes() == b.read_bytes()
