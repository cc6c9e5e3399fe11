import json
from dataclasses import asdict

import pytest

import centra as c
from centra.moebius import p_group_prime
from conftest import (
    ORDER_FLEET,
    extraspecial_32,
    former_f_group_counts,
    former_mob_sums,
    leq_moebius,
    node_leq,
)


class TestMoebiusFunction:
    def test_single_node_poset(self):
        G = c.builtin_group("cyclic", 4)
        table = c.moebius(c.center_poset(G))
        assert table.mu == (1,)

    def test_d8_by_hand(self, d8):
        poset = c.center_poset(d8)
        table = c.moebius(poset)
        # min gets 1; the three order-4 centers sit directly above it
        assert table.mu[poset.min_index] == 1
        assert sorted(table.mu) == [-1, -1, -1, 1]

    def test_recursion_reverified_independently(self, fleet):
        for G in fleet.values():
            poset = c.center_poset(G)
            table = c.moebius(poset)
            k = len(poset.nodes)
            for i in range(k):
                below = sum(table.mu[j] for j in range(k) if j != i and node_leq(poset, j, i))
                if i == poset.min_index:
                    assert table.mu[i] == 1
                else:
                    assert table.mu[i] == -below

    @pytest.mark.parametrize("name", ORDER_FLEET)
    def test_matches_leq_recursion(self, order_fleet, name):
        poset = c.center_poset(order_fleet[name])
        assert list(c.moebius(poset).mu) == leq_moebius(poset)

    def test_value_lookup_by_subgroup(self, d8):
        poset = c.center_poset(d8)
        table = c.moebius(poset)
        a_sub = c.closure(d8, [1])  # Z(a) = <a>
        assert table.value(a_sub) == -1

    def test_ut42_has_a_zero_mu_node(self, fleet):
        # non-F structure: a center strictly between min and another center
        table = c.moebius(c.center_poset(fleet["UT4_2"]))
        assert 0 in table.mu


class TestPGroupPrime:
    @pytest.mark.parametrize("order,expected", [(8, 2), (27, 3), (2, 2), (729, 3), (6, None), (12, None), (1, None)])
    def test_values(self, order, expected):
        assert p_group_prime(order) == expected


class TestClassSizeCongruence:
    def test_d8_lines(self, d8):
        rep = c.check_class_size_congruence(d8)
        assert rep.ok and rep.p == 2
        by_label = {line.label: line for line in rep.lines}
        line = by_label["class of a"]
        assert line.lhs == 1 and line.rhs == -1
        assert line.lhs_mod == line.rhs_mod == 1

    def test_abelian_p_group(self):
        G = c.builtin_group("cyclic", 8)
        rep = c.check_class_size_congruence(G)
        assert rep.ok
        assert len(rep.lines) == 1 and rep.lines[0].lhs == 1 and rep.lines[0].rhs == 1

    def test_heisenberg3_ratios(self, h3):
        rep = c.check_class_size_congruence(h3)
        assert rep.ok
        noncentral = [line for line in rep.lines if line.label != "class of 1"]
        assert len(noncentral) == 4
        assert all(line.lhs == 2 and line.rhs == -1 for line in noncentral)

    def test_whole_fleet_passes(self, fleet):
        for G in fleet.values():
            assert c.check_class_size_congruence(G).ok

    def test_rejects_non_p_group(self, s3):
        with pytest.raises(ValueError, match="not a p-group"):
            c.check_class_size_congruence(s3)

    def test_rejects_wrong_p(self, d8):
        with pytest.raises(ValueError, match="not a power"):
            c.check_class_size_congruence(d8, 3)


class TestMobSums:
    def test_d8_sum_at_top(self, d8):
        rep = c.check_mob_sums(d8)
        assert rep.ok
        top = [line for line in rep.lines if line.label == "centers within D8"]
        assert len(top) == 1 and top[0].lhs == -3

    def test_heisenberg3_sum_at_top(self, h3):
        rep = c.check_mob_sums(h3)
        assert rep.ok
        top = [line for line in rep.lines if line.label == "centers within H3"]
        assert top[0].lhs == -4

    def test_every_line_minus_one(self, fleet):
        for G in fleet.values():
            rep = c.check_mob_sums(G)
            assert rep.ok, [line for line in rep.lines if not line.passed]
            assert all(line.rhs == -1 for line in rep.lines)

    def test_covers_both_directions(self, d8):
        rep = c.check_mob_sums(d8)
        labels = {line.label for line in rep.lines}
        # 4 nodes above Z(G) and 4 nodes below G, out of 5 lattice nodes
        assert sum(1 for lab in labels if lab.startswith("centers within")) == 4
        assert sum(1 for lab in labels if lab.startswith("centralizers above")) == 4

    def test_matches_former_scan(self, fleet, order_fleet, ut43xc3, ut52):
        """The up-set sums give the former node-by-class scan's report, line
        for line, on the fleet, UT(4,3), UT(4,3)xC3 and UT(5,2)."""
        groups = [*fleet.values(), order_fleet["UT4_3"], ut43xc3, ut52]
        for G in groups:
            assert c.check_mob_sums(G).as_dict() == former_mob_sums(G), G.name

    def test_rejects_abelian(self):
        with pytest.raises(ValueError, match="abelian"):
            c.check_mob_sums(c.builtin_group("cyclic", 4))

    def test_rejects_non_p_group(self, s4):
        with pytest.raises(ValueError, match="not a p-group"):
            c.check_mob_sums(s4)


class TestFGroupCounts:
    def test_q8_counts_are_one(self, q8):
        rep = c.check_f_group_counts(q8)
        assert rep.ok
        within = [line for line in rep.lines if line.label.startswith("centers within")]
        assert len(within) == 3 and all(line.lhs == 1 for line in within)
        total = [line for line in rep.lines if line.label.startswith("number of")]
        assert total[0].lhs == 3

    @pytest.mark.parametrize(
        "key,expected_count",
        [("D8", 3), ("Q8", 3), ("H3", 4), ("H5", 6)],
    )
    def test_center_counts(self, fleet, key, expected_count):
        rep = c.check_f_group_counts(fleet[key])
        assert rep.ok
        total = [line for line in rep.lines if line.label.startswith("number of")]
        assert total[0].lhs == expected_count and total[0].rhs == 1

    def test_mu_minus_one_rows_exact(self, fleet):
        for key in ("D8", "Q8", "D16", "H3", "H5", "D8xC2"):
            rep = c.check_f_group_counts(fleet[key])
            mu_rows = [line for line in rep.lines if line.label.startswith("mu at")]
            assert mu_rows and all(line.lhs == -1 and line.passed for line in mu_rows)

    def test_matches_former_scan(self, fleet):
        """Both per-class counts, read at the node of C(x), give the former
        class-by-class scan's report, line for line, on every F-group of the
        fleet, and on 2^(1+4), where C(x) is not Z(x) and the counts are 7."""
        groups = [fleet[key] for key in ("D8", "Q8", "D16", "H3", "H5", "D8xC2")]
        for G in groups + [extraspecial_32()]:
            assert c.check_f_group_counts(G).as_dict() == former_f_group_counts(G), G.name

    def test_rejects_non_f_group(self, fleet):
        with pytest.raises(ValueError, match="not an F-group"):
            c.check_f_group_counts(fleet["D8xD8"])


class TestOncePerGroup:
    """Each congruence report is built once per group, at its own prime; the
    refusals run on every call."""

    CHECKS = (c.check_class_size_congruence, c.check_mob_sums, c.check_f_group_counts)

    def test_second_call_returns_same_report(self, fleet):
        for key in ("D8", "Q8", "H3"):
            G = fleet[key]
            for check in self.CHECKS:
                first = check(G)
                assert check(G) is first and check(G, p_group_prime(G.order)) is first
                assert first.p == p_group_prime(G.order)

    def test_memo_is_per_group(self, d8):
        twin = c.Group(d8.table, d8.labels, d8.name)
        for check in self.CHECKS:
            assert check(twin) is not check(d8)
            assert check(twin).as_dict() == check(d8).as_dict()

    def test_refusals_unchanged_after_a_report(self, fleet, s4):
        refusals = [
            (check, G, p, match)
            for check in self.CHECKS
            for G, p, match in ((fleet["D8"], 3, "not a power of p=3"), (s4, None, "not a p-group"))
        ]
        abelian = c.builtin_group("cyclic", 8)
        refusals += [(check, abelian, None, "abelian") for check in self.CHECKS[1:]]
        refusals.append((c.check_f_group_counts, fleet["D8xD8"], None, "not an F-group"))
        for check, G, p, match in refusals:
            for _ in range(2):
                with pytest.raises(ValueError, match=match):
                    check(G, p)
        c.check_class_size_congruence(abelian)  # a p-group: its report is memoised
        for G in (fleet["D8"], fleet["D8xD8"]):
            c.check_class_size_congruence(G)
            c.check_mob_sums(G)
        for check, G, p, match in refusals:
            with pytest.raises(ValueError, match=match):
                check(G, p)


class TestReportShape:
    def test_as_dict_is_asdict_plus_ok(self, fleet):
        reports = [
            check(G)
            for G in fleet.values()
            for check in TestOncePerGroup.CHECKS
            if check is not c.check_f_group_counts or c.is_f_group(G)
        ]
        assert {r.check for r in reports} == {"class_size_congruence", "mob_sums", "f_group_counts"}
        for rep in reports:
            expected = asdict(rep) | {"ok": rep.ok}
            assert rep.as_dict() == expected
            assert json.dumps(rep.as_dict()) == json.dumps(expected)  # key order, nested too

    def test_as_dict_roundtrips_to_json(self, d8):
        rep = c.check_mob_sums(d8)
        blob = json.dumps(rep.as_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["ok"] is True and back["p"] == 2
        assert all(
            set(line) == {"label", "lhs", "rhs", "lhs_mod", "rhs_mod", "passed"}
            for line in back["lines"]
        )
