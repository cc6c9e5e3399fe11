"""End-to-end CLI tests via subprocess: real exit codes, real bytes."""

import hashlib
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import centra as c
from conftest import c1024_intercalate_table


def run_cli(*args, env_extra=None, cwd=None, timeout=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "centra", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def schema():
    with resources.files("centra").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


class TestAnalyze:
    def test_d8_json(self, schema):
        res = run_cli("analyze", "--builtin", "dihedral:8", "--format", "json")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        jsonschema.validate(report, schema)
        assert report["lattice"]["node_count"] == 5
        assert report["center_poset"]["noncentral_node_count"] == 3
        assert report["group"]["f_group"] is True
        assert report["group"]["p"] == 2
        assert report["ok"] is True

    def test_abelian_degenerate(self, schema):
        res = run_cli("analyze", "--builtin", "cyclic:5", "--format", "json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        jsonschema.validate(report, schema)
        assert report["group"]["abelian"] is True
        assert report["lattice"]["node_count"] == 1
        assert report["graphs"] is None
        assert any("skipped" in note for note in report["notices"])

    def test_product_non_f_with_witness(self, schema):
        res = run_cli("analyze", "--product", "dihedral:8,dihedral:8", "--format", "json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        jsonschema.validate(report, schema)
        assert report["group"]["f_group"] is False
        assert report["group"]["f_chain_witness"] is not None
        assert len(report["group"]["f_chain_witness"]) == 2

    def test_table_and_gens_sources(self, tmp_path, schema):
        q8 = c.builtin_group("quaternion8")
        tbl = tmp_path / "q8.tbl"
        tbl.write_text(c.cayley_table_text(q8))
        res = run_cli("analyze", "--table", str(tbl), "--format", "json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        jsonschema.validate(report, schema)
        assert report["group"]["order"] == 8

        gens = tmp_path / "s3.gens"
        gens.write_text("perm 3\n(1,2)\n(1,2,3)\n")
        res = run_cli("analyze", "--gens", str(gens), "--format", "json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["group"]["order"] == 6

    def test_text_format(self):
        res = run_cli("analyze", "--builtin", "quaternion8")
        assert res.returncode == 0
        assert "lattice: 5 nodes" in res.stdout
        assert "ok: True" in res.stdout

    def test_product_with_file_atom(self, tmp_path):
        q8 = c.builtin_group("quaternion8")
        tbl = tmp_path / "q8.tbl"
        tbl.write_text(c.cayley_table_text(q8))
        res = run_cli("analyze", "--product", f"table:{tbl},cyclic:2", "--format", "json")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["group"]["order"] == 16
        assert report["ok"] is True

    def test_ut42_via_generator_file(self, tmp_path, schema):
        import itertools

        from centra.perm import Permutation

        # UT(4,2) from its three superdiagonal transvections acting on F_2^4
        pts = list(itertools.product(range(2), repeat=4))
        index = {v: i for i, v in enumerate(pts)}

        def transvection_perm(i, j):
            images = []
            for v in pts:
                w = list(v)
                w[i] = (w[i] + v[j]) % 2
                images.append(index[tuple(w)])
            return Permutation(images)

        lines = ["perm 16"]
        for i, j in ((0, 1), (1, 2), (2, 3)):
            lines.append(transvection_perm(i, j).cycle_string())
        gens_path = tmp_path / "ut42.gens"
        gens_path.write_text("\n".join(lines) + "\n")
        res = run_cli("analyze", "--gens", str(gens_path), "--format", "json")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        jsonschema.validate(report, schema)
        assert report["group"]["order"] == 64
        assert report["group"]["f_group"] is False
        assert report["ok"] is True


class TestVerify:
    def test_quaternion_all_suites(self):
        res = run_cli("verify", "--builtin", "quaternion8", "--suite", "all")
        assert res.returncode == 0, res.stdout
        assert "0 failed" in res.stdout
        assert "[FAIL]" not in res.stdout

    def test_heisenberg_moebius_suite(self):
        res = run_cli("verify", "--builtin", "heisenberg:3", "--suite", "moebius")
        assert res.returncode == 0
        assert "moebius/class_size_congruence" in res.stdout
        assert "moebius/mob_sums" in res.stdout

    def test_suite_choices_enforced(self):
        res = run_cli("verify", "--builtin", "dihedral:8", "--suite", "bogus")
        assert res.returncode == 2

    def test_verify_imported_table_moebius(self, tmp_path):
        h3 = c.builtin_group("heisenberg", 3)
        tbl = tmp_path / "h3.tbl"
        tbl.write_text(c.cayley_table_text(h3))
        res = run_cli("verify", "--table", str(tbl), "--suite", "moebius")
        assert res.returncode == 0
        assert "moebius/class_size_congruence" in res.stdout
        assert "0 failed" in res.stdout


class TestEmit:
    def test_lattice_dot_hasse(self, tmp_path):
        out = tmp_path / "d8.dot"
        res = run_cli("emit", "--builtin", "dihedral:8", "lattice-dot", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.count("->") == 6
        for name in ("<a^2>", "<a>", "<a^2,b>", "<a^2,ab>", "D8"):
            assert f'"{name}"' in text

    def test_lattice_dot_closure_arrows(self, tmp_path):
        out = tmp_path / "d8_full.dot"
        res = run_cli(
            "emit", "--builtin", "dihedral:8", "lattice-dot", str(out), "--closure-arrows"
        )
        assert res.returncode == 0
        text = out.read_text()
        # 5 lattice nodes + 5 non-fixed-point subgroups, each with a dashed arrow
        assert text.count("style=bold") == 5
        assert text.count("style=dashed") == 5
        assert '"<b>"' in text and '"1"' in text

    @pytest.mark.parametrize("builtin, sha256", [
        ("dihedral:8", "8e9a59642196b00c57358a54f2e22f26eee25b4b595674f678496e30a40b9d90"),
        ("symmetric:4", "47a73d6d025278f6b74ffaf787912391685c8f539e9c520bab44ef7e6df03c5b"),
    ])
    def test_lattice_dot_closure_arrows_golden(self, tmp_path, builtin, sha256):
        out = tmp_path / "lattice.dot"
        res = run_cli("emit", "--builtin", builtin, "lattice-dot", str(out), "--closure-arrows")
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_commuting_dot_s3(self, tmp_path):
        out = tmp_path / "s3.dot"
        res = run_cli("emit", "--builtin", "symmetric:3", "commuting-dot", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.count("[label=") == 5
        assert text.count("--") == 1

    def test_degrees_csv_d8(self, tmp_path):
        out = tmp_path / "d8.csv"
        res = run_cli("emit", "--builtin", "dihedral:8", "degrees-csv", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "vertex,degree,residue_mod_p"
        assert len(lines) == 7
        assert all(line.endswith(",1,1") for line in lines[1:])

    def test_poset_dot_has_mu(self, tmp_path):
        out = tmp_path / "h3.dot"
        res = run_cli("emit", "--builtin", "heisenberg:3", "poset-dot", str(out))
        assert res.returncode == 0
        assert "mu=-1" in out.read_text()

    def test_centgraph_dot(self, tmp_path):
        out = tmp_path / "q8.dot"
        res = run_cli("emit", "--builtin", "quaternion8", "centgraph-dot", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.count("[label=") == 3 and "--" not in text


class TestExitCodes:
    def test_unknown_spec_is_usage_error(self):
        res = run_cli("analyze", "--builtin", "alternating:5")
        assert res.returncode == 2
        assert "centra:" in res.stderr

    @pytest.mark.parametrize("flag,spec,param", [
        ("--builtin", "cyclic:abc", "abc"),
        ("--builtin", "cyclic:3:4", "3:4"),
        ("--product", "cyclic:2,dihedral:8x", "8x"),
    ])
    def test_non_integer_parameter_is_usage_error(self, flag, spec, param):
        res = run_cli("analyze", flag, spec)
        atom = spec.split(",")[-1]
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"centra: group spec {atom!r}: parameter {param!r} is not an integer\n"

    def test_product_arity_enforced(self):
        res = run_cli("analyze", "--product", "cyclic:2,cyclic:2,cyclic:2")
        assert res.returncode == 2
        assert "two" in res.stderr

    def test_missing_group_spec(self, tmp_path):
        for command in (["analyze"], ["verify"], ["emit", "poset-dot", str(tmp_path / "out.dot")]):
            res = run_cli(*command)
            assert res.returncode == 2
            assert res.stdout == ""
            assert "one of the arguments --builtin --table --gens --product is required" in res.stderr

    @pytest.mark.parametrize("second", [["--table", "/nonexistent"], ["--gens", "/nonexistent"],
                                        ["--product", "cyclic:2,cyclic:2"]])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_two_group_specs_are_usage_error(self, command, second):
        res = run_cli(command, "--builtin", "dihedral:8", *second)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "not allowed with argument" in res.stderr

    def test_unreadable_table_is_io_error(self):
        res = run_cli("analyze", "--table", "/nonexistent/nowhere.tbl")
        assert res.returncode == 3

    def test_bad_table_content_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.tbl"
        bad.write_text("2\n0 1\n0 1\n")
        res = run_cli("analyze", "--table", str(bad))
        assert res.returncode == 2
        assert "latin" in res.stderr or "identity" in res.stderr

    @pytest.mark.parametrize("entry", ["4294967296", "65536"])
    def test_out_of_range_table_entry_is_usage_error(self, tmp_path, entry):
        """An entry past int32 or uint16 is refused, not wrapped around."""
        path = tmp_path / "big.tbl"
        path.write_text(f"2\n0 1\n1 {entry}\n")
        res = run_cli("analyze", "--table", str(path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "centra: range: entries of big are not all integers in 0..1\n", res.stderr

    def test_nonassociative_table_is_usage_error(self, tmp_path):
        table = c1024_intercalate_table()
        path = tmp_path / "c1024.tbl"
        path.write_text(f"{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table.tolist()))
        res = run_cli("analyze", "--table", str(path))
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("centra: associativity:"), res.stderr

    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_non_positive_generator_degree_is_usage_error(self, tmp_path, degree):
        gens = tmp_path / "empty.gens"
        gens.write_text(f"perm {degree}\n")
        res = run_cli("analyze", "--gens", str(gens))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"centra: {gens}: degree must be positive, got {degree}\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_usage_error(self, command, samples):
        res = run_cli(command, "--builtin", "dihedral:16", "--samples", samples)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"centra: samples must be at least 1, got {samples}\n"

    def test_emit_to_unwritable_path_is_io_error(self, tmp_path):
        res = run_cli("emit", "--builtin", "dihedral:8", "lattice-dot", str(tmp_path / "no" / "dir.dot"))
        assert res.returncode == 3

    def test_table_bytes_env(self):
        res = run_cli(
            "analyze", "--builtin", "symmetric:4", env_extra={"CENTRA_TABLE_BYTES": str(2 * 20 * 20)}
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (
            "centra: S4 order 24 exceeds 20, the largest order whose table fits in CENTRA_TABLE_BYTES\n"
        )

    def test_product_at_and_above_the_table_budget(self):
        at = run_cli("analyze", "--product", "cyclic:3,dihedral:8", env_extra={"CENTRA_TABLE_BYTES": str(2 * 24 * 24)})
        assert at.returncode == 0, at.stderr
        above = run_cli("analyze", "--product", "cyclic:3,dihedral:8",
                        env_extra={"CENTRA_TABLE_BYTES": str(2 * 24 * 24 - 1)})
        assert above.returncode == 2
        assert above.stdout == ""
        assert above.stderr == (
            "centra: C3xD8 order 24 exceeds 23, the largest order whose table fits in CENTRA_TABLE_BYTES\n"
        )

    @pytest.mark.parametrize("spec,message", [
        ("symmetric:1000000", "S1000000 order 1000000! exceeds 23170"),
        ("heisenberg:1000000000000000003", f"H1000000000000000003 order {(10**18 + 3) ** 3} exceeds 23170"),
        ("cyclic:23171", "C23171 order 23171 exceeds 23170"),
        ("cyclic:100000000000", "C100000000000 order 100000000000 exceeds 23170"),
        ("dihedral:100000000002", "D100000000002 order 100000000002 exceeds 23170"),
    ])
    def test_huge_builtin_is_refused_at_once(self, spec, message):
        # n! and the primality test of p are not worked out before the check,
        # nor any array that grows with the order
        res = run_cli("analyze", "--builtin", spec, env_extra={"CENTRA_TABLE_BYTES": str(2**30)}, timeout=5)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"centra: {message}, the largest order whose table fits in CENTRA_TABLE_BYTES\n"

    @pytest.mark.parametrize("raw", ["0", "-1", "1GB", ""])
    def test_bad_table_bytes_is_usage_error(self, raw):
        res = run_cli("analyze", "--builtin", "dihedral:8", env_extra={"CENTRA_TABLE_BYTES": raw})
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"centra: CENTRA_TABLE_BYTES must be a positive integer number of bytes, got {raw!r}\n"

    def test_abelian_graph_emit_is_usage_error(self, tmp_path):
        res = run_cli("emit", "--builtin", "cyclic:4", "commuting-dot", str(tmp_path / "x.dot"))
        assert res.returncode == 2
        assert "abelian" in res.stderr


class TestCheckFailureExit:
    """Exit code 1 is reserved for falsified checks; force one through the
    suite runner to exercise the plumbing."""

    def test_verify_exit_one_on_failure(self, monkeypatch, capsys):
        import centra.cli as cli
        from centra.checks import PropertyResult

        def fake_suite(G, suite, *, seed=0, samples=0):
            return [PropertyResult("algebra/doom", "fail", "", witness="S={1}")]

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        code = cli.main(["verify", "--builtin", "dihedral:8", "--suite", "algebra"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out and "S={1}" in out

    def test_analyze_exit_one_on_failure(self, monkeypatch, capsys):
        import centra.cli as cli
        from centra.checks import PropertyResult

        def fake_suite(G, suite, *, seed=0, samples=0):
            return [PropertyResult("lattice/doom", "fail", "", witness="node 3")]

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        code = cli.main(["analyze", "--builtin", "quaternion8", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False

    @pytest.mark.parametrize("key,check,name", [
        ("class_size", c.check_class_size_congruence, "class_size_congruence"),
        ("mob_sums", c.check_mob_sums, "mob_sums"),
        ("f_group_counts", c.check_f_group_counts, "f_group_counts"),
    ])
    def test_failing_congruence_line_fails_report_and_its_check(self, key, check, name):
        """A congruence report's ``ok`` reaches the report's ``ok`` through the
        moebius suite's check of the same name, with the line as witness."""
        from centra.cli import build_report

        G = c.builtin_group("dihedral", 8)
        line = check(G).lines[-1]  # the memoised report, which build_report reads
        line.passed = False
        report = build_report(G, G.name)
        assert report["congruences"][key]["ok"] is False
        results = {r["name"]: r for r in report["checks"]}
        assert results[f"moebius/{name}"]["status"] == "fail"
        assert results[f"moebius/{name}"]["witness"] == line.label
        assert [r for r in results.values() if r["status"] == "fail"] == [results[f"moebius/{name}"]]
        assert report["ok"] is False


class TestInternalErrorExit:
    """A broken invariant or an exhausted heap ends in exit code 4 with one
    line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "exc,message",
        [
            (c.InvariantViolation("dual of a lattice node is not a node"),
             "dual of a lattice node is not a node"),
            (MemoryError(), "MemoryError"),
        ],
    )
    def test_internal_error_exit_four(self, monkeypatch, capsys, exc, message):
        import centra.cli as cli

        def broken_report(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "build_report", broken_report)
        code = cli.main(["analyze", "--builtin", "dihedral:8"])
        assert code == 4
        assert capsys.readouterr().err == f"centra: internal error: {message}\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("analyze", "--builtin", "dihedral:8", "--format", "json"),
            ("analyze", "--product", "dihedral:8,cyclic:2", "--format", "json"),
            ("verify", "--builtin", "quaternion8", "--suite", "algebra"),
        ],
    )
    def test_stdout_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("artifact", ["lattice-dot", "poset-dot", "commuting-dot", "centgraph-dot", "degrees-csv"])
    def test_emitted_files_byte_identical(self, tmp_path, artifact):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert run_cli("emit", "--builtin", "dihedral:8", artifact, str(a)).returncode == 0
        assert run_cli("emit", "--builtin", "dihedral:8", artifact, str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
