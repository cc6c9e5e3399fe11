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

    @pytest.mark.parametrize("flag, first, second", [
        ("--builtin", "dihedral:8", "cyclic:3"),
        ("--builtin", "dihedral:8", "dihedral:8"),
        ("--table", "/nonexistent", "/nonexistent"),
        ("--gens", "/nonexistent", "/other"),
        ("--product", "cyclic:2,cyclic:2", "cyclic:2,cyclic:3"),
    ])
    def test_repeated_group_spec_is_usage_error(self, flag, first, second):
        res = run_cli("analyze", flag, first, flag, second)
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"error: argument {flag}: given more than once" in res.stderr

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


# sha256 of every output for twelve groups: the stdout of analyze (json and
# text) and verify, and the bytes of each emitted artifact.  C12 is abelian,
# so it has no graph artifacts.  A change that alters any output on purpose
# updates its value here.
FLEET_SHA256 = {
    "analyze --builtin dihedral:8 --format json": "4c150ed47df1d0e271946d18ea25d2fb24c4ee8ebc14d71c1382e6a8966371d0",
    "analyze --builtin dihedral:8 --format text": "6825bc67a2159f79a8a3c7f9c52eed7843fde74c37ba2c2498b73deb11fb6901",
    "verify --builtin dihedral:8": "c8a973a796e04627fe2ee7093fc6cdc3e2a6d28fb3f639690be3575e6cd9fcae",
    "emit --builtin dihedral:8 lattice-dot": "d2344f3310913205c450bab25c9d2efe5ea3a9771c10d3ad264598378d4f1af2",
    "emit --builtin dihedral:8 poset-dot": "652db8ac15b410c06665cb4947357605940d60687d413235bc2491071d9f14bc",
    "emit --builtin dihedral:8 commuting-dot": "3c5fd913ae6392bcd8e2f9f9d878f7b1b3d055ec34a2f468c81b1f844324a240",
    "emit --builtin dihedral:8 centgraph-dot": "c003495bcf56f5350d60aca2fcd66f0f9518196be29a979d2182e78d86fd6d6f",
    "emit --builtin dihedral:8 degrees-csv": "8688ee2dbd3fc436f4155595bde4f8a2f8d4961c86e1b0ce45eca8966a56735b",
    "analyze --builtin quaternion8 --format json": "c1ad8715ad4896263f85a687d378abb4d9adfb9c6cb4f7bcda51d63e9c0cdc05",
    "analyze --builtin quaternion8 --format text": "fe5e033ea6669ec751857e2d7cbe567098cf906251ae685dd5d636ee312a7e10",
    "verify --builtin quaternion8": "849f0158d113820538fd346ce970454c9737377553127c7ba89791558af288a2",
    "emit --builtin quaternion8 lattice-dot": "4d10aa6de00622d775d1ad2a77db3c2d5b3abc4ac6018d87a54b286049e5ad8b",
    "emit --builtin quaternion8 poset-dot": "2c8cfa3f8b8e4a7e7e0d60c07ee4a8dd766725b2b433cd74ceddeaf722d2440d",
    "emit --builtin quaternion8 commuting-dot": "28e0cb6ac94759982f80fc1ab6d35268007ab58b53aa452f8def6c65539cfc1f",
    "emit --builtin quaternion8 centgraph-dot": "6782505ad338aa481eb2d3d5256db4cda64f6b599a30ed35ac285363b11f1a91",
    "emit --builtin quaternion8 degrees-csv": "fca662c9ab08a0247455693464bae20ea287251634fbda9b7a005a56edab5c7c",
    "analyze --builtin symmetric:4 --format json": "22106b66c732502c98cfc559ce99e744730b378339ccdc433caf28370f908d90",
    "analyze --builtin symmetric:4 --format text": "b25be17d09b2c5d3fbb3ad4b4bec5f48a5ba36a037b9ca3c32e7bc3ac49ba10f",
    "verify --builtin symmetric:4": "13296f3381c251edfd4b1850793a1297b476fdb9ac2e316ffca412ce52403d43",
    "emit --builtin symmetric:4 lattice-dot": "5e4bfdd1e3d48eb4e2e10b3d285cf2e04b5f0c24eddfe44f8507717492b4369b",
    "emit --builtin symmetric:4 poset-dot": "aa1e45db17c17a29dfdd9f029b9ebb8be81fe33867fea76fbf20b77f05f2189d",
    "emit --builtin symmetric:4 commuting-dot": "b9c5d43bf1aad24588c7c4c3a15066d1e29c58f995fffc7966ab938cf818302f",
    "emit --builtin symmetric:4 centgraph-dot": "0a9e8f8053c5ff87ad97488057220e129d1516b514fbf9b50021308c151169df",
    "emit --builtin symmetric:4 degrees-csv": "3c70ca1f7f7c8e075bfefd565c1ecf844e50f42d263f256235ddcaa691f2e44f",
    "analyze --builtin symmetric:5 --format json": "666bc6767fc6f60e43e5d4c7a1e61ecd24cbd4deb6c08347884914a32b4058f8",
    "analyze --builtin symmetric:5 --format text": "fbe1182bbab5cfc0c112757985f29ea25c15ed78f7d65fef52b4d7c8b3b3851f",
    "verify --builtin symmetric:5": "9a66b20db4a15614a414d7f379b9cdd9d645e7c2cbba571ba34120e72876f1d6",
    "emit --builtin symmetric:5 lattice-dot": "c554466e2668d1033fde7d3dfde4c82e8353c4fa25ada4f3fe61246c532d3b3a",
    "emit --builtin symmetric:5 poset-dot": "8ae994645f4a4ba94428535a9fc866791748659d6fc86d9f3f6a230d11ee56d4",
    "emit --builtin symmetric:5 commuting-dot": "0db882ec5af68ae50d471f04feda6005cb8fabf50c46c42204bc9e96958aad6a",
    "emit --builtin symmetric:5 centgraph-dot": "c45c6ef8f606735ba23d1cfed9fde30d44962cfb0572c078a69503c5f4dee41b",
    "emit --builtin symmetric:5 degrees-csv": "337f3fffae841a15ebb13843bb4b22a60ec93eea3e25da337eef8d9c9e84a930",
    "analyze --builtin symmetric:6 --format json": "909e471c8b937a4528cb59ad9527afd7f1db7824a7eb19d91104ff96ff9f00fa",
    "analyze --builtin symmetric:6 --format text": "a005d57883515eb3b10dc5e71a1e95419f1a4d6734e68d6611fc172fef4e46cc",
    "verify --builtin symmetric:6": "2cd0952f6e62afb5f93a63225f52c087ca7aafe1b6f859d94c4de62c8c84b125",
    "emit --builtin symmetric:6 lattice-dot": "d97717cc3901f3c2ec3f4b509b8db4ee24b4d2c018ae2fe319a5d123b9a21e5a",
    "emit --builtin symmetric:6 poset-dot": "32ed1b056467218da7824cd0402b92819ab10d91a4c9052aab17ee4ecea0ed20",
    "emit --builtin symmetric:6 commuting-dot": "90bb88ec85d7e0713878ecf7b64bfeaa60b66e1d21a34e2e19750653b3cbc449",
    "emit --builtin symmetric:6 centgraph-dot": "45382d8be6cda83e40e0bed120a66215b43847066777ec361ccf08c1460d36bf",
    "emit --builtin symmetric:6 degrees-csv": "359c398bbd34223828ac3ce81433150117ca28ca4e4078ae8b1143f9a91f669b",
    "analyze --builtin heisenberg:3 --format json": "38cb4a9b67683d960be3919731dbdf92e54cedf7a7c9208e4235ffbc4bbbe754",
    "analyze --builtin heisenberg:3 --format text": "13d7d607bb190d42e20d78e8ba6763bdb71f63e9c3bae0e3e5e70caa1404823f",
    "verify --builtin heisenberg:3": "34fba7edac3c2290c8336cdeb9c620a9febf85cfa4d8e32c6dad0b9003fcdbed",
    "emit --builtin heisenberg:3 lattice-dot": "2023563a998a444688dd2e9f2d38c9ededcdcb2d7f44b1c149c3db61748efc67",
    "emit --builtin heisenberg:3 poset-dot": "432f2934cf4a09fd9829ffa460d7b734eb94a7cbe0622a25eb1510fd4ccd504a",
    "emit --builtin heisenberg:3 commuting-dot": "ad25aa3fe4151923f81aa7eea8e87dc07b9e1b49452398921374db7ba8747095",
    "emit --builtin heisenberg:3 centgraph-dot": "5142ea0c68b42276715e6415a4a66cb0b84d53fedb76c3311ef531258ca4aa0c",
    "emit --builtin heisenberg:3 degrees-csv": "b50046d35e7376519a6ba24be85f88a7f7ce1abad73e444b7e2c3765ca8571fe",
    "analyze --builtin heisenberg:5 --format json": "01d8a808c4105e56cf71068748a2b723689b81572c61c63540c4ff171bba2cb5",
    "analyze --builtin heisenberg:5 --format text": "a6e78737a1b04687fc5665868549b1d84e92851d64d7ff36c46edae2602a3bf6",
    "verify --builtin heisenberg:5": "dfcfd1bf5cead2589c1d0797816af808b901d04816bd5ce9e38c12b954aed971",
    "emit --builtin heisenberg:5 lattice-dot": "e2d3b12bb1da64d4a5419ef7574eff5a472b18cdc91c14fe167dba630a049ff9",
    "emit --builtin heisenberg:5 poset-dot": "ccec5ad5f15fed642a05173ca21befceabe888052dfcff2d7fd5cef127f75ac2",
    "emit --builtin heisenberg:5 commuting-dot": "d4bbb3d724d43181ffae0521ddc0871ef98177d74596b97ca70b90ff29836399",
    "emit --builtin heisenberg:5 centgraph-dot": "60b380b39ba519c4d4735147cf28fb1f8c5cbb1ce846ac58a7b98d7d823fa208",
    "emit --builtin heisenberg:5 degrees-csv": "d15694ddd475a8416b35f73760dbf872cd61961fe369cba4ec1f02e2058ceb43",
    "analyze --builtin dihedral:16 --format json": "270a99e607059143844bfe1d7bb3265b72ef3ce37bb730db7252b5d555f045e3",
    "analyze --builtin dihedral:16 --format text": "5bd59cc1025851e7639a667bbe443ea3487aa82e844d76fbe86822ea5a7194bc",
    "verify --builtin dihedral:16": "4f658135c7b8d26d311516351b5b1b8a1afc29dfdb28658bf18d0b499db3a60d",
    "emit --builtin dihedral:16 lattice-dot": "29b3eed21a0e420a34a9054bb93229b2b06d79ce1a2e57d7217556e2f4a24975",
    "emit --builtin dihedral:16 poset-dot": "f77fb102a238082c87b1402c82808ce84ede7a69b6aa4d72049dee9b58e899f1",
    "emit --builtin dihedral:16 commuting-dot": "463e8f3612ed800d41a6cb16d5a1853065cbe8049b345e1b2815df952a2f9cce",
    "emit --builtin dihedral:16 centgraph-dot": "79d06c336c5a16808510fd89e797cb4787eb5ebfa861e79780386e081a0c00ea",
    "emit --builtin dihedral:16 degrees-csv": "d63d8fa921a0085c8a5ddaeafdc4b5e50646f2ab5de280e5934f627fed7ca9be",
    "analyze --builtin cyclic:12 --format json": "ddaaa6b4a200590a96f9d70e3dc52f09e52877042ab00b2af8828f59e4af04c9",
    "analyze --builtin cyclic:12 --format text": "99b9dd11fff3e3b2abf337910108f64a8215464e56efc1b6a1f9d6c5ef590670",
    "verify --builtin cyclic:12": "ae43b030476f3e81cd23f247bba5329c2ade1d6c31ff29532e12a569849d8d73",
    "emit --builtin cyclic:12 lattice-dot": "965619f1fed4bec7efad2f6dbe582dae812914b21d8e3aac0c6a67520a0c440d",
    "emit --builtin cyclic:12 poset-dot": "dac4ad19445d3e24eb01e54b75e2d34a44f837d89894d85fae16998b5dc89b92",
    "analyze --product heisenberg:3,heisenberg:3 --format json": "4db0998cf4b4865362fb8bf70d9f73b48846384408786c724071a76d56691518",
    "analyze --product heisenberg:3,heisenberg:3 --format text": "e8860fc0c492da4f536ef54e93f7c78d2cc406f427bfcbf79110f0fa1d6e3eb1",
    "verify --product heisenberg:3,heisenberg:3": "ba62513870f0895569a4824bbd50c7e75729cb2e7b6efaf5f80141878e931853",
    "emit --product heisenberg:3,heisenberg:3 lattice-dot": "758d48cde8d13ee328e07366d426aed0fbc9b17d00fbce8c939a67fbf7ee8fda",
    "emit --product heisenberg:3,heisenberg:3 poset-dot": "ff34805da5d284408367cadbeb677b595cf0953a5993272b460877674c703694",
    "emit --product heisenberg:3,heisenberg:3 commuting-dot": "2014ed1ffe16729282cedfca4cc2db1d04c1c3513ced476b3e07eb8424b0bc6b",
    "emit --product heisenberg:3,heisenberg:3 centgraph-dot": "a457a6361c682fad0e65f9baa3402b8b789af569f4f413fcfc2593c4c7049dcb",
    "emit --product heisenberg:3,heisenberg:3 degrees-csv": "10d6b56970cd7ec2d30e8520b0eb7b20fe50cb72c96f9967fe03e6050edf45ed",
    "analyze --product dihedral:8,cyclic:3 --format json": "ea6f3bc04a27a2ce250076864ed86b9025fd0cfd639023e0971ccb1c60eee7ca",
    "analyze --product dihedral:8,cyclic:3 --format text": "87ec44776cfb726d0c634277909049ce1e125ae3a4232f5b0e43dd505c4a182b",
    "verify --product dihedral:8,cyclic:3": "bef1d89ef25346aa0700053fa677eb9e4321e77c7698d329c2c9e5cb0427b050",
    "emit --product dihedral:8,cyclic:3 lattice-dot": "cabf509f090b2f1e78e2e1f3564ec4af8349291d1700f3ff2a395f456b6ccacd",
    "emit --product dihedral:8,cyclic:3 poset-dot": "7d45684c5007c38d8953f2ff01aabe723c9097d1e9f5e354c02f110cd3a60169",
    "emit --product dihedral:8,cyclic:3 commuting-dot": "39bdaccba17af5e52ee4fd69463d450a912d28e9fdf7274a432fcf7dcdd2af6a",
    "emit --product dihedral:8,cyclic:3 centgraph-dot": "21807a51685000a06024007c71226e0c173747944ad7ab3de9909eda058c5633",
    "emit --product dihedral:8,cyclic:3 degrees-csv": "2169a18fac58e818d701edf7924220167c459375ba6dc37960f26f32aa35fc3a",
    "analyze --product dihedral:8,symmetric:3 --format json": "267cbe495e2039067d71f8f67018e147b76c307b6fba025c80a9ab62175bd871",
    "analyze --product dihedral:8,symmetric:3 --format text": "d2221b604f2dc24f73a7d8bb023149b7731d52804ccc793b174856b254753229",
    "verify --product dihedral:8,symmetric:3": "d64af49df680db60d57345ddafb3a3f9ccfa7011484788f5fa658a3bbb382113",
    "emit --product dihedral:8,symmetric:3 lattice-dot": "b7d851c0c57e99d6602c73e8070143e7410762b555c4aa37a87851906d01a26e",
    "emit --product dihedral:8,symmetric:3 poset-dot": "cc8122a6db6c27f741f56228a2df0572d803725ec820e01c732e808b3ac3cc21",
    "emit --product dihedral:8,symmetric:3 commuting-dot": "286e05963bdc52354fc940d0912c12d13e10c98a79d25b5c2235ba3a305eb306",
    "emit --product dihedral:8,symmetric:3 centgraph-dot": "e6cc79bd9ad0b0592ae103669fa763dfa51167c0462ac6322e701711798f1118",
    "emit --product dihedral:8,symmetric:3 degrees-csv": "dddf6f098627b5673c86d62450294b1b5306d3c0c1432e84d31b49ade7b759a4",
}


def test_fleet_outputs_byte_identical(tmp_path, capsys):
    from centra import cli

    out = tmp_path / "artifact"
    changed = []
    for command, sha256 in FLEET_SHA256.items():
        argv = command.split()
        emit = argv[0] == "emit"
        code = cli.main(argv + [str(out)] if emit else argv)
        data = out.read_bytes() if emit else capsys.readouterr().out.encode()
        if code != 0 or hashlib.sha256(data).hexdigest() != sha256:
            changed.append(command)
    assert changed == []
