#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check and of BENCHMARK.json.

    python3 perfbench/selftest.py

Shows that one altered byte in a report or in an artifact, a missing
artifact, or a report with ``ok`` false is counted as a failed group, and
that the metric names in BENCHMARK.json are exactly the ones run.py prints.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import bench
import run

SOURCES = ("builtin:symmetric:3", "builtin:dihedral:8")


def flip_byte(text: str, at: float = 0.5) -> str:
    k = int(len(text) * at)
    return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]


def failed_ratio(specs, checker, tamper=None) -> tuple[int, int, list[str]]:
    res = bench.run_pass(specs, 0, checker, tamper=tamper)
    return res.failed, res.attempted, res.problems


def main() -> int:
    specs = [s for s in bench.workload_specs("tiny_exhaustive") if s.source in SOURCES]
    checker = bench.Checker(bench.load_reference())
    target = SOURCES[1]

    def on_target(edit):
        def tamper(source, outputs):
            if source == target:
                edit(outputs)
        return tamper

    def set_ok_false(outputs):
        report = json.loads(outputs["report"])
        report["ok"] = False
        outputs["report"] = json.dumps(report, indent=2, sort_keys=True) + "\n"

    cases = [
        ("unaltered outputs", None, 0),
        ("one byte of the report", on_target(lambda o: o.update(report=flip_byte(o["report"]))), 1),
        ("one byte of degrees-csv", on_target(
            lambda o: o.update({"degrees-csv": flip_byte(o["degrees-csv"], 0.9)})), 1),
        ("one byte of lattice-dot", on_target(
            lambda o: o.update({"lattice-dot": flip_byte(o["lattice-dot"], 0.1)})), 1),
        ("a missing artifact", on_target(lambda o: o.pop("centgraph-dot")), 1),
        ("a report with ok false", on_target(set_ok_false), 1),
    ]
    raising = bench.GroupSpec("builtin:cyclic:0", lambda: bench.centra.builtin_group("cyclic", 0))
    bad = 0
    for label, tamper, expected in cases:
        failed, attempted, problems = failed_ratio(specs, checker, tamper)
        verdict = "ok" if failed == expected else "WRONG"
        bad += failed != expected
        print(f"[{verdict}] {label}: failed_ratio {failed}/{attempted}"
              + (f" ({problems[0].splitlines()[0]})" if problems else ""))

    failed, attempted, problems = failed_ratio(specs + [raising], checker)
    bad += failed != 1
    print(f"[{'ok' if failed == 1 else 'WRONG'}] a constructor that raises: "
          f"failed_ratio {failed}/{attempted} ({problems[0].splitlines()[0] if problems else ''})")

    # ok false must be caught by the report check itself, even when the
    # digests were taken from the altered output.
    kept: dict[str, dict[str, str]] = {}
    bench.run_pass(specs[:1], 0, None, keep=kept)
    outputs = kept[specs[0].source]
    set_ok_false(outputs)
    forged = {specs[0].source: {k: bench.digest(v) for k, v in outputs.items()}}
    problems = bench.Checker(forged).problems(specs[0].source, outputs)
    bad += not problems
    print(f"[{'ok' if problems else 'WRONG'}] ok false with matching digests: {problems}")

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    printed = {
        "workloads": list(bench.WORKLOADS),
        "end_to_end": list(run.END_TO_END),
        "per_layer": list(run.PER_LAYER),
    }
    for key in declared:
        same = declared[key] == printed[key]
        bad += not same
        print(f"[{'ok' if same else 'WRONG'}] BENCHMARK.json {key} match run.py")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
