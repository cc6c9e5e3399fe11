#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the code in this checkout.

    python3 perfbench/make_reference.py

Runs one pass of every workload for each of a few build_report seeds and
writes the sha256 of every group's JSON report and of every artifact.  It
refuses to write when a report fails its own checks or the schema, or when
outputs differ between seeds (the benchmark checks every seed against one
digest).  Only regenerate when an output change is intended: the benchmark's
correctness check is that outputs stay byte-identical to these digests.
"""

from __future__ import annotations

import json
import sys

import bench

SEEDS = (0, 7, 123)


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    outputs: dict[str, dict[str, str]] = {}
    for workload in bench.WORKLOADS:
        specs = bench.workload_specs(workload)
        first = None
        for seed in SEEDS:
            outs: dict[str, dict[str, str]] = {}
            res = bench.run_pass(specs, seed, checker=None, keep=outs)
            if res.failed:
                print("\n".join(res.problems), file=sys.stderr)
                return 1
            digests = {
                src: {key: bench.digest(text) for key, text in sorted(texts.items())}
                for src, texts in outs.items()
            }
            if first is None:
                first = digests
                outputs.update(outs)
            elif digests != first:
                print(f"{workload}: outputs of seed {seed} differ from seed {SEEDS[0]}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {len(digests)} groups", flush=True)
        reference.update(first)
    # The digests alone do not say the reports are right: check them once.
    checker = bench.Checker(reference)
    problems = [p for src, texts in outputs.items() for p in checker.problems(src, texts)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    bench.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
