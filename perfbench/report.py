#!/usr/bin/env python3
"""Run every benchmark workload and print its metrics by name and unit.

    python3 perfbench/report.py              # end-to-end metrics, all workloads
    python3 perfbench/report.py --trace      # also the traced run: per-layer
                                             # metrics and the per-group stage table

Each workload runs in a fresh interpreter (``run.py``, seed 0, the
``run_seconds`` of BENCHMARK.json), one after the other, so peak RSS belongs
to that workload alone.  The environment (Python, numpy,
CPU count and model) heads the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, CPU {model}")


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run.py run; returns its JSON result and the lines printed before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"| {workload} | {name} | {m['value']:.6g} | {m['unit']} |")
    print(f"| {workload} | failed_ratio | {result['failed']}/{result['attempted']} | groups |")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = ap.parse_args(argv)
    seed, seconds = 0, spec["run_seconds"]

    print(environment())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: run_workload(w, seed, seconds, 0)[0] for w in workloads}
    print("\n| workload | metric | value | unit |\n|---|---|---|---|")
    for w in workloads:
        print_metrics(w, results[w])
    ok = all(r["correct"] for r in results.values())
    if args.trace:
        for w in workloads:
            traced, lines = run_workload(w, seed, seconds, 1)
            ok &= traced["correct"]
            print(f"\n## {w}, traced\n")
            print("\n".join(line for line in lines if line.startswith("|")))
            print("\n| workload | metric | value | unit |\n|---|---|---|---|")
            print_metrics(w, traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
