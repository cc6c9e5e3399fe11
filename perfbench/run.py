#!/usr/bin/env python3
"""Run one centra benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload pgroup_large --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: the median set-up, report
and artifact wall times of each group over the rounds of the run, summed, plus
the run's peak RSS.  With ``--trace 1`` it alternates an untraced pass, the same pass traced,
and a stage-by-stage trace of every group, and prints the per-layer metrics;
the spans go to ``.perfbench-work/spans-<workload>-<seed>.json``.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time

import bench

MIN_ROUNDS = 2
EMITS = 2  # the artifacts are emitted this many times per group and round

# Per-layer metrics: (name, unit).  Times are sums over the workload's groups
# and medians over the rounds of the run; counts are sums over the groups.
STAGE_TIMES = (
    "groups.construct", "groups.validate", "groups.cent_masks",
    "centralizers.partition",
    "lattice.build", "lattice.hasse", "lattice.poset", "lattice.f_group",
    "moebius.mu", "moebius.congruence",
    "graphs.commuting", "graphs.transversal", "graphs.centralizer", "graphs.quotient",
    "checks.algebra", "checks.lattice", "checks.partition", "checks.moebius", "checks.graphs",
    "cli.build_report", "cli.json", "cli.emit",
)
LAYERS = ("groups", "centralizers", "lattice", "moebius", "graphs", "checks", "cli")
COUNTS = (
    ("groups.order", "count"), ("groups.table_mb", "MB"),
    ("centralizers.classes", "count"),
    ("lattice.nodes", "count"), ("lattice.hasse_edges", "count"), ("lattice.poset_nodes", "count"),
    ("moebius.congruence_lines", "count"),
    ("graphs.commuting_edges", "count"),
    ("checks.properties_run", "count"), ("checks.properties_skipped", "count"),
    ("cli.report_bytes", "count"),
)
PER_LAYER = (
    [(f"{name}_s", "s") for name in STAGE_TIMES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("cli.repeat_gap_s", "s"), ("trace.overhead_s", "s")]
    + list(COUNTS)
)
END_TO_END = (
    ("setup_s", "s"), ("report_s", "s"), ("emit_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def rounds_until(seconds: float, one_round) -> list:
    """Run ``one_round(i)`` for i = 0, 1, ... while the next round, as long as
    the longest so far, still ends within ``seconds``; at least once."""
    start = time.perf_counter()
    rounds, longest = [], 0.0
    while not rounds or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        longest = max(longest, time.perf_counter() - t0)
    return rounds


def measure(specs, seed: int, seconds: float, checker: bench.Checker):
    """End-to-end metrics over rounds of construct, report and emit.

    Each round constructs every group through its public constructor, builds
    and serialises its report, and emits its artifacts EMITS times, checking
    every output.  The rounds go on while they end within ``seconds``.
    setup_s, report_s and emit_s sum each group's median set-up, report and
    emit wall time over the run, and total_s is their sum.
    """
    passes = []  # one per group and round
    start = time.perf_counter()
    longest: dict[str, float] = {}
    for i in itertools.count():
        ran = False
        for spec in specs:
            # After MIN_ROUNDS, a group runs again only while its longest
            # round so far still ends in time, so cheap groups fill the end.
            if i >= MIN_ROUNDS and time.perf_counter() - start + longest[spec.source] > seconds:
                continue
            t0 = time.perf_counter()
            passes.append(bench.run_pass(
                [spec], bench.pass_seed(seed, i), checker, emits=EMITS))
            longest[spec.source] = max(longest.get(spec.source, 0.0), time.perf_counter() - t0)
            ran = True
        if not ran:
            break
    samples: dict[str, tuple[list[float], list[float], list[float]]] = {}
    for p in passes:
        for g in p.groups:
            setup, report, emit = samples.setdefault(g.source, ([], [], []))
            setup.append(g.setup_s)
            report.append(g.report_s)
            emit.extend(g.emit_s)
    med = statistics.median
    metrics = {
        "setup_s": sum(med(s[0]) for s in samples.values()),
        "report_s": sum(med(s[1]) for s in samples.values()),
        "emit_s": sum(med(s[2]) for s in samples.values()),
    }
    metrics["total_s"] = metrics["setup_s"] + metrics["report_s"] + metrics["emit_s"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    rounds = sorted(len(v[0]) for v in samples.values()) or [0]
    print(f"rounds per group {rounds[0]} to {rounds[-1]}, {EMITS} emits each")
    return metrics, END_TO_END, passes


def trace_round(specs, seed: int, checker: bench.Checker):
    """One untraced pass, the same pass traced, then every group stage by stage."""
    gc.collect()
    untraced = bench.run_pass(specs, seed, checker)
    gc.collect()
    tracer = bench.Tracer()
    with tracer.span("bench.pass"):
        traced = bench.run_pass(specs, seed, checker, tracer)
    counts = dict.fromkeys((name for name, _ in COUNTS), 0)
    with tracer.span("bench.stages"):
        for spec in specs:
            with tracer.span("bench.group", spec.source):
                for name, value in bench.trace_stages(spec, seed, tracer).items():
                    counts[name] += value
    counts["cli.report_bytes"] = traced.report_bytes
    self_s = tracer.self_times()
    values = {f"{name}_s": self_s.get(name, 0.0) for name in STAGE_TIMES}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    in_report = sum(s.end - s.start for s in tracer.spans if s.in_report)
    values["cli.repeat_gap_s"] = self_s.get("cli.build_report", 0.0) - in_report
    values["trace.overhead_s"] = traced.total_s - untraced.total_s
    values.update(counts)
    return values, tracer, [untraced, traced]


def stage_table(tracer: bench.Tracer) -> list[str]:
    """Markdown rows per group: construct, cold report, artifacts, largest stages."""
    by_group: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        if s.group and not s.name.startswith("bench."):
            row = by_group.setdefault(s.group, {})
            row[s.name] = row.get(s.name, 0.0) + s.end - s.start
    lines = [
        "| group | construct s | build_report s (cold) | emit s | largest stages (s) |",
        "|---|---|---|---|---|",
    ]
    for group, row in by_group.items():
        stages = sorted(
            ((t, n) for n, t in row.items() if not n.startswith(("cli.", "groups.construct"))),
            reverse=True,
        )
        top = ", ".join(f"{n} {t:.4f}" for t, n in stages[:5])
        lines.append(
            f"| {group} | {row.get('groups.construct', 0.0):.4f} "
            f"| {row.get('cli.build_report', 0.0):.4f} | {row.get('cli.emit', 0.0):.4f} | {top} |"
        )
    return lines


def trace(specs, seed: int, seconds: float, checker: bench.Checker, spans_path):
    rounds = rounds_until(seconds, lambda i: trace_round(specs, bench.pass_seed(seed, i), checker))
    metrics = {name: statistics.median(r[0][name] for r in rounds) for name, _ in PER_LAYER}
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(
        [{"round": i, "spans": [vars(s) for s in r[1].spans]} for i, r in enumerate(rounds)]
    ) + "\n")
    print(f"{len(rounds)} traced rounds; spans in {spans_path}")
    print("\n".join(stage_table(rounds[-1][1])))
    return metrics, PER_LAYER, [p for r in rounds for p in r[2]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="derives build_report's seed for each pass (which cases the sampled suites draw)")
    ap.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    specs = bench.workload_specs(args.workload)
    checker = bench.Checker(bench.load_reference())
    if args.trace:
        spans_path = bench.WORK / f"spans-{args.workload}-{args.seed}.json"
        metrics, units, passes = trace(specs, args.seed, args.seconds, checker, spans_path)
    else:
        metrics, units, passes = measure(specs, args.seed, args.seconds, checker)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
