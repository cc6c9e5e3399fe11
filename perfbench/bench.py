"""Workloads, tracing and output checks shared by the perfbench scripts.

The benchmark drives centra's public API from outside ``src/``, the way
``centra analyze --format json`` and ``centra emit`` do: for each group it
runs a public constructor, then ``build_report`` + ``json.dumps``, then the
DOT/CSV artifacts.  Every output is checked byte for byte against the
sha256 digests in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import jsonschema

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy: without them there is nothing to measure.
if not (SRC / "centra" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no centra sources at {SRC / 'centra'}")
sys.path.insert(0, str(SRC))

import centra  # noqa: E402
from centra.checks import SUITES, run_suite  # noqa: E402
from centra.cli import build_report  # noqa: E402

if Path(centra.__file__).resolve().parent != SRC / "centra":
    raise SystemExit(f"perfbench: imported centra from {centra.__file__}, not from {SRC}")


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One group of a workload: its CLI-style source and public constructor."""

    source: str
    build: Callable[[], "centra.Group"]


def _builtin(family: str, param: Optional[int] = None) -> Callable[[], "centra.Group"]:
    return lambda: centra.builtin_group(family, param)


def _product(a: Callable, b: Callable) -> Callable[[], "centra.Group"]:
    return lambda: centra.direct_product(a(), b())


def _ut4_generators(p: int) -> list[list[int]]:
    """The transvections e_{01}, e_{12}, e_{23} of UT(4, p) as permutations of
    the p^4 column vectors over Z/p, 0-based images in lexicographic order."""
    pts = list(itertools.product(range(p), repeat=4))
    idx = {v: i for i, v in enumerate(pts)}
    gens = []
    for r in range(3):
        # x -> x + x[r+1] * e_r: the identity matrix plus a 1 at (r, r+1)
        gens.append([idx[v[:r] + ((v[r] + v[r + 1]) % p,) + v[r + 1:]] for v in pts])
    return gens


def _cycle_notation(images: list[int]) -> str:
    """1-based cycle notation, each cycle starting at its least point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = images[x]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def write_generator_file(path: Path, p: int = 3) -> Path:
    """Write the UT(4, p) generator file (``perm p^4`` then one cycle per line)."""
    gens = _ut4_generators(p)
    text = f"perm {p ** 4}\n" + "".join(_cycle_notation(g) + "\n" for g in gens)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)
    return path


def workload_specs(name: str) -> list[GroupSpec]:
    """The groups of one workload, with any input files written under WORK."""
    if name == "tiny_exhaustive":
        c2 = _builtin("cyclic", 2)
        return [
            GroupSpec("builtin:cyclic:1", _builtin("cyclic", 1)),
            GroupSpec("builtin:cyclic:2", c2),
            GroupSpec("builtin:cyclic:3", _builtin("cyclic", 3)),
            GroupSpec("builtin:cyclic:4", _builtin("cyclic", 4)),
            GroupSpec("product:cyclic:2,cyclic:2", _product(c2, c2)),
            GroupSpec("builtin:cyclic:5", _builtin("cyclic", 5)),
            GroupSpec("builtin:cyclic:6", _builtin("cyclic", 6)),
            GroupSpec("builtin:symmetric:3", _builtin("symmetric", 3)),
            GroupSpec("builtin:cyclic:7", _builtin("cyclic", 7)),
            GroupSpec("builtin:cyclic:8", _builtin("cyclic", 8)),
            GroupSpec("product:cyclic:4,cyclic:2", _product(_builtin("cyclic", 4), c2)),
            GroupSpec("product:(cyclic:2,cyclic:2),cyclic:2", _product(_product(c2, c2), c2)),
            GroupSpec("builtin:dihedral:8", _builtin("dihedral", 8)),
            GroupSpec("builtin:quaternion8", _builtin("quaternion8")),
        ]
    if name == "pgroup_large":
        gens = write_generator_file(WORK / "UT4_3.gens")
        h3 = _builtin("heisenberg", 3)
        return [
            GroupSpec("product:heisenberg:3,heisenberg:3", _product(h3, h3)),
            GroupSpec(
                f"product:gens:{gens.name},cyclic:3",
                _product(lambda: centra.group_from_generator_file(gens), _builtin("cyclic", 3)),
            ),
        ]
    if name == "symmetric_wide":
        return [GroupSpec("builtin:symmetric:6", _builtin("symmetric", 6))]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tiny_exhaustive", "pgroup_large", "symmetric_wide")


# -- tracing -----------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    group: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    in_report: bool = False  # a stage that build_report itself runs


class Tracer:
    """In-memory spans around the calls into each layer; written out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, group: str = "", *, in_report: bool = False):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, group, parent, time.perf_counter(), in_report=in_report)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return out


class NoTracer:
    """Stands in for a Tracer when tracing is off."""

    _null = contextlib.nullcontext()

    def span(self, name: str, group: str = "", *, in_report: bool = False):
        return self._null


# -- the program's outputs and their checks -----------------------------------


def emit_artifacts(G) -> dict[str, str]:
    """The texts ``centra emit`` writes; graph artifacts only for nonabelian G."""
    poset = centra.center_poset(G)
    out = {
        "lattice-dot": centra.export_dot(centra.build_lattice(G)),
        "poset-dot": centra.export_dot(poset, centra.moebius(poset)),
    }
    if not G.is_abelian:
        out["commuting-dot"] = centra.export_dot(centra.commuting_graph(G))
        out["centgraph-dot"] = centra.export_dot(centra.centralizer_graph(G))
        out["degrees-csv"] = centra.degree_csv(
            centra.commuting_graph(G), centra.p_group_prime(G.order)
        )
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE.read_text())


class Checker:
    """Decides whether one group's outputs are correct.

    A group fails when its report has ``ok`` false, does not validate against
    ``report.schema.json``, or when its report or any artifact differs from the
    reference digest (a missing or extra artifact included).
    """

    def __init__(self, reference: dict[str, dict[str, str]]):
        self.reference = reference
        schema = json.loads((SRC / "centra" / "report.schema.json").read_text())
        self._validator = jsonschema.Draft7Validator(schema)
        self._valid_reports: set[str] = set()

    def problems(self, source: str, outputs: dict[str, str]) -> list[str]:
        ref = self.reference.get(source)
        if ref is None:
            return [f"{source}: no reference digests"]
        found = []
        for key in sorted(set(ref) | set(outputs)):
            if key not in outputs:
                found.append(f"{source}: {key} missing")
            elif key not in ref:
                found.append(f"{source}: unexpected {key}")
            elif digest(outputs[key]) != ref[key]:
                found.append(f"{source}: {key} differs from its reference digest")
        text = outputs.get("report")
        if text is not None and digest(text) not in self._valid_reports:
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                return found + [f"{source}: report is not JSON: {exc}"]
            errors = [e.message for e in self._validator.iter_errors(report)]
            if errors:
                found.append(f"{source}: report violates the schema: {errors[0]}")
            elif report.get("ok") is not True:
                found.append(f"{source}: report has ok={report.get('ok')!r}")
            else:
                self._valid_reports.add(digest(text))
        return found


# -- one pass: what a user of analyze + emit waits for --------------------------


@dataclass
class GroupTimes:
    """One group's times in one pass; ``emit_s`` holds one entry per emit."""

    source: str
    setup_s: float
    report_s: float
    emit_s: list[float]


@dataclass
class PassResult:
    setup_s: float = 0.0
    report_s: float = 0.0
    emit_s: float = 0.0  # the first emit of each group
    report_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    groups: list[GroupTimes] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.setup_s + self.report_s + self.emit_s


def _analyze(spec: GroupSpec, seed: int, tracer,
             emits: int = 1) -> tuple[GroupTimes, dict[str, str], list[str]]:
    """One group as ``analyze`` + ``emit`` see it: its set-up, report and
    artifact times, its outputs, and any repeated emit that came out different.

    The artifacts are emitted ``emits`` times on the reported group, each time
    timed and compared with the first.  The caches on the group are those the
    report filled, so every emit does the same work.  Each timed step starts
    from a collected heap.  The group dies on return, before the next is built.
    """
    clock = time.perf_counter
    with tracer.span("bench.group", spec.source):
        gc.collect()
        t0 = clock()
        with tracer.span("groups.construct", spec.source):
            G = spec.build()
        setup_s = clock() - t0
        gc.collect()
        t0 = clock()
        with tracer.span("cli.build_report", spec.source):
            report = build_report(G, spec.source, seed=seed)
        with tracer.span("cli.json", spec.source):
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        report_s = clock() - t0
        del report
        emit_s = []
        differ = []
        outputs: dict[str, str] = {}
        for i in range(emits):
            gc.collect()
            t0 = clock()
            with tracer.span("cli.emit", spec.source):
                again = emit_artifacts(G)
            emit_s.append(clock() - t0)
            if i == 0:
                outputs = again
            elif again != outputs:
                differ.append(f"{spec.source}: emit {i + 1} differs from emit 1")
    outputs["report"] = text
    return GroupTimes(spec.source, setup_s, report_s, emit_s), outputs, differ


Tamper = Callable[[str, dict[str, str]], None]


def run_pass(specs, seed: int, checker: Optional[Checker], tracer=NoTracer(),
             tamper: Optional[Tamper] = None,
             keep: Optional[dict[str, dict[str, str]]] = None,
             emits: int = 1) -> PassResult:
    """Construct each group fresh, build its report and its artifacts, check them.

    ``emits`` is how many times each group's artifacts are emitted and timed.
    ``tamper`` may alter the outputs before they are checked; the self-test
    uses it to show that a changed byte is caught.  ``keep``, when given,
    receives each group's outputs by source.
    """
    res = PassResult()
    for spec in specs:
        res.attempted += 1
        try:
            times, outputs, differ = _analyze(spec, seed, tracer, emits)
        except Exception:  # one group's crash is counted, the run goes on
            res.failed += 1
            res.problems.append(f"{spec.source}: raised\n{traceback.format_exc()}")
            continue
        res.groups.append(times)
        res.setup_s += times.setup_s
        res.report_s += times.report_s
        res.emit_s += times.emit_s[0]
        res.report_bytes += len(outputs["report"].encode("utf-8"))
        if tamper is not None:
            tamper(spec.source, outputs)
        if keep is not None:
            keep[spec.source] = outputs
        found = list(differ)
        if checker is not None:
            found += checker.problems(spec.source, outputs)
        if found:
            res.failed += 1
            res.problems.extend(found)
    return res


def pass_seed(seed: int, i: int) -> int:
    """build_report's seed for pass ``i`` of a run with ``--seed seed``.

    The seed decides which cases the sampled suites draw, and some draws cost
    twice as much as others on UT(4,3)xC3.  A fresh draw per pass lets a run's
    median span several draws instead of resting on one.
    """
    return seed * 1000 + i


# -- the stage-by-stage trace --------------------------------------------------


def trace_stages(spec: GroupSpec, seed: int, tracer: Tracer) -> dict[str, float]:
    """Run build_report's stages one by one on a fresh group, each in a span.

    Returns the counters of the group: order, table size, classes, lattice and
    poset sizes, congruence lines, commuting edges and properties run/skipped.
    """
    src = spec.source
    G = spec.build()
    n = G.order
    counts = {"groups.order": n, "groups.table_mb": n * n * 4 / 2**20}

    def stage(name: str, in_report: bool = True):
        return tracer.span(name, src, in_report=in_report)

    with stage("groups.validate", in_report=False):
        centra.Group(G.table, G.labels, G.name)
    with stage("groups.cent_masks"):
        G.cent_masks
    with stage("centralizers.partition"):
        classes = centra.z_star_partition(G)
    counts["centralizers.classes"] = len(classes)
    with stage("lattice.f_group"):
        centra.f_group_chain_witness(G)
        centra.is_f_group(G)
    with stage("lattice.build"):
        lat = centra.build_lattice(G)
    with stage("lattice.poset"):
        poset = centra.center_poset(G)
    with stage("moebius.mu"):
        centra.moebius(poset)
    with stage("lattice.hasse"):
        counts["lattice.hasse_edges"] = len(centra.hasse_edges(lat))
    counts["lattice.nodes"] = len(lat.nodes)
    counts["lattice.poset_nodes"] = len(poset.nodes)

    lines = 0
    with stage("moebius.congruence"):
        p = centra.p_group_prime(n)
        if p is not None:
            lines += len(centra.check_class_size_congruence(G, p).lines)
            if not G.is_abelian:
                lines += len(centra.check_mob_sums(G, p).lines)
                if centra.is_f_group(G):
                    lines += len(centra.check_f_group_counts(G, p).lines)
    counts["moebius.congruence_lines"] = lines

    edges = 0
    for name, build in (
        ("graphs.commuting", centra.commuting_graph),
        ("graphs.transversal", centra.transversal_graph),
        ("graphs.centralizer", centra.centralizer_graph),
        ("graphs.quotient", centra.quotient_consistency),
    ):
        with stage(name):
            if not G.is_abelian:
                graph = build(G)
                if name == "graphs.commuting":
                    edges = graph.edge_count
    counts["graphs.commuting_edges"] = edges

    run = skipped = 0
    for suite in SUITES:
        with stage(f"checks.{suite}"):
            results = run_suite(G, suite, seed=seed, samples=120)  # build_report's samples
        skipped += sum(r.status == "skip" for r in results)
        run += sum(r.status != "skip" for r in results)
    counts["checks.properties_run"] = run
    counts["checks.properties_skipped"] = skipped

    # The poset's covers are drawn only by poset-dot, not by the report.
    with stage("lattice.hasse", in_report=False):
        centra.hasse_edges(poset)
    return counts
