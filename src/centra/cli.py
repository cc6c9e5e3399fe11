"""Command-line front end: analyze a group, verify the theorem suite, emit artifacts.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 I/O error,
4 internal error (a broken theorem-backed invariant, or out of memory).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

from .centralizers import closure, z_star_partition
from .checks import SUITES, run_suite
from .graphs import (
    _hasse_dot,
    centralizer_graph,
    commuting_graph,
    degree_csv,
    export_dot,
    quotient_consistency,
    transversal_graph,
)
from .groups import (
    BUILTIN_FAMILIES,
    Group,
    InvariantViolation,
    builtin_group,
    direct_product,
    group_from_cayley_table,
    group_from_generator_file,
    subgroup_label,
)
from .lattice import (SUBGROUP_ENUMERATION_LIMIT, all_subgroups, build_lattice, center_poset,
                      f_group_chain_witness, hasse_edges, is_f_group)
from .moebius import (
    check_class_size_congruence,
    check_f_group_counts,
    check_mob_sums,
    moebius,
    p_group_prime,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

ARTIFACTS = ("lattice-dot", "poset-dot", "commuting-dot", "centgraph-dot", "degrees-csv")


def _group_from_atom(atom: str) -> Group:
    """One group spec atom: ``family:params``, ``table:path``, or ``gens:path``."""
    head, _, rest = atom.partition(":")
    head = head.strip().lower()
    if head == "table":
        return group_from_cayley_table(rest)
    if head == "gens":
        return group_from_generator_file(rest)
    if head in BUILTIN_FAMILIES:
        try:
            param = int(rest) if rest else None
        except ValueError:
            raise ValueError(f"group spec {atom!r}: parameter {rest!r} is not an integer") from None
        return builtin_group(head, param)
    raise ValueError(
        f"unrecognized group spec {atom!r}: expected <family>:<param>, table:<path>, or gens:<path>"
    )


def load_group(args: argparse.Namespace) -> tuple[Group, str]:
    """Resolve the group-spec flags to a Group and its descriptor string."""
    if args.builtin:
        if args.builtin.partition(":")[0].strip().lower() not in BUILTIN_FAMILIES:
            raise ValueError(f"--builtin {args.builtin!r}: not a builtin family ({', '.join(BUILTIN_FAMILIES)})")
        return _group_from_atom(args.builtin), f"builtin:{args.builtin}"
    if args.table:
        return group_from_cayley_table(args.table), f"table:{args.table}"
    if args.gens:
        return group_from_generator_file(args.gens), f"gens:{args.gens}"
    if args.product:
        parts = args.product.split(",")
        if len(parts) != 2:
            raise ValueError("--product expects exactly two comma-separated specs")
        G = direct_product(_group_from_atom(parts[0]), _group_from_atom(parts[1]))
        return G, f"product:{args.product}"


def _graph_summary(graph) -> dict:
    return {
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "degree_sequence": list(graph.degrees()),
    }


def build_report(G: Group, source: str, *, samples: int = 120, seed: int = 0) -> dict:
    """Assemble the full analysis report as a JSON-ready dict."""
    p = p_group_prime(G.order)
    witness = f_group_chain_witness(G)
    lat = build_lattice(G)
    poset = center_poset(G)
    # The node labels and Hasse edges, which the artifacts (and a failing
    # check's witness) read, are built with the other structures, so an emit
    # after a report renders only and costs the same every time.
    for order in (lat, poset):
        order.labels, hasse_edges(order)
    mu = moebius(poset)
    classes = z_star_partition(G)
    notices: list[str] = []

    report: dict = {
        "schema_version": 1,
        "group": {
            "source": source,
            "name": G.name,
            "order": G.order,
            "center_order": len(G.center),
            "abelian": G.is_abelian,
            "p_group": p is not None,
            "p": p,
            "f_group": is_f_group(G),
            "f_chain_witness": None if witness is None else [G.labels[witness[0]], G.labels[witness[1]]],
        },
        "lattice": {
            "node_count": len(lat.nodes),
            "hasse_edge_count": len(hasse_edges(lat)),
            "node_orders": [len(n) for n in lat.nodes],
        },
        "partition": {
            "class_count": len(classes),
            "class_sizes": [len(c.members) for c in classes],
            "representatives": [G.labels[c.representative] for c in classes],
        },
        "center_poset": {
            "node_count": len(poset.nodes),
            "noncentral_node_count": len(poset.nodes) - 1 if len(poset.nodes) > 1 else 0,
            "node_orders": [len(n) for n in poset.nodes],
            "mu_values": list(mu.mu),
            "mu_multiset": {str(k): v for k, v in sorted(Counter(mu.mu).items())},
            "mu_sum_nonminimal": sum(m for i, m in enumerate(mu.mu) if i != poset.min_index),
        },
        "congruences": None,
        "graphs": None,
        "checks": [],
        "notices": notices,
    }

    if p is None:
        notices.append("not a p-group: mod-p congruence checks skipped")
    else:
        congruences: dict = {"class_size": check_class_size_congruence(G, p).as_dict()}
        if G.is_abelian:
            notices.append("abelian group: Möbius sum checks require a nonabelian group")
        else:
            congruences["mob_sums"] = check_mob_sums(G, p).as_dict()
            if is_f_group(G):
                congruences["f_group_counts"] = check_f_group_counts(G, p).as_dict()
        report["congruences"] = congruences

    if G.is_abelian:
        notices.append("abelian group: commuting/transversal/centralizer graphs skipped")
    else:
        report["graphs"] = {
            "commuting": _graph_summary(commuting_graph(G)),
            "transversal": _graph_summary(transversal_graph(G)),
            "centralizer": _graph_summary(centralizer_graph(G)),
            "quotient_consistent": quotient_consistency(G),
        }

    results = run_suite(G, "all", seed=seed, samples=samples)
    report["checks"] = [r.as_dict() for r in results]
    report["ok"] = not any(r.failed for r in results)
    return report


def _format_text_report(report: dict) -> str:
    g = report["group"]
    lines = [
        f"group {g['name']} ({g['source']}): order {g['order']}, |Z(G)| = {g['center_order']}",
        f"  abelian: {g['abelian']}  p-group: {g['p_group']}"
        + (f" (p={g['p']})" if g["p"] else "")
        + f"  F-group: {g['f_group']}",
    ]
    if g["f_chain_witness"]:
        lines.append(f"  centralizer chain witness: C({g['f_chain_witness'][0]}) < C({g['f_chain_witness'][1]})")
    lat = report["lattice"]
    lines.append(f"lattice: {lat['node_count']} nodes, {lat['hasse_edge_count']} Hasse edges")
    part = report["partition"]
    lines.append(f"partition: {part['class_count']} classes, sizes {part['class_sizes']}")
    cp = report["center_poset"]
    lines.append(
        f"center poset: {cp['node_count']} nodes, mu multiset {cp['mu_multiset']}, "
        f"non-minimal mu sum {cp['mu_sum_nonminimal']}"
    )
    if report["congruences"]:
        for name, rep in sorted(report["congruences"].items()):
            lines.append(f"congruence {name}: {'pass' if rep['ok'] else 'FAIL'} ({len(rep['lines'])} lines)")
            for line in rep["lines"]:
                if not line["passed"]:
                    lines.append(
                        f"  FAIL {line['label']}: {line['lhs']} = {line['lhs_mod']} "
                        f"!= {line['rhs_mod']} = {line['rhs']} (mod {rep['p']})"
                    )
    if report["graphs"]:
        for kind in ("commuting", "transversal", "centralizer"):
            summ = report["graphs"][kind]
            lines.append(
                f"graph {kind}: {summ['vertex_count']} vertices, {summ['edge_count']} edges"
            )
        lines.append(f"quotient consistent: {report['graphs']['quotient_consistent']}")
    for notice in report["notices"]:
        lines.append(f"note: {notice}")
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    lines.append(f"checks: {len(report['checks'])} run, {len(failed)} failed")
    for c in failed:
        lines.append(f"  FAIL {c['name']}: {c['witness']}")
    lines.append(f"ok: {report['ok']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    G, source = load_group(args)
    report = build_report(G, source, samples=args.samples, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_format_text_report(report))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    G, source = load_group(args)
    results = run_suite(G, args.suite, seed=args.seed, samples=args.samples)
    width = max(len(r.name) for r in results)
    for r in results:
        line = f"[{r.status.upper():4}] {r.name:<{width}}"
        if r.detail:
            line += f"  {r.detail}"
        if r.witness:
            line += f"  witness: {r.witness}"
        sys.stdout.write(line.rstrip() + "\n")
    failed = [r for r in results if r.failed]
    sys.stdout.write(
        f"{source}: {len(results)} properties, "
        f"{sum(r.status == 'pass' for r in results)} passed, "
        f"{sum(r.status == 'skip' for r in results)} skipped, {len(failed)} failed\n"
    )
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _lattice_dot_with_closure_arrows(G: Group) -> str:
    """DOT of the lattice plus every subgroup's one-step closure arrow."""
    lat = build_lattice(G)
    node_index = {n.mask: i for i, n in enumerate(lat.nodes)}
    extras = [
        (subgroup_label(G, H), node_index[closure(G, H).mask])
        for H in all_subgroups(G)
        if H.mask not in node_index
    ]
    return _hasse_dot("lattice", lat.labels, hasse_edges(lat), " style=bold", extras)


def cmd_emit(args: argparse.Namespace) -> int:
    G, _ = load_group(args)
    artifact = args.artifact
    if artifact == "lattice-dot":
        if args.closure_arrows:
            text = _lattice_dot_with_closure_arrows(G)
        else:
            text = export_dot(build_lattice(G))
    elif artifact == "poset-dot":
        poset = center_poset(G)
        text = export_dot(poset, moebius(poset))
    elif artifact == "commuting-dot":
        text = export_dot(commuting_graph(G))
    elif artifact == "centgraph-dot":
        text = export_dot(centralizer_graph(G))
    elif artifact == "degrees-csv":
        text = degree_csv(commuting_graph(G), p_group_prime(G.order))
    else:
        raise ValueError(f"unknown artifact {artifact!r}")
    Path(args.path).write_text(text)
    return EXIT_OK


class _StoreOnce(argparse.Action):
    """Store a flag's value; giving the flag again, even with the same value, is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: given more than once")
        setattr(namespace, self.dest, values)


def _add_group_args(parser: argparse.ArgumentParser) -> None:
    spec = parser.add_argument_group("group spec (choose one)").add_mutually_exclusive_group(required=True)
    spec.add_argument("--builtin", action=_StoreOnce, metavar="FAMILY:PARAM",
                      help=f"builtin group, families: {', '.join(BUILTIN_FAMILIES)}")
    spec.add_argument("--table", action=_StoreOnce, metavar="FILE", help="Cayley-table file")
    spec.add_argument("--gens", action=_StoreOnce, metavar="FILE", help="permutation generator file")
    spec.add_argument("--product", action=_StoreOnce, metavar="A,B", help="direct product of two specs")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centra",
        description="Finite-group centralizer analysis: lattice, Z*-partition, Möbius checks, graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full analysis report for one group")
    _add_group_args(p_an)
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.add_argument("--samples", type=int, default=120, help="random cases per sampled property")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="run a property suite against one group")
    _add_group_args(p_ve)
    p_ve.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_ve.add_argument("--samples", type=int, default=200)
    p_ve.add_argument("--seed", type=int, default=0)
    p_ve.set_defaults(func=cmd_verify)

    p_em = sub.add_parser("emit", help="write a DOT/CSV artifact for one group")
    _add_group_args(p_em)
    p_em.add_argument("artifact", choices=ARTIFACTS)
    p_em.add_argument("path", help="output file")
    p_em.add_argument("--closure-arrows", action="store_true",
                      help="lattice-dot only: include every subgroup with its closure arrow "
                      f"(order <= {SUBGROUP_ENUMERATION_LIMIT})")
    p_em.set_defaults(func=cmd_emit)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"centra: I/O error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"centra: {exc}\n")
        return EXIT_USAGE
    except (InvariantViolation, MemoryError) as exc:
        sys.stderr.write(f"centra: internal error: {str(exc) or type(exc).__name__}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
