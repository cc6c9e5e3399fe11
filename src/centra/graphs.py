"""Commuting graph, transversal subgraph, centralizer graph; DOT and CSV output."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Union

from .centralizers import _class_index, z_star_partition
from .groups import Group, InvariantViolation, SetLike, per_group, subgroup_label
from .lattice import CenterPoset, CentLattice, hasse_edges
from .moebius import MoebiusTable
from .sets import ElemSet


class AbelianGroupError(ValueError):
    """The group is abelian, so the requested graph has an empty vertex set."""


@dataclass(frozen=True)
class GroupGraph:
    """Simple undirected graph on group data.

    ``vertex_ids`` are element ids for the commuting/transversal kinds and
    Z*-class representatives for the centralizer kind.  Edges are index
    pairs (i, j), i < j, in sorted order.
    """

    kind: str
    vertex_ids: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * len(self.vertex_ids)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)


def _require_nonabelian(G: Group, kind: str) -> None:
    if G.is_abelian:
        raise AbelianGroupError(
            f"{G.name} is abelian: the {kind} graph has an empty vertex set"
        )


def _commuting_subgraph(G: Group, kind: str, ids) -> GroupGraph:
    """The commuting graph induced on the non-central members of ``ids``."""
    zmask = G.center.mask
    verts = [g for g in ids if not (zmask >> g) & 1]
    pos = {g: i for i, g in enumerate(verts)}
    cms = G.cent_masks
    edges = []
    for i, g in enumerate(verts):
        m = cms[g]
        for h in verts[i + 1 :]:
            if (m >> h) & 1:
                edges.append((i, pos[h]))
    return GroupGraph(
        kind=kind,
        vertex_ids=tuple(verts),
        labels=tuple(G.label(g) for g in verts),
        edges=tuple(sorted(edges)),
    )


@per_group
def commuting_graph(G: Group) -> GroupGraph:
    """Vertices are the non-central elements; edges join commuting pairs."""
    _require_nonabelian(G, "commuting")
    return _commuting_subgraph(G, "commuting", G.elements())


def default_transversal(G: Group) -> ElemSet:
    """Minimal element id from each coset of Z(G)."""
    z = G.center.members
    table = G.table
    seen = 0
    reps = []
    for g in G.elements():
        if (seen >> g) & 1:
            continue
        reps.append(g)
        row = table[g]
        for zi in z:
            seen |= 1 << int(row[zi])
    return ElemSet.from_ids(G.order, reps)


def _validate_transversal(G: Group, T: ElemSet) -> None:
    z = G.center.members
    n_cosets = G.order // len(z)
    if len(T) != n_cosets:
        raise ValueError(
            f"transversal has {len(T)} elements; expected |G:Z(G)| = {n_cosets}"
        )
    table = G.table
    seen = 0
    for t in T:
        coset = 0
        row = table[t]
        for zi in z:
            coset |= 1 << int(row[zi])
        if seen & coset:
            raise ValueError(f"element {t} duplicates a coset already represented")
        seen |= coset
    if seen != G.full_mask:
        raise ValueError("transversal does not cover every coset of Z(G)")


def transversal_graph(G: Group, T: Optional[SetLike] = None) -> GroupGraph:
    """Subgraph of the commuting graph induced by a transversal of Z(G).

    The default transversal takes the minimal id in each coset; its graph is
    built once per group.  A supplied transversal is validated.
    """
    if T is None:
        return _default_transversal_graph(G)
    _require_nonabelian(G, "transversal")
    T = G.elem_set(T)
    _validate_transversal(G, T)
    return _commuting_subgraph(G, "transversal", T)


@per_group
def _default_transversal_graph(G: Group) -> GroupGraph:
    return transversal_graph(G, default_transversal(G))


@per_group
def centralizer_graph(G: Group) -> GroupGraph:
    """One vertex per proper element centralizer (keyed by its element center);
    an edge joins distinct vertices when one's center lies in the other's
    centralizer.  The one-sided rule is symmetric by duality; this is asserted
    per pair."""
    _require_nonabelian(G, "centralizer")
    classes = [c for c in z_star_partition(G) if c.cent.mask != G.full_mask]
    edges = []
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            b = classes[j]
            fwd = b.ecenter.mask & ~a.cent.mask == 0
            bwd = a.ecenter.mask & ~b.cent.mask == 0
            if fwd != bwd:
                raise InvariantViolation(
                    "centralizer-graph adjacency is not symmetric "
                    f"between classes of {G.label(a.representative)} and "
                    f"{G.label(b.representative)}"
                )
            if fwd:
                edges.append((i, j))
    return GroupGraph(
        kind="centralizer",
        vertex_ids=tuple(c.representative for c in classes),
        labels=tuple(subgroup_label(G, c.ecenter) for c in classes),
        edges=tuple(sorted(edges)),
    )


@per_group
def quotient_consistency(G: Group) -> bool:
    """Compare the centralizer graph with the commuting graph modulo ~.

    Quotient classes are adjacent when some cross pair commutes; the edge
    sets are computed independently and compared, once per group.
    """
    _require_nonabelian(G, "quotient")
    class_of = _class_index(G)
    com = commuting_graph(G)
    quotient_edges = set()
    for i, j in com.edges:
        ci = class_of[com.vertex_ids[i]]
        cj = class_of[com.vertex_ids[j]]
        if ci != cj:
            quotient_edges.add((min(ci, cj), max(ci, cj)))
    # Class 0 is the central class (it holds the identity); the centralizer
    # graph's vertices are the other classes, in partition order.
    return quotient_edges == {(i + 1, j + 1) for i, j in centralizer_graph(G).edges}


# -- emitters ----------------------------------------------------------------


def _dot_quote(s: str) -> str:
    # Backslashes are left alone: DOT labels use \n-style escapes on purpose.
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(
    obj: Union[GroupGraph, CentLattice, CenterPoset],
    mu: Optional[MoebiusTable] = None,
) -> str:
    """Deterministic DOT text.

    Group graphs come out as undirected ``graph`` blocks; lattices and posets
    as bottom-up Hasse ``digraph`` blocks.  Möbius values label poset nodes
    when a table is supplied.
    """
    if isinstance(obj, GroupGraph):
        if mu is not None:
            raise ValueError("Möbius labels apply to a CenterPoset, not a group graph")
        lines = [f"graph {obj.kind} {{"]
        for i, lab in enumerate(obj.labels):
            lines.append(f"  v{i} [label={_dot_quote(lab)}];")
        for i, j in obj.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, CentLattice):
        if mu is not None:
            raise ValueError("Möbius labels apply to a CenterPoset, not a lattice")
        graph_name = "lattice"
    elif isinstance(obj, CenterPoset):
        if mu is not None and mu.poset is not obj:
            raise ValueError("Möbius table was computed for a different poset")
        graph_name = "center_poset"
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(len(obj.nodes)):
        lab = obj.node_label(i)
        if mu is not None:
            lab = f"{lab}\\nmu={mu.mu[i]}"
        lines.append(f"  n{i} [label={_dot_quote(lab)}];")
    for i, j in hasse_edges(obj):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def degree_csv(graph: GroupGraph, p: Optional[int] = None) -> str:
    """CSV of vertex degrees: ``vertex,degree,residue_mod_p`` (residue blank
    when no prime applies)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vertex", "degree", "residue_mod_p"])
    for label, deg in zip(graph.labels, graph.degrees()):
        writer.writerow([label, deg, deg % p if p is not None else ""])
    return buf.getvalue()
