"""Commuting graph, transversal subgraph, centralizer graph; DOT and CSV output.

Graphs hold one adjacency bitmask per vertex; edge lists are views derived from them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .centralizers import class_transversal, z_star_partition
from .groups import Group, SetLike, per_group, subgroup_label
from .lattice import CenterPoset, CentLattice, hasse_edges
from .moebius import MoebiusTable
from .sets import ElemSet, ids_from_mask

# export_dot walks the set bits in Python for graphs under EDGE_WALK_BITS mask
# bits (vertices x mask width), where numpy's fixed cost per call dominates;
# larger graphs unpack their masks with numpy, EDGE_BLOCK_BITS bits at a time.
EDGE_WALK_BITS = 1 << 14
EDGE_BLOCK_BITS = 1 << 20


class AbelianGroupError(ValueError):
    """The group is abelian, so the requested graph has an empty vertex set."""


@dataclass(frozen=True)
class GroupGraph:
    """Simple undirected graph on group data, held as adjacency bitmasks.

    ``vertex_ids`` are ascending element ids: non-central elements, or Z*-class
    representatives for the centralizer kind.  ``adjacency[i]`` has bit ``g``
    set for each neighbour ``g`` of vertex ``i``.  ``edges``, derived per call,
    lists the vertex-index pairs (i, j), i < j, in sorted order.
    """

    kind: str
    vertex_ids: tuple[int, ...]
    labels: tuple[str, ...]
    adjacency: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_ids)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adjacency)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        pos = {v: i for i, v in enumerate(self.vertex_ids)}
        pairs = []
        for i, (v, m) in enumerate(zip(self.vertex_ids, self.adjacency)):
            m >>= v + 1  # the neighbours above v, as a walk over the set bits
            while m:
                low = m & -m
                pairs.append((i, pos[v + low.bit_length()]))
                m ^= low
        return tuple(pairs)


def _require_nonabelian(G: Group, kind: str) -> None:
    if G.is_abelian:
        raise AbelianGroupError(f"{G.name} is abelian: the {kind} graph has an empty vertex set")


def _commuting_subgraph(G: Group, kind: str, vmask: int,
                        label: Optional[Callable[[int], str]] = None) -> GroupGraph:
    """The commuting graph induced on the non-central members of ``vmask``,
    each vertex labelled by ``label(id)``, by default the element's label."""
    vmask &= ~G.center.mask
    verts = ids_from_mask(vmask)
    return GroupGraph(
        kind=kind,
        vertex_ids=verts,
        labels=tuple(map(label or G.labels.__getitem__, verts)),
        adjacency=tuple(G.cent_masks[g] & vmask & ~(1 << g) for g in verts),
    )


@per_group
def commuting_graph(G: Group) -> GroupGraph:
    """Vertices are the non-central elements; edges join commuting pairs."""
    _require_nonabelian(G, "commuting")
    return _commuting_subgraph(G, "commuting", G.full_mask)


def _coset_minima(G: Group) -> list[int]:
    """The least element of the coset g Z(G), for each element id g."""
    return reduce(np.minimum, (G.table[:, z] for z in G.center.members)).tolist()


def default_transversal(G: Group) -> ElemSet:
    """Minimal element id from each coset of Z(G)."""
    return ElemSet.from_ids(G.order, set(_coset_minima(G)))


def _validate_transversal(G: Group, T: ElemSet) -> None:
    n_cosets = G.order // len(G.center)
    if len(T) != n_cosets:
        raise ValueError(f"transversal has {len(T)} elements; expected |G:Z(G)| = {n_cosets}")
    coset_min = _coset_minima(G)
    seen = set()  # |T| distinct cosets are all of them
    for t in T:
        if coset_min[t] in seen:
            raise ValueError(f"element {t} duplicates a coset already represented")
        seen.add(coset_min[t])


def transversal_graph(G: Group, T: Optional[SetLike] = None) -> GroupGraph:
    """Subgraph of the commuting graph induced by a transversal of Z(G).

    The default transversal takes the minimal id in each coset; its graph is
    built once per group.  A supplied transversal is validated.
    """
    _require_nonabelian(G, "transversal")
    if T is None:
        return _default_transversal_graph(G)
    T = G.elem_set(T)
    _validate_transversal(G, T)
    return _commuting_subgraph(G, "transversal", T.mask)


@per_group
def _default_transversal_graph(G: Group) -> GroupGraph:
    return transversal_graph(G, default_transversal(G))


@per_group
def centralizer_graph(G: Group) -> GroupGraph:
    """One vertex per proper element centralizer, at its Z*-class's least
    member and labelled by its element center; an edge joins distinct vertices
    when one's center lies in the other's centralizer.  Z(y) <= C(x) iff x lies
    in C(Z(y)) = C(C(C(y))) = C(y), so this is the commuting graph induced on
    the class transversal."""
    _require_nonabelian(G, "centralizer")
    ecenters = {c.representative: c.ecenter for c in z_star_partition(G)}
    return _commuting_subgraph(G, "centralizer", class_transversal(G).mask,
                               lambda g: subgroup_label(G, ecenters[g]))


@per_group
def quotient_consistency(G: Group) -> bool:
    """Compare the centralizer graph with the commuting graph modulo ~, once
    per group: two classes are adjacent in the quotient when the OR of one's
    members' commuting adjacency masks meets the other."""
    _require_nonabelian(G, "quotient")
    class_of, outside = G._zstar_buckets
    com = commuting_graph(G)
    met = [0] * len(outside)
    for v, m in zip(com.vertex_ids, com.adjacency):
        met[class_of[v]] |= m
    quotient_edges = set()
    # Class 0 is the central class (it holds the identity); the centralizer
    # graph's vertices are the other classes, in partition order.
    for k, m in enumerate(met):
        while m:
            j = class_of[(m & -m).bit_length() - 1]
            if j != k:
                quotient_edges.add((min(j, k), max(j, k)))
            m &= outside[j]
    return quotient_edges == {(i + 1, j + 1) for i, j in centralizer_graph(G).edges}


# -- emitters ----------------------------------------------------------------


def _dot_quote(s: str) -> str:
    # Backslashes are left alone: DOT labels use \n-style escapes on purpose.
    return '"' + s.replace('"', '\\"') + '"'


def _hasse_dot(graph_name: str, labels: Iterable[str], covers: Iterable[tuple[int, int]],
               node_attrs: str = "", extras: Sequence[tuple[str, int]] = ()) -> str:
    """A bottom-up Hasse ``digraph``: nodes ``n{i}`` with their cover arrows,
    plus each ``(label, target)`` of ``extras`` as a node ``s{j}`` with a
    dashed arrow into ``n{target}``."""
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i, lab in enumerate(labels):
        lines.append(f"  n{i} [label={_dot_quote(lab)}{node_attrs}];")
    for j, (lab, _) in enumerate(extras):
        lines.append(f"  s{j} [label={_dot_quote(lab)}];")
    for i, j in covers:
        lines.append(f"  n{i} -> n{j};")
    for j, (_, target) in enumerate(extras):
        lines.append(f"  s{j} -> n{target} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_text_numpy(graph: GroupGraph) -> list[str]:
    """The edge lines of a graph with edges, in one string per block of masks
    and without the last line's ``;\n``: the set bits of the masks' nonzero
    bytes, each edge as four pieces from object arrays of index strings (every
    edge but the first opens with ``;\n``, closing the line before)."""
    vids = np.array(graph.vertex_ids)
    nbytes = graph.vertex_ids[-1] // 8 + 1  # bytes per mask
    name_of = np.empty(8 * nbytes, dtype=object)  # index strings, by element id
    name_of[vids] = [str(i) for i in range(len(vids))]
    chunks = []
    head = "  v"  # the first edge's; every later one closes the line before
    step = max(1, EDGE_BLOCK_BITS // (8 * nbytes))
    for a in range(0, len(vids), step):
        block = b"".join(m.to_bytes(nbytes, "little") for m in graph.adjacency[a : a + step])
        packed = np.frombuffer(block, dtype=np.uint8)
        nonzero = np.flatnonzero(packed != 0)
        k = np.flatnonzero(np.unpackbits(packed[nonzero], bitorder="little").view(np.bool_))
        rows, g = np.divmod(8 * (nbytes * a + nonzero[k >> 3]) + (k & 7), 8 * nbytes)
        upper = g > vids[rows]  # each edge once, from its lower end
        parts = np.empty(4 * np.count_nonzero(upper), dtype=object)
        parts[0::4] = ";\n  v"
        parts[1::4] = name_of[vids[rows[upper]]]
        parts[2::4] = " -- v"
        parts[3::4] = name_of[g[upper]]
        if parts.size:
            parts[0], head = head, ";\n  v"
        chunks.append("".join(parts.tolist()))
    return chunks


def export_dot(obj: Union[GroupGraph, CentLattice, CenterPoset],
               mu: Optional[MoebiusTable] = None) -> str:
    """Deterministic DOT text.

    Group graphs come out as undirected ``graph`` blocks, their edge lines
    written from the adjacency masks; lattices and posets as bottom-up Hasse
    ``digraph`` blocks.  Möbius values label poset nodes when a table is
    supplied.
    """
    if isinstance(obj, GroupGraph):
        if mu is not None:
            raise ValueError("Möbius labels apply to a CenterPoset, not a group graph")
        pieces = [f"graph {obj.kind} {{\n"]
        pieces += [f"  v{i} [label={_dot_quote(lab)}];\n" for i, lab in enumerate(obj.labels)]
        if any(obj.adjacency):
            if obj.vertex_count * (obj.vertex_ids[-1] + 1) < EDGE_WALK_BITS:
                pieces += [f"  v{i} -- v{j};\n" for i, j in obj.edges]
            else:
                pieces += _edge_text_numpy(obj)
                pieces.append(";\n")
        pieces.append("}\n")
        return "".join(pieces)  # the only copy of the text
    if isinstance(obj, CentLattice):
        if mu is not None:
            raise ValueError("Möbius labels apply to a CenterPoset, not a lattice")
        return _hasse_dot("lattice", obj.labels, hasse_edges(obj))
    if isinstance(obj, CenterPoset):
        if mu is not None and mu.poset is not obj:
            raise ValueError("Möbius table was computed for a different poset")
        labels = obj.labels
        if mu is not None:
            labels = [f"{lab}\\nmu={m}" for lab, m in zip(labels, mu.mu)]
        return _hasse_dot("center_poset", labels, hasse_edges(obj))
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


def degree_csv(graph: GroupGraph, p: Optional[int] = None) -> str:
    """CSV of vertex degrees: ``vertex,degree,residue_mod_p`` (residue blank
    when no prime applies)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vertex", "degree", "residue_mod_p"])
    for label, deg in zip(graph.labels, graph.degrees()):
        writer.writerow([label, deg, deg % p if p is not None else ""])
    return buf.getvalue()
