"""Shared fixtures: the test fleet, independent naive oracles, small-group zoo."""

from __future__ import annotations

import csv
import io
import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import centra as c

# -- naive oracles (definition-level, no bitmask shortcuts) -------------------


def naive_centralizer(G, ids):
    ids = list(ids)
    return {
        x
        for x in G.elements()
        if all(G.mul(x, s) == G.mul(s, x) for s in ids)
    }


def naive_center(G):
    return naive_centralizer(G, G.elements())


def naive_closure(G, ids):
    return naive_centralizer(G, sorted(naive_centralizer(G, ids)))


def naive_generated(G, ids):
    """Closure under all pairwise products, iterated to a fixed point."""
    cur = {0} | set(ids)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(G.mul(a, b))
        if nxt == cur:
            return cur
        cur = nxt


def mask_from_ids(ids):
    """Bitmask with bit i set for each id i, without range checks."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def naive_abelian_subset(G, ids):
    ids = list(ids)
    return all(G.mul(a, b) == G.mul(b, a) for a in ids for b in ids)


def pairwise_lattice_masks(G):
    """Lattice node masks by the former closure: {G} and every element
    centralizer, closed under intersection with every mask found so far."""
    masks = {G.full_mask}
    masks.update(G.cent_masks)
    worklist = list(masks)
    while worklist:
        m = worklist.pop()
        additions = [m & other for other in masks if m & other not in masks]
        for x in additions:
            masks.add(x)
            worklist.append(x)
    return masks


def leq_up_sets(obj):
    """Strict up-set bitmasks of a ``nodes``/``leq`` object, one ``leq`` per pair."""
    n = len(obj.nodes)
    return [sum(1 << j for j in range(n) if j != i and obj.leq(i, j)) for i in range(n)]


def leq_down_sets(obj):
    """Strict down-set bitmasks of a ``nodes``/``leq`` object, one ``leq`` per pair."""
    n = len(obj.nodes)
    return [sum(1 << j for j in range(n) if j != i and obj.leq(j, i)) for i in range(n)]


def leq_covers(obj):
    """Covering pairs (i, j) by definition: i < j with no node strictly between."""
    up, down = leq_up_sets(obj), leq_down_sets(obj)
    return [
        (i, j)
        for i in range(len(obj.nodes))
        for j in range(len(obj.nodes))
        if (up[i] >> j) & 1 and not up[i] & down[j]
    ]


def leq_moebius(obj):
    """mu by the recursion over ``leq``: 1 at the minimum, else minus the sum
    over every node strictly below (node order is topological)."""
    n = len(obj.nodes)
    mu = []
    for i in range(n):
        below = sum(mu[j] for j in range(i) if obj.leq(j, i))
        mu.append(1 if i == obj.min_index else -below)
    return mu


def naive_u_star(G, H, xs, cents):
    """U*_H by definition: the ids x in ``xs`` whose centralizer contains H.
    ``cents`` caches naive_centralizer(G, [x]) as a mask per x."""
    out = []
    for x in xs:
        if x not in cents:
            cents[x] = sum(1 << y for y in naive_centralizer(G, [x]))
        if H.mask & ~cents[x] == 0:
            out.append(x)
    return out


def former_transversal_error(G, X):
    """The message the former id loop of ``u_star`` raised for X, or None."""
    classes = c.z_star_partition(G)
    class_of = {m: i for i, cl in enumerate(classes) for m in cl.members}
    hit = [False] * len(classes)
    for x in sorted(set(X)):
        i = class_of[x]
        if hit[i]:
            return f"X contains two representatives of the class of element {x}"
        hit[i] = True
    if not all(hit):
        missing = hit.index(False)
        return (
            f"X is not a transversal: no representative for the class of element "
            f"{classes[missing].representative}"
        )
    return None


def commutes(G, x, y):
    return G.mul(x, y) == G.mul(y, x)


def naive_graph_edges(G, ids):
    """(vertex ids, edges) of the commuting graph induced on the non-central
    members of ``ids``: the former pair loop, one commutation test per vertex
    pair, read from the table.  Edges are sorted index pairs (i, j), i < j."""
    comm = (G.table == G.table.T).tolist()
    verts = [g for g in sorted(ids) if not all(comm[g])]
    edges = [
        (i, j)
        for i, g in enumerate(verts)
        for j in range(i + 1, len(verts))
        if comm[g][verts[j]]
    ]
    return tuple(verts), tuple(edges)


def naive_centralizer_graph_edges(G):
    """(class representatives, edges) of the centralizer graph by its rule:
    proper classes a, b are adjacent when Z(b) lies in C(a)."""
    classes = [cl for cl in c.z_star_partition(G) if cl.cent.mask != G.full_mask]
    edges = [
        (i, j)
        for i, a in enumerate(classes)
        for j in range(i + 1, len(classes))
        if classes[j].ecenter.issubset(a.cent)
    ]
    return tuple(cl.representative for cl in classes), tuple(edges)


def naive_degrees(vertex_count, edges):
    """Vertex degrees by a scan of the edge list."""
    deg = [0] * vertex_count
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return tuple(deg)


def former_graph_dot(kind, labels, edges):
    """The former DOT writer of a group graph: one line per node and per edge."""
    lines = [f"graph {kind} {{"]
    for i, lab in enumerate(labels):
        quoted = lab.replace('"', '\\"')
        lines.append(f'  v{i} [label="{quoted}"];')
    for i, j in edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def naive_degree_csv(labels, degrees, p=None):
    """``vertex,degree,residue_mod_p`` rows, written by the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vertex", "degree", "residue_mod_p"])
    for label, deg in zip(labels, degrees):
        writer.writerow([label, deg, deg % p if p is not None else ""])
    return buf.getvalue()


def former_quotient_consistency(G):
    """The former edge walk: map every commuting edge to its pair of classes,
    then compare with the centralizer graph's edges (class 0 is central)."""
    class_of = {m: i for i, cl in enumerate(c.z_star_partition(G)) for m in cl.members}
    verts, edges = naive_graph_edges(G, G.elements())
    quotient = set()
    for i, j in edges:
        ci, cj = class_of[verts[i]], class_of[verts[j]]
        if ci != cj:
            quotient.add((min(ci, cj), max(ci, cj)))
    return quotient == {(i + 1, j + 1) for i, j in c.centralizer_graph(G).edges}


def label_set(G, S):
    return {G.label(g) for g in S}


def by_label(G, *labels):
    index = {G.labels[i]: i for i in G.elements()}
    return [index[lab] for lab in labels]


# -- extra constructions -------------------------------------------------------


def unitriangular4_generators(p):
    """Generators of UT(4, p) acting on the p^4 column vectors (degree p^4)."""
    pts = list(itertools.product(range(p), repeat=4))
    idx = {v: i for i, v in enumerate(pts)}

    def perm_of(mat):
        images = []
        for v in pts:
            w = tuple(sum(mat[i][j] * v[j] for j in range(4)) % p for i in range(4))
            images.append(idx[w])
        return c.Permutation(images)

    def transvection(i, j):
        m = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        m[i][j] = 1
        return m

    return [perm_of(transvection(0, 1)), perm_of(transvection(1, 2)), perm_of(transvection(2, 3))]


def unitriangular4(p):
    """UT(4, p) acting on the p^4 column vectors; order p^6, non-F."""
    return c.group_from_generators(unitriangular4_generators(p), name=f"UT4({p})")


# -- naive constructors: one Python step per table entry -----------------------
# Each returns (table as nested lists, labels) by the constructors' former loops.


def naive_cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return table, ("1",) + tuple("g" if k == 1 else f"g^{k}" for k in range(1, n))


def naive_dihedral(order):
    n = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n
            table[i][n + j] = n + (i + j) % n
            table[n + i][j] = n + (i - j) % n
            table[n + i][n + j] = (i - j) % n
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["ab" if i == 1 else f"a^{i}b" for i in range(1, n)]
    return table, tuple(rot + ref)


def naive_quaternion():
    axes = ("e", "i", "j", "k")
    mul = {
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
    }
    units = [(ax, s) for ax in axes for s in (1, -1)]

    def q_mul(u, v):
        (ax1, s1), (ax2, s2) = u, v
        if ax1 == "e":
            return (ax2, s1 * s2)
        if ax2 == "e":
            return (ax1, s1 * s2)
        s, ax = mul[(ax1, ax2)]
        return (ax, s1 * s2 * s)

    index = {u: i for i, u in enumerate(units)}
    table = [[index[q_mul(u, v)] for v in units] for u in units]
    labels = tuple(("" if s == 1 else "-") + ("1" if ax == "e" else ax) for ax, s in units)
    return table, labels


def naive_heisenberg(p):
    def enc(a, b, c):
        return (a * p + b) * p + c

    n = p**3
    table = [[0] * n for _ in range(n)]
    for a1, b1, c1 in itertools.product(range(p), repeat=3):
        row = table[enc(a1, b1, c1)]
        for a2, b2, c2 in itertools.product(range(p), repeat=3):
            row[enc(a2, b2, c2)] = enc((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)
    labels = tuple(
        f"({a},{b},{c})" if (a, b, c) != (0, 0, 0) else "1"
        for a, b, c in itertools.product(range(p), repeat=3)
    )
    return table, labels


def naive_symmetric(n):
    """S_n in itertools.permutations order; one Permutation product per entry."""
    perms = [c.Permutation(p) for p in itertools.permutations(range(n))]
    index = {p.images: i for i, p in enumerate(perms)}
    table = [[index[(pa * pb).images] for pb in perms] for pa in perms]
    return table, ("1",) + tuple(p.cycle_string() for p in perms[1:])


def naive_permutation_group(gens, degree=None):
    """BFS closure by Permutation products, then one dict lookup per entry."""
    deg = gens[0].degree if gens else degree
    ident = c.Permutation.identity(deg)
    index = {ident.images: 0}
    elems = [ident]
    i = 0
    while i < len(elems):
        e = elems[i]
        i += 1
        for g in gens:
            f = e * g
            if f.images not in index:
                index[f.images] = len(elems)
                elems.append(f)
    images = np.array([e.images for e in elems], dtype=np.int32).reshape(len(elems), deg)
    key_to_id = {row.tobytes(): i for i, row in enumerate(images)}
    table = [[key_to_id[row.tobytes()] for row in images[a][images]] for a in range(len(elems))]
    return table, tuple(e.cycle_string() for e in elems)


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="session")
def d8():
    return c.builtin_group("dihedral", 8)


@pytest.fixture(scope="session")
def q8():
    return c.builtin_group("quaternion8")


@pytest.fixture(scope="session")
def s3():
    return c.builtin_group("symmetric", 3)


@pytest.fixture(scope="session")
def s4():
    return c.builtin_group("symmetric", 4)


@pytest.fixture(scope="session")
def h3():
    return c.builtin_group("heisenberg", 3)


@pytest.fixture(scope="session")
def fleet(d8, q8, h3):
    """The p-group test fleet.

    UT4(2) is the non-F member whose centralizer-graph degrees have mixed
    residues; the direct products are non-F but residue-uniform.
    """
    c2 = c.builtin_group("cyclic", 2)
    h5 = c.builtin_group("heisenberg", 5)
    return {
        "D8": d8,
        "Q8": q8,
        "D16": c.builtin_group("dihedral", 16),
        "H3": h3,
        "H5": h5,
        "D8xC2": c.direct_product(d8, c2),
        "D8xD8": c.direct_product(d8, d8),
        "H3xH3": c.direct_product(h3, h3),
        "UT4_2": unitriangular4(2),
    }


ORDER_FLEET = ("S4", "S5", "S6", "D16", "Q8", "H3", "H5", "UT4_3")


@pytest.fixture(scope="session")
def order_fleet(s4, q8, h3):
    """Groups whose lattices and posets the order-structure oracles cover:
    up to 513 lattice nodes (S6) and 236 (UT(4,3))."""
    return {
        "S4": s4,
        "S5": c.builtin_group("symmetric", 5),
        "S6": c.builtin_group("symmetric", 6),
        "D16": c.builtin_group("dihedral", 16),
        "Q8": q8,
        "H3": h3,
        "H5": c.builtin_group("heisenberg", 5),
        "UT4_3": unitriangular4(3),
    }


class NodesLeq:
    """A plain ``nodes``/``min_index``/``leq`` view of a lattice or poset, so
    the order algorithms take their generic path."""

    def __init__(self, obj, min_index=0):
        self.nodes = obj.nodes
        self.min_index = min_index  # the center sorts first in both

    def leq(self, i, j):
        return self.nodes[i].mask & ~self.nodes[j].mask == 0


@pytest.fixture(scope="session")
def small_groups(d8, q8, s3):
    """All 14 isomorphism types of order <= 8."""
    cy = lambda n: c.builtin_group("cyclic", n)
    c2 = cy(2)
    return {
        "C1": cy(1),
        "C2": c2,
        "C3": cy(3),
        "C4": cy(4),
        "V4": c.direct_product(c2, c2),
        "C5": cy(5),
        "C6": cy(6),
        "S3": s3,
        "C7": cy(7),
        "C8": cy(8),
        "C4xC2": c.direct_product(cy(4), c2),
        "C2xC2xC2": c.direct_product(c.direct_product(c2, c2), c2),
        "D8": d8,
        "Q8": q8,
    }


SG37_261_ENV = "CENTRA_SG37_261"


def load_smallgroup_3_7_261():
    """SmallGroup(2187, 261), if a table or generator file was provided
    (env CENTRA_SG37_261 or tests/data/); None otherwise."""
    candidates = []
    env = os.environ.get(SG37_261_ENV)
    if env:
        candidates.append(Path(env))
    data = Path(__file__).parent / "data"
    candidates.append(data / "smallgroup_3_7_261.tbl")
    candidates.append(data / "smallgroup_3_7_261.gens")
    for path in candidates:
        if path.is_file():
            if path.suffix == ".gens":
                return c.group_from_generator_file(path)
            return c.group_from_cayley_table(path)
    return None


@pytest.fixture(scope="session")
def sg37_261():
    return load_smallgroup_3_7_261()
