"""Shared fixtures: the test fleet, independent naive oracles, small-group zoo."""

from __future__ import annotations

import csv
import io
import itertools
import os
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import centra as c
from centra.checks import EXHAUSTIVE_LIMIT, _mask_str, _sampled_pairs, _subset_masks, _Suite
from centra.sets import ids_from_mask

# -- naive oracles (definition-level, no bitmask shortcuts) -------------------


def naive_centralizer(G, ids):
    ids = list(ids)
    return {
        x
        for x in range(G.order)
        if all(G.table[x, s] == G.table[s, x] for s in ids)
    }


def former_centralizer_mask(G, mask):
    """``centralizer_mask`` as it was before it stepped over Z*-classes: one
    AND per member of the set, stopping at Z(G)."""
    if mask < 0 or mask >> G.order:
        raise ValueError(f"mask has bits outside the group of order {G.order}")
    result = G.full_mask
    zmask = G.center.mask
    cms = G.cent_masks
    while mask:
        low = mask & -mask
        result &= cms[low.bit_length() - 1]
        if result == zmask:
            break
        mask ^= low
    return result


def former_z_star_partition(G):
    """The Z*-partition by the former bucket loop, as (representative,
    members, centralizer, element center) masks per class in representative
    order; element centers by ``former_centralizer_mask``."""
    buckets = {}
    for g in range(G.order):
        buckets[G.cent_masks[g]] = buckets.get(G.cent_masks[g], 0) | 1 << g
    classes = [
        ((mm & -mm).bit_length() - 1, mm, cm, former_centralizer_mask(G, cm))
        for cm, mm in buckets.items()
    ]
    return sorted(classes)


class FlippedCentMasks(c.Group):
    """A copy of a group whose cached centralizer masks carry one flipped bit:
    element h is toggled in the mask of C_G(g)."""

    def __init__(self, G, g, h):
        super().__init__(G.table, G.labels, G.name)
        self.flip = (g, h)

    @cached_property
    def cent_masks(self):
        g, h = self.flip
        cms = list(c.Group.cent_masks.func(self))
        cms[g] ^= 1 << h
        return tuple(cms)


def naive_element_order(G, g):
    """Order of ``g``: the least k >= 1 with g^k the identity, one power at a time."""
    k, x = 1, g
    while x != 0:
        x = G.table.item(x, g)
        k += 1
    return k


def naive_center(G):
    return naive_centralizer(G, range(G.order))


def naive_closure(G, ids):
    return naive_centralizer(G, sorted(naive_centralizer(G, ids)))


def naive_generated(G, ids):
    """Closure under all pairwise products, iterated to a fixed point; each
    round reads the products of every pair of members from the table."""
    cur = {0} | set(ids)
    while True:
        members = sorted(cur)
        nxt = cur | set(np.unique(G.table[np.ix_(members, members)]).tolist())
        if nxt == cur:
            return cur
        cur = nxt


def former_generated_mask(G, ids):
    """Subgroup generated by ``ids`` as a bitmask, by the former breadth-first
    search: every reached element times every generator."""
    mask, queue = 1, [0]
    for s in ids:
        if not (mask >> s) & 1:
            mask |= 1 << s
            queue.append(s)
    gens = queue[1:]
    for x in queue:  # grows while it is walked
        for g in gens:
            y = G.table.item(x, g)
            if not (mask >> y) & 1:
                mask |= 1 << y
                queue.append(y)
    return mask


def former_subgroup_label(G, H):
    """``subgroup_label`` as it was before generating sets grew one closure:
    a cyclic scan over every member, then greedy generators, each prefix
    closed from scratch."""
    if H.mask == G.full_mask:
        return G.name
    nontrivial = [m for m in H.members if m != 0]
    if not nontrivial:
        return G.labels[0]
    if len(H) <= 729:
        for m in nontrivial:
            if former_generated_mask(G, [m]) == H.mask:
                return f"<{G.labels[m]}>"
    gens, cur = [], 1
    while cur != H.mask:
        gens.append(ids_from_mask(H.mask & ~cur)[0])
        cur = former_generated_mask(G, gens)
        if cur & ~H.mask:
            raise c.InvariantViolation("generator fell outside the subgroup")
    return "<" + ",".join(G.labels[g] for g in gens) + ">"


def mask_from_ids(ids):
    """Bitmask with bit i set for each id i, without range checks."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def naive_abelian_subset(G, ids):
    ids = list(ids)
    return all(G.table[a, b] == G.table[b, a] for a in ids for b in ids)


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


def worklist_lattice_masks(G):
    """Lattice node masks by the former worklist: {G} closed under
    intersection with every distinct element centralizer, each new mask
    intersected with all of them in turn."""
    gens = set(G.cent_masks)
    gens.discard(G.full_mask)
    masks = {G.full_mask}
    worklist = [G.full_mask]
    while worklist:
        m = worklist.pop()
        for g in gens:
            x = m & g
            if x not in masks:
                masks.add(x)
                worklist.append(x)
    return masks


def former_bit_string_key(order):
    """The former ``_sorted_masks`` key: size, then the complement's bits as
    a string read from bit 0 up."""
    full = (1 << order) - 1
    return lambda m: (m.bit_count(), format(full ^ m, f"0{order}b")[::-1])


def former_node_sort_key(mask):
    """The former node order: by size, then by the ascending member list."""
    return (mask.bit_count(), ids_from_mask(mask))


def node_leq(obj, i, j):
    """Node i of a lattice or poset lies inside node j, read from their masks."""
    return obj.nodes[i].mask & ~obj.nodes[j].mask == 0


def leq_up_sets(obj):
    """Strict up-set bitmasks of a lattice or poset, one ``node_leq`` per pair."""
    n = len(obj.nodes)
    return [sum(1 << j for j in range(n) if j != i and node_leq(obj, i, j)) for i in range(n)]


def leq_down_sets(obj):
    """Strict down-set bitmasks of a lattice or poset, one ``node_leq`` per pair."""
    n = len(obj.nodes)
    return [sum(1 << j for j in range(n) if j != i and node_leq(obj, j, i)) for i in range(n)]


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
    """mu by the recursion over ``node_leq``: 1 at the minimum, else minus the
    sum over every node strictly below (node order is topological)."""
    n = len(obj.nodes)
    mu = []
    for i in range(n):
        below = sum(mu[j] for j in range(i) if node_leq(obj, j, i))
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
    return G.table[x, y] == G.table[y, x]


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


def former_duality_witness(G, classes, cg):
    """The first witness of ``centralizer_graph_duality`` by the former pair
    loop over ``classes`` (the partition the suite read) and the graph ``cg``:
    each pair's edge against Z(j) <= C(i) and Z(i) <= C(j); None if all agree."""
    classes = [cl for cl in classes if cl.cent.mask != G.full_mask]
    cg_edges = set(cg.edges)
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            b = classes[j]
            if not ((i, j) in cg_edges) == (b.ecenter.mask & ~a.cent.mask == 0) == (a.ecenter.mask & ~b.cent.mask == 0):
                return f"pair {G.labels[a.representative]},{G.labels[b.representative]}"
    return None


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
    verts, edges = naive_graph_edges(G, range(G.order))
    quotient = set()
    for i, j in edges:
        ci, cj = class_of[verts[i]], class_of[verts[j]]
        if ci != cj:
            quotient.add((min(ci, cj), max(ci, cj)))
    return quotient == {(i + 1, j + 1) for i, j in c.centralizer_graph(G).edges}


def naive_first_failing_law(table):
    """The first group law that a square table (a list of rows of ids in
    range) breaks, in the validator's order: identity, latin, inverse,
    associativity; None for a group.  Each law is read from its definition,
    entry by entry and triple by triple."""
    ids = list(range(len(table)))
    if table[0] != ids or [row[0] for row in table] != ids:
        return "identity"
    if any(sorted(row) != ids for row in table) or any(
        sorted(row[y] for row in table) != ids for y in ids
    ):
        return "latin"
    if not all(any(table[x][y] == 0 == table[y][x] for y in ids) for x in ids):
        return "inverse"
    for x in ids:
        for a in ids:
            for y in ids:
                if table[table[x][a]][y] != table[x][table[a][y]]:
                    return "associativity"
    return None


def intercalates(table):
    """Every intercalate (r1, r2, c1, c2) of a latin square that avoids row 0
    and column 0: a 2x2 subsquare whose diagonals each hold one value."""
    n = len(table)
    pairs = list(itertools.combinations(range(1, n), 2))
    return [
        (r1, r2, c1, c2)
        for r1, r2 in pairs
        for c1, c2 in pairs
        if table[r1, c1] == table[r2, c2] and table[r1, c2] == table[r2, c1]
    ]


def swap_intercalate(table, r1, r2, c1, c2):
    """A copy of ``table`` with the two values of an intercalate swapped."""
    out = np.array(table)
    u, v = out[r1, c1], out[r1, c2]
    out[r1, c1] = out[r2, c2] = v
    out[r1, c2] = out[r2, c1] = u
    return out


def c1024_intercalate_table():
    """C1024 with one intercalate swapped (rows 3 and 515, columns 7 and 519,
    values 10 and 522): a latin square with identity 0 and two-sided
    inverses that is not associative."""
    ids = np.arange(1024)
    return swap_intercalate((ids[:, None] + ids) % 1024, 3, 515, 7, 519)


def paired_inverse_table(rng, n):
    """A seeded n x n table with identity 0 and inverses paired by a random
    involution (x*y = y*x = 0); every other entry is drawn from 1..n-1, so
    most such tables are not latin squares."""
    table = rng.integers(1, n, size=(n, n))
    table[0] = table[:, 0] = np.arange(n)
    rest = rng.permutation(np.arange(1, n)).tolist()
    while rest:
        x = rest.pop()
        y = rest.pop() if rest and rng.random() < 0.5 else x
        table[x, y] = table[y, x] = 0
    return table


def label_set(G, S):
    return {G.labels[g] for g in S}


def by_label(G, *labels):
    index = {G.labels[i]: i for i in range(G.order)}
    return [index[lab] for lab in labels]


# -- extra constructions -------------------------------------------------------


def unitriangular_generators(n, p):
    """Generators of UT(n, p) acting on the p^n column vectors (degree p^n):
    the n - 1 transvections I + E(i, i+1)."""
    pts = list(itertools.product(range(p), repeat=n))
    idx = {v: i for i, v in enumerate(pts)}

    def perm_of(mat):
        images = []
        for v in pts:
            w = tuple(sum(mat[i][j] * v[j] for j in range(n)) % p for i in range(n))
            images.append(idx[w])
        return c.Permutation(images)

    def transvection(i, j):
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        m[i][j] = 1
        return m

    return [perm_of(transvection(i, i + 1)) for i in range(n - 1)]


def unitriangular(n, p):
    """UT(n, p) acting on the p^n column vectors; order p^(n(n-1)/2).
    UT(4, p) is non-F."""
    return c.group_from_generators(unitriangular_generators(n, p), name=f"UT{n}({p})")


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


def former_centralizer_table(G):
    """C(m) for every subset mask m, as a list, from C(m) = C(m minus its top
    bit) & C(top bit)."""
    table = [G.full_mask]
    for cm in G.cent_masks:
        table += [c & cm for c in table]
    return table


def former_subset_pairs(n):
    """Every pair (S, T) of subset masks with S <= T: T ascending, S descending."""
    for t_mask in range(1 << n):
        sub = t_mask
        while True:
            yield sub, t_mask
            if sub == 0:
                break
            sub = (sub - 1) & t_mask


class FormerCases:
    """A re-iterable stream of cases with a known count, never held as a list."""

    def __init__(self, count, generate):
        self.count = count
        self.generate = generate

    def __len__(self):
        return self.count

    def __iter__(self):
        return self.generate()


def former_algebra_suite(G, rng, samples):
    """``checks.algebra_suite`` as it was before its laws became array
    expressions: generator loops over the same cases, in the same order."""
    s = _Suite("algebra")
    n = G.order
    size = 1 << n
    if n <= EXHAUSTIVE_LIMIT:
        cm = former_centralizer_table(G).__getitem__
        pool = gen_pool = range(size)
        pairs = FormerCases(3**n, lambda: former_subset_pairs(n))
        collections = FormerCases(
            size * (size + 1) // 2,
            lambda: ((a, b) for a in range(size) for b in range(a, size)),
        )
        gpairs = FormerCases(size * size, lambda: itertools.product(range(size), repeat=2))
    else:
        cm = lambda mask: c.centralizer_mask(G, mask)
        gen = np.random.default_rng(rng.getrandbits(64))
        pairs = _sampled_pairs(gen, n, samples)
        pool = [t_mask for _, t_mask in pairs]
        collections = [
            tuple(_subset_masks(gen, n, int(gen.integers(1, 5)), n // 2)) for _ in range(samples)
        ]
        gen_pool = _subset_masks(gen, n, samples, min(n, 6))
        gpairs = list(zip(_subset_masks(gen, n, samples, n), _subset_masks(gen, n, samples, n)))

    s.check("empty_set_centralizer",
            (f"C({shown}) != G" for m, shown in ((0, "empty"), (1, "{0}")) if cm(m) != G.full_mask))

    def not_subgroups():
        is_group = {}
        for m in pool:
            res = cm(m)
            if res not in is_group:
                is_group[res] = c.is_subgroup(G, c.ElemSet(n, res))
            if not is_group[res]:
                yield f"C({_mask_str(m)}) is not a subgroup"

    s.check("centralizer_is_subgroup", not_subgroups(), f"{len(pool)} subsets")
    s.check("antitone_containment",
            (f"S={_mask_str(a)} T={_mask_str(b)}" for a, b in pairs if cm(b) & ~cm(a)),
            f"{len(pairs)} subset pairs")

    def intersection_failures():
        for coll in collections:
            union = 0
            inter = G.full_mask
            for part in coll:
                union |= part
                inter &= cm(part)
            if cm(union) != inter:
                yield " ".join(_mask_str(part) for part in coll)

    s.check("intersection_law", intersection_failures(), f"{len(collections)} collections")
    s.check("generated_subgroup_law",
            (f"S={_mask_str(m)}" for m in gen_pool
             if cm(m) != cm(c.subgroup_generated_by(G, c.ElemSet(n, m)).mask)),
            f"{len(gen_pool)} subsets")
    s.check("triple_centralizer",
            (f"S={_mask_str(m)}" for m, first in zip(pool, map(cm, pool)) if cm(cm(first)) != first),
            f"{len(pool)} subsets")
    s.check("galois_equivalence",
            (f"S={_mask_str(a)} T={_mask_str(b)}" for a, b in gpairs
             if (b & ~cm(a) == 0) != (a & ~cm(b) == 0)),
            f"{len(gpairs)} pairs")
    clm = lambda mask: cm(cm(mask))
    s.check("closure_extensive", (f"S={_mask_str(m)}" for m in pool if m & ~clm(m)),
            f"{len(pool)} subsets")
    s.check("closure_monotone",
            (f"S={_mask_str(a)} T={_mask_str(b)}" for a, b in pairs if clm(a) & ~clm(b)),
            f"{len(pairs)} subset pairs")
    s.check("closure_idempotent",
            (f"S={_mask_str(m)}" for m, once in zip(pool, map(clm, pool)) if clm(once) != once),
            f"{len(pool)} subsets")
    return s.results


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
def ut43xc3():
    """UT(4,3) x C3, order 3^7: the largest group the tests build."""
    return c.direct_product(unitriangular(4, 3), c.builtin_group("cyclic", 3))


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
        "UT4_2": unitriangular(4, 2),
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
        "UT4_3": unitriangular(4, 3),
    }


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
