"""Named property suites driven by the CLI verifier and the test fleet.

Each suite replays the theorem-backed invariants of its area on one group:
exhaustively over the power set up to order ``EXHAUSTIVE_LIMIT``, and on
seeded random samples above that (``samples`` cases per algebra law, drawn as
masks from one numpy ``Generator`` seeded from the suite's ``random.Random``),
so identical invocations always test identical cases.  Each law fails with
its first counterexample in case order: the first failing case of its array
expression for an algebra law (``_first_case``), the first of a lazy stream
of witness strings for the others (``_Suite.check``).  Oracles that test many
masks for containment (least joins, the partition theorem, the Möbius
recursion, the graph duality) read one matrix from the masks alone,
``_subset_matrix``, never the lattice's order structures.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .centralizers import (
    centralizer_mask,
    closure,
    is_abelian_subset,
    z_star_partition,
)
from .graphs import (
    _coset_minima,
    centralizer_graph,
    commuting_graph,
    quotient_consistency,
    transversal_graph,
)
from .groups import Group, _bool_row_mask, _tiles, is_subgroup, subgroup_generated_by
from .lattice import build_lattice, center_poset, is_f_group
from .moebius import (
    check_class_size_congruence,
    check_f_group_counts,
    check_mob_sums,
    moebius,
    p_group_prime,
)
from .sets import ElemSet, ids_from_mask

SUITES = ("algebra", "lattice", "partition", "moebius", "graphs")

EXHAUSTIVE_LIMIT = 8   # full power-set checks up to this group order
POWERSET_ORACLE_LIMIT = 12


@dataclass
class PropertyResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    witness: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        return dict(vars(self))


def _mask_str(mask: int) -> str:
    ids = ids_from_mask(mask)
    shown = ",".join(map(str, ids[:12]))
    if len(ids) > 12:
        shown += f",... ({len(ids)} ids)"
    return "{" + shown + "}"


class _Suite:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.results: list[PropertyResult] = []

    def record(self, name: str, witness: Optional[str], detail: str = "") -> None:
        status = "pass" if witness is None else "fail"
        self.results.append(PropertyResult(f"{self.prefix}/{name}", status, detail, witness))

    def check(self, name: str, witnesses: Iterable[str], detail: str = "") -> None:
        """Record a law that fails with the first of its counterexamples, a
        lazy stream in case order, and passes when the stream is empty."""
        self.record(name, next(iter(witnesses), None), detail)

    def skip(self, name: str, reason: str) -> None:
        self.results.append(PropertyResult(f"{self.prefix}/{name}", "skip", reason))


def _random_row(gen: np.random.Generator, n: int, within, cap: int) -> np.ndarray:
    """Bool row over range(n) of a random subset of ``within`` (an id array, or
    an int for range(within)): its size uniform on 0..cap, then uniform among
    the subsets of that size."""
    row = np.zeros(n, dtype=bool)
    row[gen.choice(within, int(gen.integers(cap + 1)), replace=False)] = True
    return row


def _subset_masks(gen: np.random.Generator, n: int, count: int, cap: int) -> list[int]:
    """``count`` random subset masks of range(n), each of at most ``cap`` ids."""
    return [_bool_row_mask(_random_row(gen, n, n, cap)) for _ in range(count)]


def _sampled_pairs(gen: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` pairs (S, T) of subset masks with S <= T: T as from _subset_masks
    with cap n, then S a random subset of T's ids."""
    pairs = []
    for _ in range(count):
        t_row = _random_row(gen, n, n, n)
        t_ids = np.flatnonzero(t_row)
        pairs.append((_bool_row_mask(_random_row(gen, n, t_ids, len(t_ids))), _bool_row_mask(t_row)))
    return pairs


def _word_rows(masks: list[int], n: int) -> np.ndarray:
    """The masks of subsets of range(n) as rows of little-endian uint64 words."""
    words = (n + 63) // 64
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), words)


def _subset_matrix(A: list[int], B: list[int], n: int) -> np.ndarray:
    """Bool ``sub`` with ``sub[i, j]`` iff A[i] <= B[j], for masks of subsets of
    range(n): no 64-bit word of A[i] & ~B[j] is nonzero.  Each word visits only
    the rows of A with members in it, at most 2^16 word pairs at a time."""
    outside = ~np.ascontiguousarray(_word_rows(B, n).T)  # outside[w, j]: word w of ~B[j]
    sub = np.ones((len(A), len(B)), dtype=bool)
    step = max(1, (1 << 16) // max(1, len(B)))
    for inner, outer in zip(_word_rows(A, n).T, outside):
        rows = inner.nonzero()[0]
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            sub[block] &= (inner[block, None] & outer) == 0
    return sub


def _first_case(fail: np.ndarray, *cases) -> Optional[tuple[int, ...]]:
    """The cases at the first True of ``fail`` in row-major order, which is
    case order, as Python ints; None when no case fails."""
    at = int(fail.argmax())
    if not fail.flat[at]:
        return None
    index = np.unravel_index(at, fail.shape)
    return tuple(int(np.broadcast_to(case, fail.shape)[index]) for case in cases)


def _elementwise(fn: Callable[[int], object]) -> np.ufunc:
    """``fn`` over every entry of an array of masks, memoised by mask."""
    return np.frompyfunc(functools.cache(fn), 1, 1)


def _centralizer_table(G: Group) -> np.ndarray:
    """C(m) for every subset mask m, from C(m) = C(m minus its top bit) & C(top bit),
    in the narrowest dtype that holds G's full mask."""
    table = np.array([G.full_mask], dtype=np.min_scalar_type(G.full_mask))
    for cm in G.cent_masks:
        table = np.concatenate((table, table & cm))
    return table


def _generated_table(G: Group, dtype) -> np.ndarray:
    """The mask of <m> for every subset mask m, from <m> = <<m minus its top
    bit>, top bit>, memoised by (subgroup, bit)."""
    table = [1]  # <empty> = {identity}
    joins: dict[tuple[int, int], int] = {}
    for m in range(1, 1 << G.order):
        bit = m.bit_length() - 1
        key = (table[m ^ 1 << bit], bit)
        if key not in joins:
            joins[key] = subgroup_generated_by(G, ElemSet(G.order, key[0] | 1 << bit)).mask
        table.append(joins[key])
    return np.array(table, dtype=dtype)


def algebra_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    """The closure-operator and Galois laws of C, each one array expression over
    its cases: broadcast views of every subset mask up to order EXHAUSTIVE_LIMIT,
    with C and <.> read from tables, else object arrays of sampled masks, with C
    and <.> mapped over them.  A law fails with its first failing case."""
    s = _Suite("algebra")
    n = G.order
    if n <= EXHAUSTIVE_LIMIT:
        table = _centralizer_table(G)
        cm, generated = table.__getitem__, _generated_table(G, table.dtype).__getitem__
        pool = gen_pool = np.arange(1 << n, dtype=table.dtype)
        row, col = pool[:, None], pool[None, :]
        S, T = pool[None, ::-1], row  # T ascending, S descending within it
        parts, width, in_collection = (row, col), 2, row <= col
        A, B = row, col
    else:
        cm = _elementwise(lambda mask: centralizer_mask(G, mask))
        generated = _elementwise(lambda mask: subgroup_generated_by(G, ElemSet(n, mask)).mask)
        gen = np.random.default_rng(rng.getrandbits(64))
        S, T = (np.array(masks, dtype=object) for masks in zip(*_sampled_pairs(gen, n, samples)))
        pool = T
        collections = [_subset_masks(gen, n, int(gen.integers(1, 5)), n // 2) for _ in range(samples)]
        width = np.array([len(coll) for coll in collections])
        in_collection = width > 0
        padded = np.zeros((samples, 4), dtype=object)  # the empty set is neutral below
        for padded_row, coll in zip(padded, collections):
            padded_row[: len(coll)] = coll
        parts = tuple(padded.T)
        gen_pool = np.array(_subset_masks(gen, n, samples, min(n, 6)), dtype=object)
        A, B = (np.array(_subset_masks(gen, n, samples, n), dtype=object) for _ in range(2))

    def law(name: str, fail: np.ndarray, witness: Callable[..., str], *cases, detail: str = "") -> None:
        first = _first_case(fail, *cases)
        s.record(name, first and witness(*first), detail)

    shown = lambda *masks: " ".join(f"{key}={_mask_str(m)}" for key, m in zip("ST", masks))
    subsets = f"{pool.size} subsets"
    in_pair = (S & ~T) == 0
    pairs = f"{np.count_nonzero(in_pair)} subset pairs"
    c1 = cm(pool)
    c2 = cm(c1)

    # C(empty) = C({1}) = G: the empty set and {1} both generate the trivial subgroup.
    trivial = np.array([0, 1], dtype=pool.dtype)
    law("empty_set_centralizer", cm(trivial) != G.full_mask,
        lambda m: f"C({_mask_str(m) if m else 'empty'}) != G", trivial)

    is_group = _elementwise(lambda mask: is_subgroup(G, ElemSet(n, mask)))
    law("centralizer_is_subgroup", ~is_group(c1).astype(bool),
        lambda m: f"C({_mask_str(m)}) is not a subgroup", pool, detail=subsets)

    # Antitone law over ordered pairs S <= T.
    law("antitone_containment", in_pair & (cm(T) & ~cm(S) != 0), shown, S, T, detail=pairs)

    # Intersection law over pairs and a few wider collections.
    union = functools.reduce(np.bitwise_or, parts)
    inter = functools.reduce(np.bitwise_and, map(cm, parts))
    law("intersection_law", in_collection & (cm(union) != inter),
        lambda k, *coll: " ".join(map(_mask_str, coll[:k])), width, *parts,
        detail=f"{np.count_nonzero(in_collection)} collections")

    # C(S) = C(<S>); generated subgroups kept small on purpose.
    law("generated_subgroup_law", cm(gen_pool) != cm(generated(gen_pool)), shown, gen_pool,
        detail=f"{gen_pool.size} subsets")

    law("triple_centralizer", cm(c2) != c1, shown, pool, detail=subsets)

    # Galois: T <= C(S) iff S <= C(T), over arbitrary pairs.
    law("galois_equivalence", (B & ~cm(A) == 0) != (A & ~cm(B) == 0), shown, A, B,
        detail=f"{np.broadcast(A, B).size} pairs")

    # Closure-operator axioms for C(C(.)).
    clm = lambda masks: cm(cm(masks))
    law("closure_extensive", pool & ~c2 != 0, shown, pool, detail=subsets)
    law("closure_monotone", in_pair & (clm(S) & ~clm(T) != 0), shown, S, T, detail=pairs)
    law("closure_idempotent", clm(c2) != c2, shown, pool, detail=subsets)
    return s.results


def lattice_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("lattice")
    lat = build_lattice(G)
    nodes = lat.nodes
    k = len(nodes)

    s.check("nodes_are_closure_fixed_points",
            (f"node {lat.labels[i]}" for i, node in enumerate(nodes) if closure(G, node).mask != node.mask),
            f"{k} nodes")

    dual = lat.dual
    s.check("duality_involution",
            ["dual is not a bijection"] if sorted(dual) != list(range(k))
            else (f"dual(dual({lat.labels[i]})) != itself" for i in range(k) if dual[dual[i]] != i))

    if k * k > 4 * samples and k > 40:
        pair_idx = [(rng.randrange(k), rng.randrange(k)) for _ in range(4 * samples)]
    else:
        pair_idx = [(i, j) for i in range(k) for j in range(k)]
    node_masks = [node.mask for node in nodes]
    s.check("duality_order_reversing",
            (f"{lat.labels[i]} vs {lat.labels[j]}" for i, j in pair_idx
             if (node_masks[i] & ~node_masks[j] == 0)
             != (node_masks[dual[j]] & ~node_masks[dual[i]] == 0)),
            f"{len(pair_idx)} node pairs")

    node = dict(zip(node_masks, nodes))
    # Meets and joins by node masks, memoised; a call that raises stores nothing.
    meet = functools.cache(lambda a, b: lat.meet(node[a], node[b]).mask)
    join = functools.cache(lambda a, b: lat.join(node[a], node[b]).mask)
    # up[m]: the nodes holding node m, a mask over node indices, for each pair's nodes and join
    touched = list(dict.fromkeys(m for i, j in pair_idx
                                 for m in (node_masks[i], node_masks[j], join(node_masks[i], node_masks[j]))))
    up = dict(zip(touched, map(_bool_row_mask, _subset_matrix(touched, node_masks, G.order))))

    def meet_join_failures():
        for i, j in pair_idx:
            H, K = node_masks[i], node_masks[j]
            if meet(H, K) != H & K:
                yield f"meet({lat.labels[i]},{lat.labels[j]})"
            # Join must be the least node holding both: just the nodes holding both hold it.
            if up[join(H, K)] != up[H] & up[K]:
                yield f"join({lat.labels[i]},{lat.labels[j]})"

    s.check("meet_join_closed_and_least", meet_join_failures(), f"{len(pair_idx)} node pairs")

    ustar = lat.ustar
    s.check("ustar_intersection_law",
            (f"U*({lat.labels[i]} v {lat.labels[j]})" for i, j in pair_idx
             if ustar[lat.index_of(node[join(node_masks[i], node_masks[j])])].mask
             != ustar[i].mask & ustar[j].mask),
            f"{len(pair_idx)} node pairs")

    triples = [(rng.randrange(k), rng.randrange(k), rng.randrange(k)) for _ in range(samples)]

    def law_failures():
        for i, j, l in triples:
            H, K, L = node_masks[i], node_masks[j], node_masks[l]
            if meet(H, H) != H or join(H, H) != H:
                yield f"idempotence at {lat.labels[i]}"
            if meet(H, K) != meet(K, H) or join(H, K) != join(K, H):
                yield f"commutativity at {lat.labels[i]},{lat.labels[j]}"
            if meet(meet(H, K), L) != meet(H, meet(K, L)):
                yield "meet associativity"
            if join(join(H, K), L) != join(H, join(K, L)):
                yield "join associativity"
            if meet(H, join(H, K)) != H or join(H, meet(H, K)) != H:
                yield "absorption"

    s.check("lattice_laws", law_failures(), f"{len(triples)} random triples")

    ends = ((lat.top, G.full_mask, "top is not G"), (lat.bottom, G.center.mask, "bottom is not Z(G)"))
    s.check("top_bottom", (w for i, mask, w in ends if nodes[i].mask != mask))

    if G.order <= POWERSET_ORACLE_LIMIT:
        seen = {centralizer_mask(G, m) for m in range(1 << G.order)}
        s.check("powerset_agreement", [] if seen == set(node_masks) else ["power-set image differs"],
                f"all {1 << G.order} subsets")
    else:
        s.skip("powerset_agreement", f"order {G.order} > {POWERSET_ORACLE_LIMIT}")
    return s.results


def partition_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("partition")
    classes = z_star_partition(G)
    n = G.order
    name = lambda c: G.labels[c.representative]

    def cover_failures():
        union = 0
        for c in classes:
            if union & c.members.mask:
                yield f"class of {name(c)} overlaps another"
            union |= c.members.mask
        if union != G.full_mask:
            yield "classes do not cover G"

    s.check("partition_disjoint_cover", cover_failures(), f"{len(classes)} classes")

    s.check("class_shares_centralizer",
            (f"class of {name(c)}" for c in classes
             if any(G.cent_masks[m] != c.cent.mask for m in c.members)))

    def ecenter_failures():
        for c in classes:
            if c.members.mask & ~c.ecenter.mask:
                yield f"Z*({name(c)}) not inside Z"
            if not is_abelian_subset(G, c.ecenter):
                yield f"Z({name(c)}) not abelian"
            # Element center must be the center of the centralizer.
            zc = sum(1 << m for m in c.cent if c.cent.mask & ~G.cent_masks[m] == 0)
            if zc != c.ecenter.mask:
                yield f"Z({name(c)}) != Z(C(.))"

    s.check("ecenter_structure", ecenter_failures())

    z = G.center

    def coset_failures():
        for c in classes:
            if len(c.members) % len(z):
                yield f"|Z*({name(c)})| not divisible by |Z(G)|"
            covered = 0
            for m in c.members:
                if (covered >> m) & 1:
                    continue
                coset = sum(1 << G.table.item(m, zi) for zi in z)  # m*z are distinct
                if coset & ~c.members.mask:
                    yield f"coset of {G.labels[m]} leaves its class"
                covered |= coset

    s.check("coset_structure", coset_failures())

    s.check("central_class_is_center",
            ("central class is not Z(G)" for c in classes
             if (z.mask >> c.representative) & 1 and c.members.mask != z.mask))

    lat = build_lattice(G)
    node_masks = [node.mask for node in lat.nodes]
    counted = _subset_matrix([c.ecenter.mask for c in classes], node_masks, n).T  # [i, c]: Z(c) <= node i
    members = [c.members.mask for c in classes]

    def theorem_failures():
        for i, (hm, row) in enumerate(zip(node_masks, counted)):
            total = 0
            for c in np.flatnonzero(row).tolist():
                if total & members[c]:
                    yield f"union not disjoint inside {lat.labels[i]}"
                total |= members[c]
            if total != hm:
                yield f"node {lat.labels[i]} is not the union of its Z*-classes"

    s.check("partition_theorem_on_lattice", theorem_failures(), f"{len(lat.nodes)} nodes")

    s.check("ustar_recovers_nodes",
            (f"C(U*) != H at {lat.labels[i]}" for i, (node, u) in enumerate(zip(lat.nodes, lat.ustar))
             if centralizer_mask(G, u.mask) != node.mask))

    if n <= POWERSET_ORACLE_LIMIT:
        fibers: dict[int, int] = {}
        for m in range(1 << n):
            cmask = centralizer_mask(G, m)
            fibers[cmask] = fibers.get(cmask, 0) | m

        def fiber_failures():
            for cmask, union_mask in fibers.items():
                union_cmask = centralizer_mask(G, union_mask)
                if centralizer_mask(G, union_cmask) != union_mask:
                    yield f"fiber union {_mask_str(union_mask)} is not closed"
                if union_cmask != cmask:
                    yield f"fiber union {_mask_str(union_mask)} changes the centralizer"

        s.check("fiber_union_is_closure", fiber_failures(), f"{len(fibers)} fibers")
    else:
        s.skip("fiber_union_is_closure", f"order {n} > {POWERSET_ORACLE_LIMIT}")
    return s.results


def moebius_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("moebius")
    poset = center_poset(G)
    mu = moebius(poset).mu
    mn = poset.min_index
    masks = [node.mask for node in poset.nodes]
    sub = _subset_matrix(masks, masks, G.order)  # sub[j, i]: node j inside node i
    # mu(i) is minus the sum of mu over the nodes properly inside node i, or 1 at the minimum.
    values = np.array(mu, dtype=np.int64)
    expected = values - np.einsum("ji,j->i", sub, values)  # buffered: no int64 copy of sub
    expected[mn] = 1
    s.check("recursion_reverified",
            (f"mu mismatch at {poset.labels[i]}" for i in np.flatnonzero(values != expected)[:1].tolist()),
            f"{len(masks)} nodes")
    s.check("unique_minimum", [] if sub[mn].all() else ["no unique minimum"])

    p = p_group_prime(G.order)
    if p is None:
        s.skip("class_size_congruence", "not a p-group")
        s.skip("mob_sums", "not a p-group")
        s.skip("f_group_counts", "not a p-group")
    else:
        def congruence(name: str, rep, unit: str) -> None:
            """Pass or fail as ``rep.ok``; the failing lines' labels are the witness."""
            bad = "; ".join(line.label for line in rep.lines if not line.passed)
            s.record(name, None if rep.ok else bad, f"{len(rep.lines)} {unit}")

        congruence("class_size_congruence", check_class_size_congruence(G, p), "classes")
        if G.is_abelian:
            s.skip("mob_sums", "abelian group")
        else:
            congruence("mob_sums", check_mob_sums(G, p), "sums")
        if not G.is_abelian and is_f_group(G):
            congruence("f_group_counts", check_f_group_counts(G, p), "counts")
        else:
            s.skip("f_group_counts", "not a nonabelian F-group")

    if is_f_group(G):
        s.check("f_group_mu_is_minus_one",
                (f"mu({poset.labels[i]}) = {m}" for i, m in enumerate(mu) if i != mn and m != -1))
    else:
        s.skip("f_group_mu_is_minus_one", "not an F-group")
    return s.results


def _centralizer_sizes(G: Group) -> list[int]:
    """|C(g)| for every element g, the graphs suite's degree oracle.  It counts
    commuting partners from the table itself, never from the centralizer
    masks or the graphs under test: ``table == table.T`` summed over square
    tiles (``_tiles``), each tile t[R, C] against the transposed t[C, R].T."""
    t = G.table
    sizes = np.zeros(G.order, dtype=np.intp)
    for rows, cols in _tiles(G.order):
        sizes[rows] += (t[rows, cols] == t[cols, rows].T).sum(axis=1)
    return sizes.tolist()


def graphs_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("graphs")
    if G.is_abelian:
        s.skip("all", "abelian group: graphs have empty vertex sets")
        return s.results
    cent_sizes = _centralizer_sizes(G)
    zsize = cent_sizes.count(G.order)
    com = commuting_graph(G)
    s.check("commuting_degree_formula",
            (f"vertex {lab}" for v, lab, deg in zip(com.vertex_ids, com.labels, com.degrees())
             if deg != cent_sizes[v] - zsize - 1),
            f"{com.vertex_count} vertices")

    pz = p_group_prime(zsize)
    if pz is not None:
        s.check("commuting_degrees_mod_p",
                (f"vertex {lab}: degree {deg}" for lab, deg in zip(com.labels, com.degrees())
                 if deg % pz != (-1) % pz),
                f"p={pz}")
    else:
        s.skip("commuting_degrees_mod_p", "Z(G) is not a nontrivial p-group")

    def transversal_failures(graph):
        return (f"vertex {lab}" for v, lab, deg in zip(graph.vertex_ids, graph.labels, graph.degrees())
                if deg != cent_sizes[v] // zsize - 2)

    tg = transversal_graph(G)
    s.check("transversal_degree_formula", transversal_failures(tg), f"{tg.vertex_count} vertices")

    # The degree formula holds for any transversal, not just the default one.
    cosets: dict[int, list[int]] = {}  # by least member, each ascending
    for g, least in enumerate(_coset_minima(G)):
        cosets.setdefault(least, []).append(g)
    alt = [rng.choice(coset) for coset in cosets.values()]
    s.check("transversal_degree_formula_random_t", transversal_failures(transversal_graph(G, alt)))

    pq = p_group_prime(G.order // zsize)
    if pq is not None:
        s.check("transversal_degrees_mod_p",
                (f"vertex {lab}: degree {deg}" for lab, deg in zip(tg.labels, tg.degrees())
                 if deg % pq != (-2) % pq),
                f"p={pq}")
    else:
        s.skip("transversal_degrees_mod_p", "G/Z(G) is not a nontrivial p-group")

    cg = centralizer_graph(G)
    classes = [c for c in z_star_partition(G) if c.cent.mask != G.full_mask]
    s.check("centralizer_graph_vertices",
            [] if cg.vertex_count == len(classes) else ["vertex count != proper centralizers"])

    # Each pair is adjacent iff Z(j) <= C(i), iff Z(i) <= C(j): the duality.
    # inside[j, i] is Z(j) <= C(i), from the classes' masks alone.
    k = len(classes)
    inside = _subset_matrix([a.ecenter.mask for a in classes], [b.cent.mask for b in classes], G.order)
    edge = np.zeros((k, k), dtype=bool)
    pairs = np.array(cg.edges, dtype=np.intp).reshape(-1, 2)
    pairs = pairs[pairs[:, 1] < k]  # a graph with more vertices than classes
    edge[pairs[:, 0], pairs[:, 1]] = True
    bad = np.argwhere(np.triu((edge != inside.T) | (inside != inside.T), 1))
    s.check("centralizer_graph_duality",
            (f"pair {G.labels[classes[i].representative]},{G.labels[classes[j].representative]}"
             for i, j in bad[:1].tolist()))

    p = p_group_prime(G.order)
    if p is not None and is_f_group(G):
        s.check("f_group_centralizer_degrees",
                (f"vertex {lab}: degree {deg}" for lab, deg in zip(cg.labels, cg.degrees()) if deg % p),
                f"p={p}")
    else:
        s.skip("f_group_centralizer_degrees", "not an F-group p-group")

    s.check("quotient_consistency", [] if quotient_consistency(G) else ["commuting-graph quotient differs"])
    return s.results


_SUITE_FUNCS: dict[str, Callable[[Group, random.Random, int], list[PropertyResult]]] = {
    "algebra": algebra_suite,
    "lattice": lattice_suite,
    "partition": partition_suite,
    "moebius": moebius_suite,
    "graphs": graphs_suite,
}


def run_suite(G: Group, suite: str = "all", *, seed: int = 0, samples: int = 200) -> list[PropertyResult]:
    """Run one named suite (or all of them) against a group."""
    if suite == "all":
        names = list(SUITES)
    elif suite in _SUITE_FUNCS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r} (expected one of {SUITES + ('all',)})")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    results: list[PropertyResult] = []
    for name in names:
        rng = random.Random(seed)
        results.extend(_SUITE_FUNCS[name](G, rng, samples))
    return results
