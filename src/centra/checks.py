"""Named property suites driven by the CLI verifier and the test fleet.

Each suite replays the theorem-backed invariants of its area on one group:
exhaustively over the power set up to order ``EXHAUSTIVE_LIMIT``, and on
seeded random samples above that (``samples`` cases per algebra law, drawn as
masks from one numpy ``Generator`` seeded from the suite's ``random.Random``),
so identical invocations always test identical cases.  Each law's
counterexamples are a lazy stream of witness strings in case order; the law
fails with the first one (``_Suite.check``).
"""

from __future__ import annotations

import itertools
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
    centralizer_graph,
    commuting_graph,
    quotient_consistency,
    transversal_graph,
)
from .groups import Group, _bool_row_mask, is_subgroup, subgroup_generated_by
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
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "witness": self.witness,
        }


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


def _centralizer_table(G: Group) -> list[int]:
    """C(m) for every subset mask m, from C(m) = C(m minus its top bit) & C(top bit)."""
    table = [G.full_mask]
    for cm in G.cent_masks:
        table += [c & cm for c in table]
    return table


def _subset_pairs(n: int):
    """Every pair (S, T) of subset masks with S <= T: T ascending, S descending."""
    for t_mask in range(1 << n):
        sub = t_mask
        while True:
            yield sub, t_mask
            if sub == 0:
                break
            sub = (sub - 1) & t_mask


class _Cases:
    """A re-iterable stream of cases with a known count, never held as a list."""

    def __init__(self, count: int, generate: Callable):
        self.count = count
        self.generate = generate

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return self.generate()


def algebra_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("algebra")
    n = G.order
    size = 1 << n
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        cm = _centralizer_table(G).__getitem__
        pool = gen_pool = range(size)
        pairs = _Cases(3**n, lambda: _subset_pairs(n))
        collections = _Cases(
            size * (size + 1) // 2,
            lambda: ((a, b) for a in range(size) for b in range(a, size)),
        )
        gpairs = _Cases(size * size, lambda: itertools.product(range(size), repeat=2))
    else:
        cm = lambda mask: centralizer_mask(G, mask)
        gen = np.random.default_rng(rng.getrandbits(64))
        pairs = _sampled_pairs(gen, n, samples)
        pool = [t_mask for _, t_mask in pairs]
        collections = [
            tuple(_subset_masks(gen, n, int(gen.integers(1, 5)), n // 2)) for _ in range(samples)
        ]
        gen_pool = _subset_masks(gen, n, samples, min(n, 6))
        gpairs = list(zip(_subset_masks(gen, n, samples, n), _subset_masks(gen, n, samples, n)))

    # C(empty) = C({1}) = G: the empty set and {1} both generate the trivial subgroup.
    s.check("empty_set_centralizer",
            (f"C({shown}) != G" for m, shown in ((0, "empty"), (1, "{0}")) if cm(m) != G.full_mask))

    def not_subgroups():
        is_group: dict[int, bool] = {}
        for m in pool:
            res = cm(m)
            if res not in is_group:
                is_group[res] = is_subgroup(G, ElemSet(n, res))
            if not is_group[res]:
                yield f"C({_mask_str(m)}) is not a subgroup"

    s.check("centralizer_is_subgroup", not_subgroups(), f"{len(pool)} subsets")

    # Antitone law over ordered pairs S <= T.
    s.check("antitone_containment",
            (f"S={_mask_str(a)} T={_mask_str(b)}" for a, b in pairs if cm(b) & ~cm(a)),
            f"{len(pairs)} subset pairs")

    # Intersection law over pairs and a few wider collections.
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

    # C(S) = C(<S>); generated subgroups kept small on purpose.
    s.check("generated_subgroup_law",
            (f"S={_mask_str(m)}" for m in gen_pool
             if cm(m) != cm(subgroup_generated_by(G, ElemSet(n, m)).mask)),
            f"{len(gen_pool)} subsets")

    s.check("triple_centralizer",
            (f"S={_mask_str(m)}" for m, first in zip(pool, map(cm, pool)) if cm(cm(first)) != first),
            f"{len(pool)} subsets")

    # Galois: T <= C(S) iff S <= C(T), over arbitrary pairs.
    s.check("galois_equivalence",
            (f"S={_mask_str(a)} T={_mask_str(b)}" for a, b in gpairs
             if (b & ~cm(a) == 0) != (a & ~cm(b) == 0)),
            f"{len(gpairs)} pairs")

    # Closure-operator axioms for C(C(.)).
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


def lattice_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("lattice")
    lat = build_lattice(G)
    nodes = lat.nodes
    k = len(nodes)
    label = lat.node_label

    s.check("nodes_are_closure_fixed_points",
            (f"node {label(i)}" for i, node in enumerate(nodes) if closure(G, node).mask != node.mask),
            f"{k} nodes")

    dual = lat.dual
    s.check("duality_involution",
            ["dual is not a bijection"] if sorted(dual) != list(range(k))
            else (f"dual(dual({label(i)})) != itself" for i in range(k) if dual[dual[i]] != i))

    if k * k > 4 * samples and k > 40:
        pair_idx = [
            (rng.randrange(k), rng.randrange(k)) for _ in range(4 * samples)
        ]
    else:
        pair_idx = [(i, j) for i in range(k) for j in range(k)]
    s.check("duality_order_reversing",
            (f"{label(i)} vs {label(j)}" for i, j in pair_idx
             if lat.leq(i, j) != lat.leq(dual[j], dual[i])),
            f"{len(pair_idx)} node pairs")

    node_masks = [node.mask for node in nodes]

    def meet_join_failures():
        for i, j in pair_idx:
            H, K = nodes[i], nodes[j]
            m, jn = lat.meet(H, K), lat.join(H, K)
            if m.mask != H.mask & K.mask:
                yield f"meet({label(i)},{label(j)})"
            # Join must be the least node containing both.
            both = H.mask | K.mask
            expected = G.full_mask
            for om in node_masks:
                if both & ~om == 0:
                    expected &= om
            if jn.mask != expected:
                yield f"join({label(i)},{label(j)})"

    s.check("meet_join_closed_and_least", meet_join_failures(), f"{len(pair_idx)} node pairs")

    ustar = lat.ustar
    s.check("ustar_intersection_law",
            (f"U*({label(i)} v {label(j)})" for i, j in pair_idx
             if ustar[lat.index_of(lat.join(nodes[i], nodes[j]))].mask != ustar[i].mask & ustar[j].mask),
            f"{len(pair_idx)} node pairs")

    triples = [
        (rng.randrange(k), rng.randrange(k), rng.randrange(k)) for _ in range(samples)
    ]

    def law_failures():
        meet, join = lat.meet, lat.join
        for i, j, l in triples:
            H, K, L = nodes[i], nodes[j], nodes[l]
            if meet(H, H).mask != H.mask or join(H, H).mask != H.mask:
                yield f"idempotence at {label(i)}"
            if meet(H, K).mask != meet(K, H).mask or join(H, K).mask != join(K, H).mask:
                yield f"commutativity at {label(i)},{label(j)}"
            if meet(meet(H, K), L).mask != meet(H, meet(K, L)).mask:
                yield "meet associativity"
            if join(join(H, K), L).mask != join(H, join(K, L)).mask:
                yield "join associativity"
            if meet(H, join(H, K)).mask != H.mask or join(H, meet(H, K)).mask != H.mask:
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
    name = lambda c: G.label(c.representative)

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
            zc = 0
            for m in c.cent:
                if c.cent.mask & ~G.cent_masks[m] == 0:
                    zc |= 1 << m
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
                coset = 0
                for zi in z:
                    coset |= 1 << G.mul(m, zi)
                if coset & ~c.members.mask:
                    yield f"coset of {G.label(m)} leaves its class"
                covered |= coset

    s.check("coset_structure", coset_failures())

    s.check("central_class_is_center",
            ("central class is not Z(G)" for c in classes
             if (z.mask >> c.representative) & 1 and c.members.mask != z.mask))

    lat = build_lattice(G)

    def theorem_failures():
        for i, node in enumerate(lat.nodes):
            hm = node.mask
            total = 0
            count = 0
            for c in classes:
                if c.ecenter.mask & ~hm == 0:
                    if total & c.members.mask:
                        yield f"union not disjoint inside {lat.node_label(i)}"
                    total |= c.members.mask
                    count += len(c.members)
            if total != hm or count != len(node):
                yield f"node {lat.node_label(i)} is not the union of its Z*-classes"

    s.check("partition_theorem_on_lattice", theorem_failures(), f"{len(lat.nodes)} nodes")

    s.check("ustar_recovers_nodes",
            (f"C(U*) != H at {lat.node_label(i)}" for i, (node, u) in enumerate(zip(lat.nodes, lat.ustar))
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
    size = len(poset.nodes)
    mn = poset.min_index

    s.check("recursion_reverified",
            (f"mu mismatch at {poset.node_label(i)}" for i in range(size)
             if mu[i] != (1 if i == mn else -sum(mu[j] for j in range(size) if j != i and poset.leq(j, i)))),
            f"{size} nodes")
    s.check("unique_minimum", ("no unique minimum" for j in range(size) if not poset.leq(mn, j)))

    p = p_group_prime(G.order)
    if p is None:
        s.skip("class_size_congruence", "not a p-group")
        s.skip("mob_sums", "not a p-group")
        s.skip("f_group_counts", "not a p-group")
    else:
        rep = check_class_size_congruence(G, p)
        bad = [line.label for line in rep.lines if not line.passed]
        s.record("class_size_congruence", "; ".join(bad) or None, f"{len(rep.lines)} classes")
        if G.is_abelian:
            s.skip("mob_sums", "abelian group")
        else:
            rep = check_mob_sums(G, p)
            bad = [line.label for line in rep.lines if not line.passed]
            s.record("mob_sums", "; ".join(bad) or None, f"{len(rep.lines)} sums")
        if not G.is_abelian and is_f_group(G):
            rep = check_f_group_counts(G, p)
            bad = [line.label for line in rep.lines if not line.passed]
            s.record("f_group_counts", "; ".join(bad) or None, f"{len(rep.lines)} counts")
        else:
            s.skip("f_group_counts", "not a nonabelian F-group")

    if is_f_group(G):
        s.check("f_group_mu_is_minus_one",
                (f"mu({poset.node_label(i)}) = {m}" for i, m in enumerate(mu) if i != mn and m != -1))
    else:
        s.skip("f_group_mu_is_minus_one", "not an F-group")
    return s.results


def graphs_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("graphs")
    if G.is_abelian:
        s.skip("all", "abelian group: graphs have empty vertex sets")
        return s.results
    # The degree oracles count commuting partners from the table itself, never
    # from the centralizer masks or the graphs under test: |C(v)| per element.
    cent_sizes = (G.table == G.table.T).sum(axis=1).tolist()
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
    for g, least in enumerate(G.table[:, list(G.center.members)].min(axis=1).tolist()):
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
    cg_edges = set(cg.edges)
    ecenters = [a.ecenter.mask for a in classes]
    outside = [~b.cent.mask for b in classes]
    reps = [G.label(c.representative) for c in classes]

    def duality_failures():
        for i, (zi, oi) in enumerate(zip(ecenters, outside)):
            for j in range(i + 1, len(classes)):
                if not ((i, j) in cg_edges) == (ecenters[j] & oi == 0) == (zi & outside[j] == 0):
                    yield f"pair {reps[i]},{reps[j]}"

    s.check("centralizer_graph_duality", duality_failures())

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
