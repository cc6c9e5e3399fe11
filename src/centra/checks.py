"""Named property suites driven by the CLI verifier and the test fleet.

Each suite replays the theorem-backed invariants of its area on one group:
exhaustively over the power set up to order ``EXHAUSTIVE_LIMIT``, and on
seeded random samples above that (``samples`` cases per algebra law, drawn as
masks from one numpy ``Generator`` seeded from the suite's ``random.Random``),
so identical invocations always test identical cases.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    witness = None if cm(0) == G.full_mask else "C(empty) != G"
    if witness is None and cm(1) != G.full_mask:
        witness = "C({0}) != G"
    s.record("empty_set_centralizer", witness)

    witness = None
    is_group: dict[int, bool] = {}
    for m in pool:
        res = cm(m)
        if res not in is_group:
            is_group[res] = is_subgroup(G, ElemSet(n, res))
        if not is_group[res]:
            witness = f"C({_mask_str(m)}) is not a subgroup"
            break
    s.record("centralizer_is_subgroup", witness, f"{len(pool)} subsets")

    # Antitone law over ordered pairs S <= T.
    witness = None
    for s_mask, t_mask in pairs:
        if cm(t_mask) & ~cm(s_mask):
            witness = f"S={_mask_str(s_mask)} T={_mask_str(t_mask)}"
            break
    s.record("antitone_containment", witness, f"{len(pairs)} subset pairs")

    # Intersection law over pairs and a few wider collections.
    witness = None
    for coll in collections:
        union = 0
        inter = G.full_mask
        for part in coll:
            union |= part
            inter &= cm(part)
        if cm(union) != inter:
            witness = " ".join(_mask_str(part) for part in coll)
            break
    s.record("intersection_law", witness, f"{len(collections)} collections")

    # C(S) = C(<S>); generated subgroups kept small on purpose.
    witness = None
    for m in gen_pool:
        if cm(m) != cm(subgroup_generated_by(G, ElemSet(n, m)).mask):
            witness = f"S={_mask_str(m)}"
            break
    s.record("generated_subgroup_law", witness, f"{len(gen_pool)} subsets")

    witness = None
    for m in pool:
        first = cm(m)
        if cm(cm(first)) != first:
            witness = f"S={_mask_str(m)}"
            break
    s.record("triple_centralizer", witness, f"{len(pool)} subsets")

    # Galois: T <= C(S) iff S <= C(T), over arbitrary pairs.
    witness = None
    for a, b in gpairs:
        if (b & ~cm(a) == 0) != (a & ~cm(b) == 0):
            witness = f"S={_mask_str(a)} T={_mask_str(b)}"
            break
    s.record("galois_equivalence", witness, f"{len(gpairs)} pairs")

    # Closure-operator axioms for C(C(.)).
    clm = lambda mask: cm(cm(mask))
    witness = None
    for m in pool:
        if m & ~clm(m):
            witness = f"S={_mask_str(m)}"
            break
    s.record("closure_extensive", witness, f"{len(pool)} subsets")

    witness = None
    for s_mask, t_mask in pairs:
        if clm(s_mask) & ~clm(t_mask):
            witness = f"S={_mask_str(s_mask)} T={_mask_str(t_mask)}"
            break
    s.record("closure_monotone", witness, f"{len(pairs)} subset pairs")

    witness = None
    for m in pool:
        once = clm(m)
        if clm(once) != once:
            witness = f"S={_mask_str(m)}"
            break
    s.record("closure_idempotent", witness, f"{len(pool)} subsets")
    return s.results


def lattice_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("lattice")
    lat = build_lattice(G)
    nodes = lat.nodes
    k = len(nodes)

    witness = None
    for i, node in enumerate(nodes):
        if closure(G, node).mask != node.mask:
            witness = f"node {lat.node_label(i)}"
            break
    s.record("nodes_are_closure_fixed_points", witness, f"{k} nodes")

    witness = None
    if sorted(lat.dual) != list(range(k)):
        witness = "dual is not a bijection"
    else:
        for i in range(k):
            if lat.dual[lat.dual[i]] != i:
                witness = f"dual(dual({lat.node_label(i)})) != itself"
                break
    s.record("duality_involution", witness)

    if k * k > 4 * samples and k > 40:
        pair_idx = [
            (rng.randrange(k), rng.randrange(k)) for _ in range(4 * samples)
        ]
    else:
        pair_idx = [(i, j) for i in range(k) for j in range(k)]
    witness = None
    for i, j in pair_idx:
        if lat.leq(i, j) != lat.leq(lat.dual[j], lat.dual[i]):
            witness = f"{lat.node_label(i)} vs {lat.node_label(j)}"
            break
    s.record("duality_order_reversing", witness, f"{len(pair_idx)} node pairs")

    witness = None
    node_masks = [node.mask for node in nodes]
    for i, j in pair_idx:
        H, K = nodes[i], nodes[j]
        try:
            m = lat.meet(H, K)
            jn = lat.join(H, K)
        except ValueError as exc:
            witness = str(exc)
            break
        if m.mask != H.mask & K.mask:
            witness = f"meet({lat.node_label(i)},{lat.node_label(j)})"
            break
        # Join must be the least node containing both.
        both = H.mask | K.mask
        expected = G.full_mask
        for om in node_masks:
            if both & ~om == 0:
                expected &= om
        if jn.mask != expected:
            witness = f"join({lat.node_label(i)},{lat.node_label(j)})"
            break
    s.record("meet_join_closed_and_least", witness, f"{len(pair_idx)} node pairs")

    ustar = lat.ustar
    witness = None
    for i, j in pair_idx:
        ujoin = ustar[lat.index_of(lat.join(nodes[i], nodes[j]))].mask
        if ujoin != ustar[i].mask & ustar[j].mask:
            witness = f"U*({lat.node_label(i)} v {lat.node_label(j)})"
            break
    s.record("ustar_intersection_law", witness, f"{len(pair_idx)} node pairs")

    witness = None
    triples = [
        (rng.randrange(k), rng.randrange(k), rng.randrange(k)) for _ in range(samples)
    ]
    for i, j, l in triples:
        H, K, L = nodes[i], nodes[j], nodes[l]
        if lat.meet(H, H).mask != H.mask or lat.join(H, H).mask != H.mask:
            witness = f"idempotence at {lat.node_label(i)}"
            break
        if lat.meet(H, K).mask != lat.meet(K, H).mask or lat.join(H, K).mask != lat.join(K, H).mask:
            witness = f"commutativity at {lat.node_label(i)},{lat.node_label(j)}"
            break
        if lat.meet(lat.meet(H, K), L).mask != lat.meet(H, lat.meet(K, L)).mask:
            witness = "meet associativity"
            break
        if lat.join(lat.join(H, K), L).mask != lat.join(H, lat.join(K, L)).mask:
            witness = "join associativity"
            break
        if lat.meet(H, lat.join(H, K)).mask != H.mask or lat.join(H, lat.meet(H, K)).mask != H.mask:
            witness = "absorption"
            break
    s.record("lattice_laws", witness, f"{len(triples)} random triples")

    witness = None
    if nodes[lat.top].mask != G.full_mask:
        witness = "top is not G"
    elif nodes[lat.bottom].mask != G.center.mask:
        witness = "bottom is not Z(G)"
    s.record("top_bottom", witness)

    if G.order <= POWERSET_ORACLE_LIMIT:
        seen = set()
        for m in range(1 << G.order):
            seen.add(centralizer_mask(G, m))
        witness = None if seen == {node.mask for node in nodes} else "power-set image differs"
        s.record("powerset_agreement", witness, f"all {1 << G.order} subsets")
    else:
        s.skip("powerset_agreement", f"order {G.order} > {POWERSET_ORACLE_LIMIT}")
    return s.results


def partition_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("partition")
    classes = z_star_partition(G)
    n = G.order

    union = 0
    overlap = None
    for c in classes:
        if union & c.members.mask:
            overlap = f"class of {G.label(c.representative)} overlaps another"
            break
        union |= c.members.mask
    witness = overlap or (None if union == G.full_mask else "classes do not cover G")
    s.record("partition_disjoint_cover", witness, f"{len(classes)} classes")

    witness = None
    for c in classes:
        if any(G.cent_masks[m] != c.cent.mask for m in c.members):
            witness = f"class of {G.label(c.representative)}"
            break
    s.record("class_shares_centralizer", witness)

    witness = None
    for c in classes:
        if c.members.mask & ~c.ecenter.mask:
            witness = f"Z*({G.label(c.representative)}) not inside Z"
            break
        if not is_abelian_subset(G, c.ecenter):
            witness = f"Z({G.label(c.representative)}) not abelian"
            break
        # Element center must be the center of the centralizer.
        zc = 0
        for m in c.cent:
            if c.cent.mask & ~G.cent_masks[m] == 0:
                zc |= 1 << m
        if zc != c.ecenter.mask:
            witness = f"Z({G.label(c.representative)}) != Z(C(.))"
            break
    s.record("ecenter_structure", witness)

    z = G.center
    witness = None
    for c in classes:
        if len(c.members) % len(z):
            witness = f"|Z*({G.label(c.representative)})| not divisible by |Z(G)|"
            break
        covered = 0
        for m in c.members:
            if (covered >> m) & 1:
                continue
            coset = 0
            for zi in z:
                coset |= 1 << G.mul(m, zi)
            if coset & ~c.members.mask:
                witness = f"coset of {G.label(m)} leaves its class"
                break
            covered |= coset
        if witness:
            break
    s.record("coset_structure", witness)

    witness = None
    for c in classes:
        if (z.mask >> c.representative) & 1 and c.members.mask != z.mask:
            witness = "central class is not Z(G)"
            break
    s.record("central_class_is_center", witness)

    lat = build_lattice(G)
    witness = None
    for i, node in enumerate(lat.nodes):
        hm = node.mask
        total = 0
        count = 0
        for c in classes:
            if c.ecenter.mask & ~hm == 0:
                if total & c.members.mask:
                    witness = f"union not disjoint inside {lat.node_label(i)}"
                    break
                total |= c.members.mask
                count += len(c.members)
        if witness:
            break
        if total != hm or count != len(node):
            witness = f"node {lat.node_label(i)} is not the union of its Z*-classes"
            break
    s.record("partition_theorem_on_lattice", witness, f"{len(lat.nodes)} nodes")

    witness = None
    for i, (node, u) in enumerate(zip(lat.nodes, lat.ustar)):
        if centralizer_mask(G, u.mask) != node.mask:
            witness = f"C(U*) != H at {lat.node_label(i)}"
            break
    s.record("ustar_recovers_nodes", witness)

    if n <= POWERSET_ORACLE_LIMIT:
        fibers: dict[int, int] = {}
        for m in range(1 << n):
            cmask = centralizer_mask(G, m)
            fibers[cmask] = fibers.get(cmask, 0) | m
        witness = None
        for cmask, union_mask in fibers.items():
            union_cmask = centralizer_mask(G, union_mask)
            if centralizer_mask(G, union_cmask) != union_mask:
                witness = f"fiber union {_mask_str(union_mask)} is not closed"
                break
            if union_cmask != cmask:
                witness = f"fiber union {_mask_str(union_mask)} changes the centralizer"
                break
        s.record("fiber_union_is_closure", witness, f"{len(fibers)} fibers")
    else:
        s.skip("fiber_union_is_closure", f"order {n} > {POWERSET_ORACLE_LIMIT}")
    return s.results


def moebius_suite(G: Group, rng: random.Random, samples: int) -> list[PropertyResult]:
    s = _Suite("moebius")
    poset = center_poset(G)
    table = moebius(poset)

    witness = None
    mn = poset.min_index
    for i in range(len(poset.nodes)):
        below = sum(table.mu[j] for j in range(len(poset.nodes)) if j != i and poset.leq(j, i))
        expected = 1 if i == mn else -below
        if table.mu[i] != expected:
            witness = f"mu mismatch at {poset.node_label(i)}"
            break
    s.record("recursion_reverified", witness, f"{len(poset.nodes)} nodes")

    witness = None if all(poset.leq(mn, j) for j in range(len(poset.nodes))) else "no unique minimum"
    s.record("unique_minimum", witness)

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
        witness = None
        for i, m in enumerate(table.mu):
            if i != mn and m != -1:
                witness = f"mu({poset.node_label(i)}) = {m}"
                break
        s.record("f_group_mu_is_minus_one", witness)
    else:
        s.skip("f_group_mu_is_minus_one", "not an F-group")
    return s.results


def _degree_witness(graph, ok: Callable[[int, int], bool], show_degree=False) -> Optional[str]:
    """The first vertex whose degree fails ``ok(vertex id, degree)``, as a witness."""
    for v, lab, deg in zip(graph.vertex_ids, graph.labels, graph.degrees()):
        if not ok(v, deg):
            return f"vertex {lab}: degree {deg}" if show_degree else f"vertex {lab}"
    return None


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
    witness = _degree_witness(com, lambda v, deg: deg == cent_sizes[v] - zsize - 1)
    s.record("commuting_degree_formula", witness, f"{com.vertex_count} vertices")

    pz = p_group_prime(zsize)
    if pz is not None:
        witness = _degree_witness(com, lambda v, deg: deg % pz == (-1) % pz, show_degree=True)
        s.record("commuting_degrees_mod_p", witness, f"p={pz}")
    else:
        s.skip("commuting_degrees_mod_p", "Z(G) is not a nontrivial p-group")

    transversal_law = lambda v, deg: deg == cent_sizes[v] // zsize - 2
    tg = transversal_graph(G)
    s.record("transversal_degree_formula", _degree_witness(tg, transversal_law),
             f"{tg.vertex_count} vertices")

    # The degree formula holds for any transversal, not just the default one.
    cosets: dict[int, list[int]] = {}  # by least member, each ascending
    for g, least in enumerate(G.table[:, list(G.center.members)].min(axis=1).tolist()):
        cosets.setdefault(least, []).append(g)
    alt = [rng.choice(coset) for coset in cosets.values()]
    tg_alt = transversal_graph(G, alt)
    s.record("transversal_degree_formula_random_t", _degree_witness(tg_alt, transversal_law))

    pq = p_group_prime(G.order // zsize)
    if pq is not None:
        witness = _degree_witness(tg, lambda v, deg: deg % pq == (-2) % pq, show_degree=True)
        s.record("transversal_degrees_mod_p", witness, f"p={pq}")
    else:
        s.skip("transversal_degrees_mod_p", "G/Z(G) is not a nontrivial p-group")

    cg = centralizer_graph(G)
    classes = [c for c in z_star_partition(G) if c.cent.mask != G.full_mask]
    witness = None if cg.vertex_count == len(classes) else "vertex count != proper centralizers"
    s.record("centralizer_graph_vertices", witness)

    # Adjacency agrees with the dual formulation on element centers.
    cg_edges = set(cg.edges)
    ecenters = [a.ecenter.mask for a in classes]
    outside = [~b.cent.mask for b in classes]
    bad = next(((i, j) for i, j in itertools.combinations(range(len(classes)), 2)
                if ((i, j) in cg_edges) != (ecenters[i] & outside[j] == 0)), None)
    reps = [G.label(c.representative) for c in classes]
    witness = None if bad is None else f"pair {reps[bad[0]]},{reps[bad[1]]}"
    s.record("centralizer_graph_duality", witness)

    p = p_group_prime(G.order)
    if p is not None and is_f_group(G):
        witness = _degree_witness(cg, lambda v, deg: deg % p == 0, show_degree=True)
        s.record("f_group_centralizer_degrees", witness, f"p={p}")
    else:
        s.skip("f_group_centralizer_degrees", "not an F-group p-group")

    witness = None if quotient_consistency(G) else "commuting-graph quotient differs"
    s.record("quotient_consistency", witness)
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
    results: list[PropertyResult] = []
    for name in names:
        rng = random.Random(seed)
        results.extend(_SUITE_FUNCS[name](G, rng, samples))
    return results
