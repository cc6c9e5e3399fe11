"""The centralizer lattice, its duality, and the element-center poset."""

from __future__ import annotations

import weakref
from typing import Optional, Union

from .centralizers import centralizer_mask, class_transversal, u_star, z_star_partition
from .groups import Group, InvariantViolation, per_group, subgroup_generated_by, subgroup_label
from .sets import ElemSet, Subgroup, ids_from_mask

NodeLike = Union[int, Subgroup, ElemSet]


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sorted_masks(order: int, masks) -> list[int]:
    """Masks by size, then by ascending member list.  Of two masks of one size,
    the one holding their lowest differing id comes first, so the member lists
    compare as the complements' bit strings read from bit 0 up: little-endian
    bytes with the bits of each byte reversed."""
    full = (1 << order) - 1
    width = (order + 7) // 8
    return sorted(masks, key=lambda m: (m.bit_count(), (full ^ m).to_bytes(width, "little").translate(_BIT_REVERSED)))


class _NodeOrder:
    """Distinct subgroups of one group, ordered by containment.

    Nodes are sorted by size then lexicographic member list, so node indices
    (and everything derived from them) are stable across runs.  Every node is
    a centralizer, hence a union of Z*-classes.
    """

    _kind: str  # "lattice" or "poset", for "is not a ... node" errors

    def __init__(self, group: Group, masks):
        self._group = weakref.ref(group)  # the group holds this (per_group): no cycle
        self._group_name = group.name  # for repr, which must work after the group is freed
        masks = _sorted_masks(group.order, set(masks))
        self.nodes: tuple[Subgroup, ...] = tuple(Subgroup(group.order, m) for m in masks)
        self._index = {m: i for i, m in enumerate(masks)}
        self._derived: dict = {}  # per_group; a cached_property would slow attribute reads

    @property
    def group(self) -> Group:
        if (group := self._group()) is None:
            raise ReferenceError(f"the group of this {self._kind} has been freed")
        return group

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def index_of(self, node: NodeLike) -> int:
        if isinstance(node, int):
            if not 0 <= node < len(self.nodes):
                raise ValueError(f"node index {node} out of range")
            return node
        idx = self._index.get(node.mask)
        if idx is None:
            raise ValueError(f"{node!r} is not a {self._kind} node")
        return idx

    @property
    @per_group
    def labels(self) -> tuple[str, ...]:
        return tuple(subgroup_label(self.group, node) for node in self.nodes)

    @property
    @per_group
    def above(self) -> tuple[int, ...]:
        """Strict up-sets: bit j of ``above[i]`` is set iff node i lies
        properly inside node j.

        A union of Z*-classes contains node i iff it contains the class
        representatives in node i, so ``above[i]`` ANDs together, per such
        representative, the mask of the nodes that hold it.
        """
        reps = class_transversal(self.group).mask
        node_reps = [ids_from_mask(node.mask & reps) for node in self.nodes]
        holders: dict[int, int] = {}
        for i, rs in enumerate(node_reps):
            bit = 1 << i
            for r in rs:
                holders[r] = holders.get(r, 0) | bit
        everything = (1 << len(self.nodes)) - 1
        above = []
        for i, rs in enumerate(node_reps):
            up = everything
            for r in rs:
                up &= holders[r]
            above.append(up ^ (1 << i))
        return tuple(above)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self._group_name}: {len(self.nodes)} nodes>"


class CentLattice(_NodeOrder):
    """All distinct centralizers of a group, ordered by containment.

    ``dual`` maps a node index to the index of its centralizer; it is an
    order-reversing involution.
    """

    _kind = "lattice"

    def __init__(self, group: Group, masks: list[int]):
        super().__init__(group, masks)
        dual = []
        for node in self.nodes:
            dm = centralizer_mask(group, node.mask)
            if dm not in self._index:
                raise InvariantViolation("dual of a lattice node is not a node")
            dual.append(self._index[dm])
        self.dual = tuple(dual)
        self.top = self._index[group.full_mask]
        self.bottom = self._index[group.center.mask]

    def meet(self, H: NodeLike, K: NodeLike) -> Subgroup:
        """H ∧ K = H ∩ K."""
        i, j = self.index_of(H), self.index_of(K)
        m = self.nodes[i].mask & self.nodes[j].mask
        if m not in self._index:
            raise InvariantViolation("meet of lattice nodes is not a node")
        return self.nodes[self._index[m]]

    def join(self, H: NodeLike, K: NodeLike) -> Subgroup:
        """H ∨ K: the centralizer of C_G(H) ∩ C_G(K)."""
        i, j = self.index_of(H), self.index_of(K)
        k = self._index.get(self.nodes[self.dual[i]].mask & self.nodes[self.dual[j]].mask)
        if k is None:
            raise InvariantViolation("join of lattice nodes is not a node")
        return self.nodes[self.dual[k]]

    @property
    @per_group
    def ustar(self) -> tuple[ElemSet, ...]:
        """U*_H of every node H over the default transversal; see ``u_star``."""
        X = class_transversal(self.group)
        return tuple(u_star(self.group, node, X) for node in self.nodes)


@per_group
def build_lattice(G: Group) -> CentLattice:
    """Every intersection of distinct element centralizers, G being the empty one.

    By the intersection law every C_G(S) is the intersection of the C_G(s),
    s in S, so this yields every centralizer without touching the power set.
    Element centralizers join one at a time, smallest first: after each, the
    set holds every intersection of those added so far.  The order changes
    only the cost, which the sum of the set sizes bounds.
    """
    masks = {G.full_mask}
    for g in sorted(set(G.cent_masks) - masks, key=int.bit_count):
        masks |= {m & g for m in masks}
    return CentLattice(G, list(masks))


class CenterPoset(_NodeOrder):
    """The element centers Z(g) together with Z(G), ordered by containment.

    ``class_sizes[i]`` is |Z*(g)| for the class whose element center is
    ``nodes[i]``; Z(G) carries the central class of size |Z(G)|.
    """

    _kind = "poset"

    def __init__(self, group: Group, masks: list[int], class_sizes: dict[int, int]):
        super().__init__(group, masks)
        self.class_sizes = tuple(class_sizes[node.mask] for node in self.nodes)
        self.min_index = self._index[group.center.mask]


@per_group
def center_poset(G: Group) -> CenterPoset:
    """Build the poset of element centers (one per Z*-class) plus Z(G)."""
    sizes: dict[int, int] = {}
    masks: list[int] = []
    for c in z_star_partition(G):
        m = c.ecenter.mask
        if m in sizes:
            raise InvariantViolation("two Z*-classes share an element center")
        sizes[m] = len(c.members)
        masks.append(m)
    if G.center.mask not in sizes:
        raise InvariantViolation("center missing from the element-center poset")
    return CenterPoset(G, masks, sizes)


@per_group
def is_f_group(G: Group) -> bool:
    """True iff the proper element centralizers form an antichain, that is,
    ``f_group_chain_witness`` finds no chain.

    Checked again, dually, on the element centers; the two views must agree.
    """
    centers = [c.ecenter.mask for c in z_star_partition(G) if c.cent.mask != G.full_mask]
    by_cents = f_group_chain_witness(G) is None
    by_centers = not any(a != b and a & ~b == 0 for a in centers for b in centers)
    if by_cents != by_centers:
        raise InvariantViolation("centralizer and element-center antichain checks disagree")
    return by_cents


@per_group
def f_group_chain_witness(G: Group) -> Optional[tuple[int, int]]:
    """Representatives (x, y) with C_G(x) properly inside C_G(y), if any;
    the first such pair in class order, found once per group."""
    classes = [c for c in z_star_partition(G) if c.cent.mask != G.full_mask]
    for a in classes:
        for b in classes:
            if a.cent.mask != b.cent.mask and a.cent.mask & ~b.cent.mask == 0:
                return (a.representative, b.representative)
    return None


@per_group
def hasse_edges(poset: _NodeOrder) -> tuple[tuple[int, int], ...]:
    """Covering pairs (i, j) of a CentLattice or CenterPoset: node i is covered
    by node j.  Ordered by (i, j) under the object's node ordering; computed
    once per lattice or poset from the strict up-sets ``above``: j covers i iff
    j is above i and above no node that is itself above i."""
    above = poset.above
    edges = []
    for i, up in enumerate(above):
        if up:
            higher = 0
            for k in ids_from_mask(up):
                higher |= above[k]
            edges += [(i, j) for j in ids_from_mask(up & ~higher)]
    return tuple(edges)


SUBGROUP_ENUMERATION_LIMIT = 64


def all_subgroups(G: Group) -> tuple[Subgroup, ...]:
    """Every subgroup of a small group, by closing under one-element extensions.

    Used for diagram renderings and exhaustive oracles only; guarded by
    ``SUBGROUP_ENUMERATION_LIMIT`` because subgroup counts explode.
    """
    if G.order > SUBGROUP_ENUMERATION_LIMIT:
        raise ValueError(f"subgroup enumeration is limited to order <= {SUBGROUP_ENUMERATION_LIMIT}")
    trivial = subgroup_generated_by(G, ())
    seen = {trivial.mask}
    worklist = [trivial]
    while worklist:
        H = worklist.pop()
        hm = H.mask
        for g in range(G.order):
            if (hm >> g) & 1:
                continue
            ext = subgroup_generated_by(G, H.members + (g,))
            if ext.mask not in seen:
                seen.add(ext.mask)
                worklist.append(ext)
    masks = _sorted_masks(G.order, seen)
    return tuple(Subgroup(G.order, m) for m in masks)
