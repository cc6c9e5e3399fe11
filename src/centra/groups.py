"""Finite groups as immutable multiplication tables over 0-based element ids.

Element id 0 is always the identity.  Tables are validated exactly on
construction: identity, two-sided inverses and associativity, the last by
Light's test on a generating set of at most log2(order) elements; a table
that passes is a group, hence a latin square.

The constructors build their tables with numpy array operations, never one
Python step per table entry.  Permutation groups (``symmetric`` and
``group_from_generators``) compose image arrays and rank each product by its
images on a few base points; the other families broadcast their formulas.
Those two work in blocks of at most ``BLOCK_ENTRIES`` products.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

import numpy as np

from .perm import Permutation, cycle_strings, parse_cycle_notation
from .sets import ElemSet, Subgroup

DEFAULT_MAX_ORDER = 10**6
MAX_ORDER_ENV = "CENTRA_MAX_ORDER"
BLOCK_ENTRIES = 1 << 16  # products per block in validation, generator closure and _perm_table

BUILTIN_FAMILIES = ("cyclic", "dihedral", "quaternion8", "symmetric", "heisenberg")

SetLike = Union[ElemSet, Iterable[int]]
T = TypeVar("T")


class GroupTableError(ValueError):
    """A table failed one of the group laws; ``law`` names the first failure."""

    def __init__(self, law: str, message: str):
        super().__init__(f"{law}: {message}")
        self.law = law


class OrderBoundError(ValueError):
    """A construction would exceed the configured group-order bound."""


class InvariantViolation(RuntimeError):
    """A theorem-backed invariant failed; indicates a bug, never user error."""


def max_order_bound(explicit: Optional[int] = None) -> int:
    """Order bound for constructions: explicit arg, else CENTRA_MAX_ORDER, else default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_ORDER_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_MAX_ORDER


def _validate_table(table: np.ndarray, name: str) -> np.ndarray:
    """Check the group laws on ``table`` and return its inverse map.

    Identity and two-sided inverses are read off the table directly.
    Associativity is checked exactly by Light's test (Clifford & Preston,
    *The Algebraic Theory of Semigroups*, vol. 1, 1961): for an element a,
    (x*a)*y = x*(a*y) for every x and y.  It is tested on each generator a,
    the least element not yet reached, before ``_adjoin`` adjoins a to the
    subgroup R reached so far, in row blocks of ``BLOCK_ENTRIES`` products.

    The elements that pass form a submagma (Light's lemma), so with an
    identity and inverses R is a group.  A passing generator g outside R at
    least doubles R, since r*g in R would give g = r^-1*(r*g) in R; so at
    most log2(n) generators are tested, and even a malformed table costs
    O(n^2 log n), never O(n^3).  A table passing all three laws is a group,
    hence a latin square: the latin checks run only after a failure, to
    name the law in the order latin, inverse, associativity.
    """
    n = table.shape[0]
    if table.ndim != 2 or table.shape != (n, n):
        raise GroupTableError("shape", f"table of {name} is not square")
    if n == 0:
        raise GroupTableError("shape", "empty table")
    if table.min() < 0 or table.max() >= n:
        raise GroupTableError("range", f"entries of {name} outside 0..{n - 1}")
    ids = np.arange(n, dtype=table.dtype)
    if not (np.array_equal(table[0], ids) and np.array_equal(table[:, 0], ids)):
        raise GroupTableError("identity", "element 0 is not a two-sided identity")
    inv = np.argmax(table == 0, axis=1)
    if not (table[inv, ids] == 0).all():
        _check_latin(table, ids)
        raise GroupTableError("inverse", "left and right inverses disagree")
    item = table.item
    elements, reached, gens = [0], bytearray(n), []
    reached[0] = 1
    step = max(1, BLOCK_ENTRIES // n)
    a = 0
    while len(elements) < n:
        a = reached.index(0, a)
        for lo in range(0, n, step):
            block = table[lo : lo + step]
            bad = table[block[:, a]] != np.take(block, table[a], axis=1)
            if bad.any():
                _check_latin(table, ids)
                x, y = np.argwhere(bad)[0]
                raise GroupTableError(
                    "associativity", f"({lo + x}*{a})*{y} != {lo + x}*({a}*{y})"
                )
        _adjoin(item, elements, reached, gens, a)
    return inv.astype(np.int32)


def _check_latin(table: np.ndarray, ids: np.ndarray) -> None:
    if not (np.sort(table, axis=1) == ids).all():
        raise GroupTableError("latin", "some row is not a permutation of the element ids")
    if not (np.sort(table, axis=0) == ids[:, None]).all():
        raise GroupTableError("latin", "some column is not a permutation of the element ids")


def _bool_row_mask(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


class Group:
    """Finite group on elements 0..order-1 with multiplication table lookups."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "G",
    ):
        arr = np.asarray(table, dtype=np.int32)
        self.inv_table = _validate_table(arr, name)
        arr.setflags(write=False)
        self.inv_table.setflags(write=False)
        self.table = arr
        self.order = int(arr.shape[0])
        self.identity = 0
        self.name = name
        if labels is None:
            labels = ["1"] + [f"g{i}" for i in range(1, self.order)]
        labels = [str(s) for s in labels]
        if len(labels) != self.order:
            raise ValueError(f"expected {self.order} labels, got {len(labels)}")
        if len(set(labels)) != self.order:
            raise ValueError("element labels are not unique")
        self.labels = tuple(labels)
        self._derived: dict = {}  # filled by per_group

    # -- basic queries ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

    def label(self, g: int) -> str:
        return self.labels[g]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = int(self.table[x, g])
            k += 1
        return k

    def elem_set(self, ids: SetLike) -> ElemSet:
        if isinstance(ids, ElemSet):
            if ids.universe_order != self.order:
                raise ValueError("set belongs to a different group")
            return ids
        return ElemSet.from_ids(self.order, ids)

    def set_ids(self, ids: SetLike) -> tuple[int, ...]:
        return self.elem_set(ids).members

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def cent_masks(self) -> tuple[int, ...]:
        """Per-element centralizer bitmasks, computed once per group."""
        comm = self.table == self.table.T
        return tuple(_bool_row_mask(comm[g]) for g in range(self.order))

    @cached_property
    def center(self) -> Subgroup:
        mask = self.full_mask
        for cm in self.cent_masks:
            mask &= cm
        return Subgroup(self.order, mask)

    @cached_property
    def is_abelian(self) -> bool:
        return self.center.mask == self.full_mask

    def __repr__(self) -> str:
        return f"<Group {self.name} of order {self.order}>"


def per_group(fn: Callable[[Group], T]) -> Callable[[Group], T]:
    """Build the derived structure ``fn(G)`` once per group: the result is
    stored on ``G`` and every call, threads racing on the first included,
    returns that one stored object.  A lattice or poset memoises likewise."""

    @wraps(fn)
    def memoised(G: Group) -> T:
        derived = G._derived
        if fn in derived:
            return derived[fn]
        return derived.setdefault(fn, fn(G))

    return memoised


@per_group
def element_orders(G: Group) -> tuple[int, ...]:
    """Order of every element, by one power iteration over the table: each
    step multiplies only the powers not yet at the identity."""
    order = np.ones(G.order, dtype=np.intp)
    ids = np.arange(1, G.order)
    power = ids
    k = 1
    while ids.size:
        k += 1
        power = G.table[power, ids]
        done = power == 0
        order[ids[done]] = k
        ids, power = ids[~done], power[~done]
    return tuple(order.tolist())


# -- subgroup machinery ----------------------------------------------------


def _adjoin(item: Callable[[int, int], int], elements: list[int], reached: bytearray, gens: list[int], g: int) -> None:
    """One step of Dimino's coset enumeration: grow the subgroup H listed in
    ``elements`` and marked in ``reached``, generated by ``gens``, to <H, g>
    for an element ``g`` not yet reached.

    <H, g> is the union of the right cosets H*r, for r = g and every r reached
    from g by right multiplication with the generators, g included.  A coset
    is listed as soon as its representative is found, so every element
    outside the listed cosets starts a new, disjoint one: each new element
    costs one product, and only the products r*s of representatives are
    tested for membership.
    """
    H = elements[:]
    gens.append(g)
    reps = [0]  # H*1 = H; its products 1*s reach g first
    for r in reps:  # grows while it is walked
        for s in gens:
            y = item(r, s)
            if not reached[y]:
                for h in H:  # the coset H*y
                    x = item(h, y)
                    reached[x] = 1
                    elements.append(x)
                reps.append(y)


def subgroup_generated_by(G: Group, S: SetLike) -> Subgroup:
    """Smallest subgroup containing ``S``; the empty set generates {identity}.

    Dimino's algorithm (Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991, ch. 6): the members of ``S`` are adjoined one at a time
    by ``_adjoin``, skipping those already reached, and the bitmask is built
    once from the membership array at the end.
    """
    item = G.table.item
    elements, reached, gens = [0], bytearray(G.order), []
    reached[0] = 1
    for s in G.set_ids(S):
        if not reached[s]:
            _adjoin(item, elements, reached, gens, s)
    digits = reached[::-1].translate(bytes.maketrans(b"\0\1", b"01"))  # highest id first
    return Subgroup(G.order, int(digits, 2))


def is_subgroup(G: Group, S: SetLike) -> bool:
    """Independent check of the subgroup invariant (identity, closure, inverses)."""
    ids = np.array(G.set_ids(S), dtype=np.intp)
    member = np.zeros(G.order, dtype=bool)
    member[ids] = True
    if not member[0] or not member[G.inv_table[ids]].all():
        return False
    k = max(1, (1 << 16) // len(ids))  # rows per gather: at most 2^16 products at once
    return all(member[G.table[ids[i : i + k, None], ids]].all() for i in range(0, len(ids), k))


def _cyclic_mask(G: Group, g: int) -> int:
    item = G.table.item
    mask = 1
    x = g
    while x != 0:
        mask |= 1 << x
        x = item(x, g)
    return mask


@per_group
def _subgroup_labels(G: Group) -> dict[int, str]:
    """``subgroup_label``'s results on G by mask, filled as they are asked for."""
    return {}


def subgroup_label(G: Group, H: SetLike) -> str:
    """Display label for a subgroup: the group name for G itself, ``1`` for the
    trivial subgroup, else ``<gens>`` from a deterministic generating set.

    A cyclic subgroup of order at most 729 is labelled by its least
    generator.  Otherwise the generators are chosen greedily: each is the
    least member of H not yet reached, adjoined to one growing closure
    (``_adjoin``) until all of H is reached.

    A label depends on H's mask only, so it is memoised per group by mask:
    a lattice, a poset and a graph labelling one subgroup work it out once.
    A call that raises stores nothing.
    """
    H = G.elem_set(H)
    known = _subgroup_labels(G)
    label = known.get(H.mask)
    if label is None:
        label = known.setdefault(H.mask, _label_subgroup(G, H))
    return label


def _label_subgroup(G: Group, H: ElemSet) -> str:
    if H.mask == G.full_mask:
        return G.name
    members = H.members
    nontrivial = [m for m in members if m != 0]
    if not nontrivial:
        return G.label(0)
    size = len(members)
    if size <= 729:
        orders = element_orders(G)
        for m in nontrivial:
            if orders[m] == size and _cyclic_mask(G, m) == H.mask:
                return f"<{G.label(m)}>"
    item = G.table.item
    inside = bytearray(G.order)
    for m in members:
        inside[m] = 1
    elements, reached, gens = [0], bytearray(G.order), []
    reached[0] = 1
    unreached = (m for m in members if not reached[m])
    checked = 0  # elements[:checked] lie in H
    while True:
        if not all(map(inside.__getitem__, elements[checked:])):
            raise InvariantViolation("generator fell outside the subgroup")
        checked = len(elements)
        if checked == size:
            return "<" + ",".join(G.label(g) for g in gens) + ">"
        _adjoin(item, elements, reached, gens, next(unreached))


# -- constructors ------------------------------------------------------------


def group_from_generators(
    gens: Sequence[Permutation],
    *,
    degree: Optional[int] = None,
    name: str = "G",
    max_order: Optional[int] = None,
) -> Group:
    """Closure of permutation generators under composition, numbered in BFS order.

    Element 0 is the identity; labels are cycle-notation strings, so the
    numbering and labels are deterministic given the generator order.
    """
    bound = max_order_bound(max_order)
    gens = list(gens)
    if gens:
        deg = gens[0].degree
        for p in gens:
            if p.degree != deg:
                raise ValueError(f"degree mismatch: {p.degree} vs {deg}")
        if degree is not None and degree != deg:
            raise ValueError(f"degree mismatch: generators have degree {deg}, got {degree}")
    else:
        if degree is None:
            raise ValueError("degree is required when no generators are given")
        deg = max(degree, 0)  # the identity's images range(degree) are empty below 0
    found = [tuple(range(deg))]  # images of the elements, in BFS order
    index = {found[0]: 0}
    gen_images = np.array([g.images for g in gens], dtype=np.intp).reshape(len(gens), deg)
    step = max(1, BLOCK_ENTRIES // max(1, len(gens) * deg))
    i = 0
    while i < len(found):
        # Products e*g of a block of found elements, e in id order then g in
        # generator order: the order a one-at-a-time BFS would meet them.
        block = np.array(found[i : i + step], dtype=np.intp)
        i += len(block)
        products = block[:, gen_images].reshape(len(block) * len(gens), deg)
        for f in map(tuple, products.tolist()):
            if f not in index:
                if len(found) >= bound:
                    raise OrderBoundError(
                        f"generated group exceeds the order bound {bound}"
                    )
                index[f] = len(found)
                found.append(f)
    images = np.array(found, dtype=np.intp).reshape(len(found), deg)
    labels = cycle_strings(found, deg)
    return Group(_perm_table(images), labels, name)


def _perm_table(images: np.ndarray) -> np.ndarray:
    """Multiplication table of the distinct permutations ``images`` (one row
    of images per element, closed under composition): entry [a, h] is the id
    of a*h, whose images are ``images[a][images[h]]`` (h applies first).

    Base points are taken in point order, each only if it splits the
    elements further (so never a point that no element moves), until the
    images on them tell every element apart.  A permutation is then ranked
    point by point: its rank so far and its image of the next base point
    index a lookup array of (ranks so far) x degree entries, so no key
    exceeds order x degree.  A product missing
    from a lookup is not an element and raises ``InvariantViolation``.
    """
    n, deg = images.shape
    rank = np.zeros(n, dtype=np.intp)
    count = 1  # distinct ranks so far
    levels = []  # (base point, lookup: rank * deg + image -> next rank or -1)
    for x in np.flatnonzero((images != images[0]).any(axis=0)):  # points that move
        if count == n:
            break
        pairs, next_rank = np.unique(rank * deg + images[:, x], return_inverse=True)
        if len(pairs) > count:
            lookup = np.full(count * deg, -1, dtype=np.intp)
            lookup[pairs] = np.arange(len(pairs))
            levels.append((x, lookup))
            rank, count = next_rank.reshape(n), len(pairs)
    if count != n:
        raise InvariantViolation("two elements have the same images")
    if levels:
        lookup = levels[-1][1]
        known = lookup >= 0
        lookup[known] = np.argsort(rank)[lookup[known]]  # final rank -> element id
    table = np.zeros((n, n), dtype=np.int32)
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        block = images[lo : lo + step]
        rank = 0
        for x, lookup in levels:
            key = block[:, images[:, x]]  # [a, h] -> image of x under a*h: a(h(x))
            key += rank * deg
            rank = lookup[key]
            if rank.min() < 0:
                raise InvariantViolation("a product of two elements is not an element")
        table[lo : lo + step] = rank
    return table


def group_from_generator_file(source: Union[str, Path], *, max_order: Optional[int] = None) -> Group:
    """Load a group from a generator file: ``perm <degree>`` then one cycle per line."""
    path = Path(source)
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("perm "):
        raise ValueError(f"{path}: first line must be 'perm <degree>'")
    try:
        deg = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: bad degree in header {lines[0]!r}") from exc
    if deg <= 0:
        raise ValueError(f"{path}: degree must be positive, got {deg}")
    gens = [parse_cycle_notation(ln, deg) for ln in lines[1:]]
    return group_from_generators(gens, degree=deg, name=path.stem, max_order=max_order)


def parse_cayley_table_text(text: str, name: str = "table") -> Group:
    """Parse the Cayley-table text format (order, rows, optional label lines)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the group order, got {lines[0]!r}") from exc
    if n <= 0:
        raise ValueError(f"group order must be positive, got {n}")
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1 : 1 + n]):
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"row {i}: non-integer entry") from exc
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        rows.append(row)
    labels: Optional[list[str]] = None
    for ln in lines[1 + n :]:
        parts = ln.split(maxsplit=2)
        if parts[0] != "label" or len(parts) != 3:
            raise ValueError(f"unexpected trailing line {ln!r}")
        if labels is None:
            labels = ["1"] + [f"g{i}" for i in range(1, n)]
        idx = int(parts[1])
        if not 0 <= idx < n:
            raise ValueError(f"label id {idx} out of range")
        labels[idx] = parts[2]
    return Group(rows, labels, name)


def group_from_cayley_table(source: Union[str, Path]) -> Group:
    """Load and fully validate a group from a Cayley-table file."""
    path = Path(source)
    return parse_cayley_table_text(path.read_text(), name=path.stem)


def cayley_table_text(G: Group, with_labels: bool = True) -> str:
    """Serialize a group in the Cayley-table file format (bit-exact reload)."""
    out = [str(G.order)]
    out.extend(" ".join(str(int(x)) for x in G.table[g]) for g in range(G.order))
    if with_labels:
        out.extend(f"label {g} {G.labels[g]}" for g in range(G.order))
    return "\n".join(out) + "\n"


def direct_product(G: Group, H: Group, *, max_order: Optional[int] = None) -> Group:
    """Componentwise product; (g, h) gets element id g*|H| + h."""
    bound = max_order_bound(max_order)
    n, m = G.order, H.order
    if n * m > bound:
        raise OrderBoundError(f"product order {n * m} exceeds the order bound {bound}")
    # int32 throughout: entries are below n * m, far below 2^31 for any table that fits in memory
    table = G.table[:, None, :, None] * np.int32(m) + H.table[None, :, None, :]
    labels = [f"({gl},{hl})" for gl in G.labels for hl in H.labels]
    return Group(table.reshape(n * m, n * m), labels, f"{G.name}x{H.name}")


def _cyclic_group(n: int) -> Group:
    ids = np.arange(n, dtype=np.int32)
    table = (ids[:, None] + ids[None, :]) % n
    labels = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return Group(table, labels, f"C{n}")


def _dihedral_group(order: int) -> Group:
    if order < 2 or order % 2:
        raise ValueError(f"dihedral group order must be even and >= 2, got {order}")
    n = order // 2
    # ids: a^i -> i, a^i b -> n + i; a^i * a^j b = a^(i+j) b, a^i b * a^j = a^(i-j) b
    i = np.arange(n, dtype=np.int32)
    add, sub = (i[:, None] + i) % n, (i[:, None] - i) % n
    table = np.block([[add, n + add], [n + sub, sub]])
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["ab" if i == 1 else f"a^{i}b" for i in range(1, n)]
    return Group(table, rot + ref, f"D{order}")


def _quaternion_group() -> Group:
    # ids: 2 * axis + (1 if negative), axes 1, i, j, k = 0..3.  The axis of a
    # product is the XOR of the axes; its sign flips when the axes' product
    # is negative (i*i = -1, i*k = -j, j*i = -k, ...).
    negative = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    axis, sign = np.divmod(np.arange(8), 2)
    a, b = axis[:, None], axis[None, :]
    table = 2 * (a ^ b) + (sign[:, None] ^ sign[None, :] ^ negative[a, b])
    labels = [s + ax for ax in ("1", "i", "j", "k") for s in ("", "-")]
    return Group(table, labels, "Q8")


def _symmetric_group(n: int, max_order: Optional[int] = None) -> Group:
    if n < 1:
        raise ValueError(f"symmetric group degree must be >= 1, got {n}")
    bound = max_order_bound(max_order)
    order = 1
    for k in range(2, n + 1):
        order *= k
    if order > bound:
        raise OrderBoundError(f"S{n} order {order} exceeds the order bound {bound}")
    perms = list(itertools.permutations(range(n)))  # element ids in this order
    labels = ["1"] + cycle_strings(perms[1:], n)
    return Group(_perm_table(np.array(perms, dtype=np.intp)), labels, f"S{n}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _heisenberg_group(p: int) -> Group:
    """Upper unitriangular 3x3 matrices over Z/p: order p^3, center of order p."""
    if not _is_prime(p):
        raise ValueError(f"heisenberg parameter must be prime, got {p}")
    n = p**3

    # (a, b, c) has id (a*p + b)*p + c; columns of a, b, c against rows of a.T, b.T, c.T
    a, b, c = np.indices((p, p, p), dtype=np.int32).reshape(3, n, 1)
    table = (((a + a.T) % p) * p + (b + b.T) % p) * p + (c + c.T + a * b.T) % p
    labels = [
        f"({a},{b},{c})" if (a, b, c) != (0, 0, 0) else "1"
        for a in range(p)
        for b in range(p)
        for c in range(p)
    ]
    return Group(table, labels, f"H{p}")


def _check_bound(order: int, what: str, max_order: Optional[int]) -> None:
    bound = max_order_bound(max_order)
    if order > bound:
        raise OrderBoundError(f"{what} order {order} exceeds the order bound {bound}")


def builtin_group(family: str, param: Optional[int] = None, *, max_order: Optional[int] = None) -> Group:
    """Construct a standard group: cyclic n, dihedral 2n, quaternion8, symmetric n, heisenberg p."""
    fam = family.strip().lower()
    if fam == "cyclic":
        if param is None or param < 1:
            raise ValueError("cyclic requires a positive order")
        _check_bound(param, "cyclic group", max_order)
        return _cyclic_group(param)
    if fam == "dihedral":
        if param is None:
            raise ValueError("dihedral requires the group order (2n)")
        _check_bound(param, "dihedral group", max_order)
        return _dihedral_group(param)
    if fam == "quaternion8":
        if param not in (None, 8):
            raise ValueError("quaternion8 takes no parameter (or 8)")
        return _quaternion_group()
    if fam == "symmetric":
        if param is None:
            raise ValueError("symmetric requires the degree")
        return _symmetric_group(param, max_order)
    if fam == "heisenberg":
        if param is None:
            raise ValueError("heisenberg requires a prime")
        if _is_prime(param):
            _check_bound(param**3, "heisenberg group", max_order)
        return _heisenberg_group(param)
    raise ValueError(f"unknown builtin family {family!r} (expected one of {BUILTIN_FAMILIES})")
