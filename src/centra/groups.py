"""Finite groups as immutable multiplication tables over 0-based element ids.

Element id 0 is always the identity.  Tables are validated exactly on
construction: identity, two-sided inverses and associativity, the last by
Light's test on a generating set of at most log2(order) elements, first the
generators a constructor built the table from, then the least element not
yet reached (the only pick for ``Group(table)`` and table files); a table
that passes is a group, hence a latin square.

Every table, and the inverse map, is stored as ``uint16`` for orders up to
65 536 and as ``uint32`` above that (``_table_dtype``).  Constructors build
their tables in that dtype; ``Group`` narrows any other table once, after
checking its range in the table's own dtype.  Each constructor checks that
its table fits in the byte budget ``CENTRA_TABLE_BYTES`` (``_order_limit``)
before it allocates the table or does work that grows with its parameter.

No stage makes an n x n temporary.  The dihedral, quaternion, symmetric,
Heisenberg and generator constructors give the rows of a few generators to
``_walk_table``, which fills every other row of a ``_new_table`` by one
n-entry gather, row(e*g) = row(e)[row(g)].  The cyclic formula and
validation fill or read a table in row blocks of at most ``BLOCK_ENTRIES``
entries (``_row_blocks``).  The two whole-table commute scans,
``Group.cent_masks`` and the graphs suite's degree oracle, compare square
tiles of as many entries with their transposes (``_tiles``), so both read
the table a cache-sized tile at a time.  A direct product fills its table
in one numpy pass, the Cayley parser row by row.  From order 2000 up,
construction peaks at 1.01-1.08x the table.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

from .perm import Permutation, _cycle_map, cycle_strings
from .sets import ElemSet, Subgroup

TABLE_BYTES_ENV = "CENTRA_TABLE_BYTES"
DEFAULT_TABLE_BYTES = 1 << 30
# table entries per row block (construction, validation, closure) and per
# square tile (the commute scans); read at call time, so tests can shrink it
BLOCK_ENTRIES = 1 << 16

BUILTIN_FAMILIES = ("cyclic", "dihedral", "quaternion8", "symmetric", "heisenberg")

SetLike = Union[ElemSet, Iterable[int]]
T = TypeVar("T")


class GroupTableError(ValueError):
    """A table failed one of the group laws; ``law`` names the first failure."""

    def __init__(self, law: str, message: str):
        super().__init__(f"{law}: {message}")
        self.law = law


class OrderBoundError(ValueError):
    """A group's table would not fit in the byte budget ``CENTRA_TABLE_BYTES``."""

    def __init__(self, name: str, order: object, limit: int):
        super().__init__(
            f"{name} order {order} exceeds {limit}, the largest order whose table fits in {TABLE_BYTES_ENV}"
        )


class InvariantViolation(RuntimeError):
    """A theorem-backed invariant failed; indicates a bug, never user error."""


def _table_dtype(order: int) -> np.dtype:
    """The dtype of every table of ``order`` elements: its entries run to order - 1."""
    return np.dtype(np.uint16 if order <= 1 << 16 else np.uint32)


def _table_budget() -> int:
    """The byte budget ``CENTRA_TABLE_BYTES``, which must be a positive integer."""
    raw = os.environ.get(TABLE_BYTES_ENV, str(DEFAULT_TABLE_BYTES))
    budget = int(raw) if raw.isdecimal() else 0
    if budget <= 0:
        raise ValueError(f"{TABLE_BYTES_ENV} must be a positive integer number of bytes, got {raw!r}")
    return budget


def _order_limit(name: str, order: int = 1) -> int:
    """The largest order whose table, in ``_table_dtype``, fits in the byte
    budget ``CENTRA_TABLE_BYTES``; raise ``OrderBoundError`` if the group
    ``name`` of ``order`` elements is above it.  O(1): no table is built."""
    budget = _table_budget()
    limit = math.isqrt(budget // 2)  # at uint16's two bytes an entry
    if _table_dtype(limit).itemsize > 2:  # past uint16: four bytes an entry, but every uint16 order fits
        limit = max(1 << 16, math.isqrt(budget // 4))
    if order > limit:
        raise OrderBoundError(name, order, limit)
    return limit


def _check_rows(name: str, count: int, points: int) -> None:
    """Refuse ``count`` permutation image rows of ``points`` entries, in
    ``_table_dtype(points)``, that do not fit in the byte budget."""
    size = count * points * _table_dtype(points).itemsize
    budget = _table_budget()
    if size > budget:
        raise ValueError(f"{name}: {count} permutation rows of {points} points take {size} bytes, "
                         f"more than the {budget} of {TABLE_BYTES_ENV}")


def _row_blocks(n: int) -> Iterator[slice]:
    """Row slices of an n-column table, each of at most ``BLOCK_ENTRIES`` entries or one row."""
    step = max(1, BLOCK_ENTRIES // n)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _tiles(n: int) -> Iterator[tuple[slice, slice]]:
    """(rows, cols) slices of the square tiles of an n x n table, each of at
    most ``BLOCK_ENTRIES`` entries or one entry, row band by row band and
    left to right within a band; the last band and column are ragged."""
    step = max(1, math.isqrt(BLOCK_ENTRIES))
    spans = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    return ((rows, cols) for rows in spans for cols in spans)


def _least_prime(n: int) -> int:
    """The least prime dividing n, by trial division; n itself if n is 1 or prime."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _new_table(name: str, n: int) -> np.ndarray:
    """An unfilled n x n table in ``_table_dtype``, once ``_order_limit`` admits it."""
    _order_limit(name, n)
    return np.empty((n, n), dtype=_table_dtype(n))


def _walk_table(name: str, n: int, gens: Sequence[tuple[int, Sequence[int]]]) -> np.ndarray:
    """The n x n table of the group ``name`` generated by ``gens``: pairs of a
    generator's id g and its row, h -> g*h.

    In the left regular representation (Cayley's theorem) (e*g)*h = e*(g*h),
    so row(e*g) = row(e)[row(g)]: one n-entry gather.  Row 0 is the identity;
    the walk then takes the reached elements e in order and, for each
    generator g, fills the row of e*g, read off row e, if it is not yet filled.
    A walk that does not reach all n elements raises ``InvariantViolation``.
    ``Group`` validates the table whatever the rows were.
    """
    table = _new_table(name, n)
    table[0] = np.arange(n, dtype=table.dtype)
    gens = [(g, np.asarray(row, dtype=np.intp)) for g, row in gens]
    item = table.item
    filled = bytearray(n)
    filled[0] = 1
    reached = [0]
    for e in reached:  # grows while it is walked
        for g, row in gens:
            x = item(e, g)
            if not filled[x]:
                np.take(table[e], row, out=table[x])
                filled[x] = 1
                reached.append(x)
    if len(reached) != n:
        raise InvariantViolation(f"the generators of {name} reach {len(reached)} of its {n} elements")
    return table


def _validate_table(
    table: np.ndarray, name: str, seeds: Iterable[int] = ()
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Check the group laws on ``table``; return it in ``_table_dtype`` with
    its inverse map and the generators Light's test ran on.

    The range is checked in the table's own dtype, before it is narrowed, so
    no entry wraps around; entries that are not integers are out of range.

    Identity and two-sided inverses are read off the table directly.
    Associativity is checked exactly by Light's test (Clifford & Preston,
    *The Algebraic Theory of Semigroups*, vol. 1, 1961): for an element a,
    (x*a)*y = x*(a*y) for every x and y.  It is tested on each generator a
    before ``_adjoin`` adjoins a to the subgroup R reached so far, in row
    blocks of ``BLOCK_ENTRIES`` products.  The generators are the ids in
    ``seeds`` not yet reached, in order (a constructor passes the elements it
    built the table from), then the least element not yet reached, until R
    is everything; ``Group(table)`` and table files pass no seeds.

    The elements that pass form a submagma (Light's lemma), so with an
    identity and inverses R is a group, whatever the seeds were.  A passing
    generator g outside R at least doubles R, since r*g in R would give
    g = r^-1*(r*g) in R; so at most log2(n) generators are tested, and even
    a malformed table costs O(n^2 log n), never O(n^3).  A table passing all
    three laws is a group, hence a latin square: the latin checks run only
    after a failure, to name the law in the order latin, inverse,
    associativity.
    """
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupTableError("shape", f"table of {name} is not square")
    n = table.shape[0]
    if n == 0:
        raise GroupTableError("shape", "empty table")
    kind = table.dtype.kind
    if kind not in "iu" or (kind == "i" and table.min() < 0) or table.max() >= n:
        raise GroupTableError("range", f"entries of {name} are not all integers in 0..{n - 1}")
    table = table.astype(_table_dtype(n), copy=False)
    ids = np.arange(n, dtype=table.dtype)
    if not (np.array_equal(table[0], ids) and np.array_equal(table[:, 0], ids)):
        raise GroupTableError("identity", "element 0 is not a two-sided identity")
    inv = np.empty(n, dtype=table.dtype)
    for rows in _row_blocks(n):
        inv[rows] = np.argmax(table[rows] == 0, axis=1)
    if not (table[inv, ids] == 0).all():
        _check_latin(table, ids)
        raise GroupTableError("inverse", "left and right inverses disagree")
    item = table.item
    elements, reached, gens = [0], bytearray(n), []
    reached[0] = 1
    seeds, least = iter(seeds), 0
    while len(elements) < n:
        a = next((s for s in seeds if not reached[s]), None)
        if a is None:
            a = least = reached.index(0, least)
        for rows in _row_blocks(n):
            block = table[rows]
            bad = table[block[:, a]] != np.take(block, table[a], axis=1)
            if bad.any():
                _check_latin(table, ids)
                x, y = np.argwhere(bad)[0] + (rows.start, 0)
                raise GroupTableError("associativity", f"({x}*{a})*{y} != {x}*({a}*{y})")
        _adjoin(item, elements, reached, gens, a)
    return table, inv, tuple(gens)


def _check_latin(table: np.ndarray, ids: np.ndarray) -> None:
    for rows in _row_blocks(len(ids)):
        if not (np.sort(table[rows], axis=1) == ids).all():
            raise GroupTableError("latin", "some row is not a permutation of the element ids")
    for cols in _row_blocks(len(ids)):
        if not (np.sort(table[:, cols], axis=0) == ids[:, None]).all():
            raise GroupTableError("latin", "some column is not a permutation of the element ids")


def _bool_row_mask(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


class Group:
    """Finite group on elements 0..order-1 with multiplication table lookups.

    A table already in ``_table_dtype`` (a ``uint16`` array up to order
    65 536) is adopted, not copied, and made read-only: the caller's array
    becomes ``G.table`` and can no longer be written.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "G",
        *,
        _seeds: Iterable[int] = (),
    ):
        # _seeds: the ids a constructor built the table from, Light's first
        # generators; _light_gens: every id Light's test ran on (direct_product's seeds)
        self.table, self.inv_table, self._light_gens = _validate_table(np.asarray(table), name, _seeds)
        self.table.setflags(write=False)
        self.inv_table.setflags(write=False)
        self.order = int(self.table.shape[0])
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

    def elem_set(self, ids: SetLike) -> ElemSet:
        if isinstance(ids, ElemSet):
            if ids.universe_order != self.order:
                raise ValueError("set belongs to a different group")
            return ids
        return ElemSet.from_ids(self.order, ids)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def cent_masks(self) -> tuple[int, ...]:
        """Per-element centralizer bitmasks, computed once per group from
        ``table == table.T`` in square tiles (``_tiles``): each tile t[R, C]
        is compared with the transposed tile t[C, R].T into one band of rows,
        which is packed into masks, and freed, once its last tile is in."""
        t, n = self.table, self.order
        masks: list[int] = []
        for rows, cols in _tiles(n):
            if cols.start == 0:
                band = np.empty((rows.stop - rows.start, n), dtype=bool)
            np.equal(t[rows, cols], t[cols, rows].T, out=band[:, cols])
            if cols.stop == n:
                masks.extend(int.from_bytes(row, "little") for row in np.packbits(band, axis=1, bitorder="little"))
                del band
        return tuple(masks)

    @cached_property
    def _zstar_buckets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The elements grouped by equal ``cent_masks`` value, that is, the
        Z*-classes, numbered by least member: (class index of each element,
        complement in G of each class's members)."""
        index: dict[int, int] = {}
        class_of = []
        members: list[int] = []
        for g, cm in enumerate(self.cent_masks):
            k = index.setdefault(cm, len(members))
            if k == len(members):
                members.append(0)
            members[k] |= 1 << g
            class_of.append(k)
        return tuple(class_of), tuple(self.full_mask ^ m for m in members)

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


def _adjoin(
    item: Callable[[int, int], int],
    elements: list[int],
    reached: bytearray,
    gens: list[int],
    g: int,
    limit: float = math.inf,
) -> None:
    """One step of Dimino's coset enumeration: grow the subgroup H listed in
    ``elements`` and marked in ``reached``, generated by ``gens``, to <H, g>
    for an element ``g`` not yet reached.

    <H, g> is the union of the right cosets H*r, for r = g and every r reached
    from g by right multiplication with the generators, g included.  A coset
    is listed as soon as its representative is found, so every element
    outside the listed cosets starts a new, disjoint one: each new element
    costs one product, and only the products r*s of representatives are
    tested for membership.  The enumeration stops part way as soon as more
    than ``limit`` elements are listed.
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
                if len(elements) > limit:
                    return


def _generate(G: Group, ids: Iterable[int]) -> tuple[int, list[int]]:
    """The subgroup generated by the element ids ``ids``: (its bitmask, the
    members of ``ids`` adjoined, in order).  ``subgroup_generated_by`` and
    ``subgroup_label`` both enumerate subgroups through it.

    Dimino's algorithm (Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991, ch. 6): the members of ``ids`` are adjoined one at a time
    by ``_adjoin``, skipping those already reached, and the bitmask is built
    once from the membership array at the end.

    By Lagrange's theorem a proper subgroup has at most n/q elements, q the
    least prime dividing the order n, so the enumeration returns G as soon
    as it has listed more.
    """
    item = G.table.item
    limit = G.order // _least_prime(G.order)
    elements, reached, gens = [0], bytearray(G.order), []
    reached[0] = 1
    for s in ids:
        if not reached[s]:
            _adjoin(item, elements, reached, gens, s, limit)
            if len(elements) > limit:
                return G.full_mask, gens
    digits = reached[::-1].translate(bytes.maketrans(b"\0\1", b"01"))  # highest id first
    return int(digits, 2), gens


def subgroup_generated_by(G: Group, S: SetLike) -> Subgroup:
    """Smallest subgroup containing ``S``, the mask of ``_generate`` on its
    members; the empty set generates {identity}."""
    return Subgroup(G.order, _generate(G, G.elem_set(S).members)[0])


def is_subgroup(G: Group, S: SetLike) -> bool:
    """Independent check of the subgroup invariant (identity, closure, inverses)."""
    ids = np.array(G.elem_set(S).members, dtype=np.intp)
    member = np.zeros(G.order, dtype=bool)
    member[ids] = True
    if not member[0] or not member[G.inv_table[ids]].all():
        return False
    return all(member[G.table[ids[rows, None], ids]].all() for rows in _row_blocks(len(ids)))


@per_group
def _subgroup_labels(G: Group) -> dict[int, str]:
    """``subgroup_label``'s results on G by mask, filled as they are asked for."""
    return {}


def subgroup_label(G: Group, H: SetLike) -> str:
    """Display label for a subgroup: the group name for G itself, ``1`` for the
    trivial subgroup, else ``<gens>`` from a deterministic generating set.

    A cyclic subgroup of order at most 729 is labelled by its least
    generator.  Otherwise the generators are those ``_generate`` adjoins
    from H's members in ascending order: each is the least member of H not
    yet reached.

    A label depends on H's mask only, so it is memoised per group by mask:
    a lattice, a poset and a graph labelling one subgroup work it out once.
    A call that raises stores nothing: ValueError on a set that is not a
    subgroup, which ``_node_label``, for lattice, poset and graph nodes, skips.
    """
    H = G.elem_set(H)
    try:
        if H.mask & 1:
            return _node_label(G, H)
    except InvariantViolation:
        if is_subgroup(G, H):
            raise
    raise ValueError("H is not a subgroup")


def _node_label(G: Group, H: ElemSet) -> str:
    known = _subgroup_labels(G)
    label = known.get(H.mask)
    if label is None:
        label = known.setdefault(H.mask, _label_subgroup(G, H))
    return label


def _label_subgroup(G: Group, H: ElemSet) -> str:
    if H.mask == G.full_mask:
        return G.name
    if H.mask == 1:
        return G.labels[0]
    members = H.members
    size = len(members)
    if size <= 729:
        orders = element_orders(G)
        for m in members:  # the identity's order, 1, is not size
            if orders[m] == size and _generate(G, (m,))[0] == H.mask:
                return f"<{G.labels[m]}>"
    mask, gens = _generate(G, members)
    if mask != H.mask:
        raise InvariantViolation("generator fell outside the subgroup")
    return "<" + ",".join(G.labels[g] for g in gens) + ">"


# -- constructors ------------------------------------------------------------


def group_from_generators(
    gens: Sequence[Permutation],
    *,
    degree: Optional[int] = None,
    name: str = "G",
) -> Group:
    """Closure of permutation generators under composition, numbered in BFS
    order by ``_permutation_group``.  Element 0 is the identity; labels are
    cycle-notation strings, so the numbering and labels are deterministic
    given the generator order."""
    gens = list(gens)
    deg = gens[0].degree if gens else degree
    if deg is None:
        raise ValueError("degree is required when no generators are given")
    for p in gens:
        if p.degree != deg:
            raise ValueError(f"degree mismatch: {p.degree} vs {deg}")
    if degree is not None and degree != deg:
        raise ValueError(f"degree mismatch: generators have degree {deg}, got {degree}")
    deg = max(deg, 0)  # the identity's images range(degree) are empty below 0
    images = np.array([p.images for p in gens], dtype=_table_dtype(deg)).reshape(len(gens), deg)
    return _permutation_group(name, images)


def _permutation_group(name: str, gens: np.ndarray) -> Group:
    """The group generated by ``gens``, k image rows in the ``_table_dtype``
    of their degree, numbered in breadth-first order (Butler, *Fundamental
    Algorithms for Permutation Groups*, 1991).

    Every element fixes the points no generator moves, so its image row keeps
    only the m others, renumbered in order.  Each element is keyed by the
    bytes of its row in one dict.  The closure meets the products e*s a block
    of found elements e at a time, e in id order, then s in generator order,
    as a one-at-a-time search would; after each block the stored rows must
    fit in the byte budget.  Generator g's row, h -> g*h, gathers g(h(x))
    over a block of elements h and looks each product up.  A block holds at
    most ``BLOCK_ENTRIES`` entries or one element's products.
    """
    limit = _order_limit(name)
    support = np.flatnonzero((gens != np.arange(gens.shape[1], dtype=gens.dtype)).any(axis=0))
    k, m = len(gens), len(support)
    gens = np.searchsorted(support, gens[:, support]).astype(_table_dtype(m))
    found = [np.arange(m, dtype=gens.dtype).tobytes()]  # image bytes, in BFS order
    index = {found[0]: 0}
    step = max(1, BLOCK_ENTRIES // max(1, k * m))

    def images(lo: int) -> np.ndarray:
        chunk = found[lo : lo + step]
        return np.frombuffer(b"".join(chunk), gens.dtype).reshape(len(chunk), m)

    lo = 0
    while lo < len(found):  # found grows while it is walked
        block = images(lo)
        lo += len(block)
        for f in map(bytes, block[:, gens].reshape(len(block) * k, m)):  # e*s: x -> e(s(x))
            if f not in index:
                if len(found) == limit:
                    raise OrderBoundError(name, f"at least {limit + 1}", limit)
                index[f] = len(found)
                found.append(f)
        _check_rows(name, len(found), m)
    rows: list[list[int]] = [[] for _ in gens]
    for lo in range(0, len(found), step):
        for row, products in zip(rows, gens[:, images(lo)]):  # g*h: x -> g(h(x))
            row.extend(map(index.__getitem__, map(bytes, products)))
    elements = (e for lo in range(0, len(found), step) for e in images(lo).tolist())
    labels = cycle_strings(elements, support.tolist())
    ids = [index[bytes(g)] for g in gens]
    return Group(_walk_table(name, len(found), list(zip(ids, rows))), labels, name, _seeds=ids)


def group_from_generator_file(source: Union[str, Path]) -> Group:
    """Load a group from a generator file: ``perm <degree>`` then one cycle
    per line.  The generators' image rows and the identity's must fit in the
    byte budget, which is checked before anything of the degree's size."""
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
    maps = [_cycle_map(ln, deg) for ln in lines[1:]]
    _check_rows(path.stem, len(maps) + 1, deg)
    gens = np.tile(np.arange(deg, dtype=_table_dtype(deg)), (len(maps), 1))
    for row, images in zip(gens, maps):
        row[list(images)] = list(images.values())
    return _permutation_group(path.stem, gens)


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
    table = _new_table(name, n)
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    for i, ln in enumerate(lines[1 : 1 + n]):
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"row {i}: non-integer entry") from exc
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:  # before the row is narrowed
            raise GroupTableError("range", f"entries of {name} are not all integers in 0..{n - 1}")
        table[i] = row
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
    return Group(table, labels, name)


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


def direct_product(G: Group, H: Group) -> Group:
    """Componentwise product; (g, h) gets element id g*|H| + h."""
    n, m = G.order, H.order
    name = f"{G.name}x{H.name}"
    _order_limit(name, n * m)
    # g*m + h < n*m, so it is computed in the product's own dtype
    offsets = np.arange(0, n * m, m, dtype=_table_dtype(n * m))  # g -> g*m
    table = offsets[G.table][:, None, :, None] + H.table[None, :, None, :]
    labels = [f"({gl},{hl})" for gl in G.labels for hl in H.labels]
    seeds = [g * m for g in G._light_gens] + list(H._light_gens)  # (g, 1) and (1, h)
    return Group(table.reshape(n * m, n * m), labels, name, _seeds=seeds)


def _cyclic_group(n: int) -> Group:
    # a formula, not _walk_table: it filled C20000 faster than the walk in 5 of 6 pairs (2 vCPU)
    table = _new_table(f"C{n}", n)
    ids = np.arange(n, dtype=_table_dtype(2 * n - 1))  # i + j < 2n - 1
    for rows in _row_blocks(n):
        x = ids[rows, None] + ids
        table[rows] = np.subtract(x, n, out=x, where=x >= n)  # (i + j) % n, as i + j < 2n
    labels = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return Group(table, labels, f"C{n}", _seeds=(1,) if n > 1 else ())


def _dihedral_group(order: int) -> Group:
    if order < 2 or order % 2:
        raise ValueError(f"dihedral group order must be even and >= 2, got {order}")
    n = order // 2
    _order_limit(f"D{order}", order)  # before the rows, which grow with the order
    # ids: a^i -> i, a^i b -> n + i.  a * a^j (b) = a^(j+1) (b); b * a^j (b) = a^-j b (a^-j).
    j = np.arange(n, dtype=np.intp)
    up, down = (j + 1) % n, -j % n
    gens = [(1 % n, np.concatenate([up, n + up])), (n, np.concatenate([n + down, down]))]
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["ab" if i == 1 else f"a^{i}b" for i in range(1, n)]
    return Group(_walk_table(f"D{order}", order, gens), rot + ref, f"D{order}", _seeds=[g for g, _ in gens])


def _quaternion_group() -> Group:
    # ids: 2 * axis + (1 if negative), axes 1, i, j, k = 0..3; the rows of i and
    # j list i*h and j*h for h = 1, -1, i, -i, j, -j, k, -k
    gens = [(2, [2, 3, 1, 0, 6, 7, 5, 4]), (4, [4, 5, 7, 6, 1, 0, 2, 3])]
    labels = [s + ax for ax in ("1", "i", "j", "k") for s in ("", "-")]
    return Group(_walk_table("Q8", 8, gens), labels, "Q8", _seeds=[g for g, _ in gens])


def _symmetric_group(n: int) -> Group:
    if n < 1:
        raise ValueError(f"symmetric group degree must be >= 1, got {n}")
    limit = _order_limit(f"S{n}")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > limit:  # stop before n! grows any further
            raise OrderBoundError(f"S{n}", order if k == n else f"{n}!", limit)
    perms = list(itertools.permutations(range(n)))  # element ids in this order
    index = {p: i for i, p in enumerate(perms)}
    images = np.array(perms, dtype=np.intp)
    # (0 1) and the n-cycle; a row's entry h is the id of g*h, whose images are g(h(x))
    generators = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    gens = [(index[g], [index[p] for p in map(tuple, np.take(g, images).tolist())]) for g in generators]
    labels = ["1"] + cycle_strings(perms[1:], range(n))
    return Group(_walk_table(f"S{n}", order, gens), labels, f"S{n}", _seeds=[g for g, _ in gens])


def _heisenberg_group(p: int) -> Group:
    """Upper unitriangular 3x3 matrices over Z/p: order p^3, center of order p."""
    n = p**3
    _order_limit(f"H{p}", n)  # before the primality test and the rows, whose costs grow with p
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"heisenberg parameter must be prime, got {p}")
    # (a, b, c) has id (a*p + b)*p + c; (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a*b'),
    # so (1, 0, 0) and (0, 1, 0), ids p^2 and p, map (a, b, c) to (a + 1, b, c + b) and (a, b + 1, c)
    a, b, c = np.indices((p, p, p), dtype=np.intp).reshape(3, n)
    gens = [(p * p, ((a + 1) % p * p + b) * p + (c + b) % p), (p, (a * p + (b + 1) % p) * p + c)]
    labels = [
        f"({a},{b},{c})" if (a, b, c) != (0, 0, 0) else "1"
        for a in range(p)
        for b in range(p)
        for c in range(p)
    ]
    return Group(_walk_table(f"H{p}", n, gens), labels, f"H{p}", _seeds=[g for g, _ in gens])


def builtin_group(family: str, param: Optional[int] = None) -> Group:
    """Construct a standard group: cyclic n, dihedral 2n, quaternion8, symmetric n, heisenberg p."""
    fam = family.strip().lower()
    if fam == "cyclic":
        if param is None or param < 1:
            raise ValueError("cyclic requires a positive order")
        return _cyclic_group(param)
    if fam == "dihedral":
        if param is None:
            raise ValueError("dihedral requires the group order (2n)")
        return _dihedral_group(param)
    if fam == "quaternion8":
        if param not in (None, 8):
            raise ValueError("quaternion8 takes no parameter (or 8)")
        return _quaternion_group()
    if fam == "symmetric":
        if param is None:
            raise ValueError("symmetric requires the degree")
        return _symmetric_group(param)
    if fam == "heisenberg":
        if param is None:
            raise ValueError("heisenberg requires a prime")
        return _heisenberg_group(param)
    raise ValueError(f"unknown builtin family {family!r} (expected one of {BUILTIN_FAMILIES})")
