"""Finite groups as immutable multiplication tables over 0-based element ids.

Element id 0 is always the identity.  Tables are validated on construction:
identity and inverse laws, the latin-square property, and associativity
(exhaustive up to ``FULL_ASSOC_LIMIT``, a fixed-seed random sample of
``ASSOC_SAMPLE_TRIPLES`` triples above that).
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

import numpy as np

from .perm import Permutation, parse_cycle_notation
from .sets import ElemSet, Subgroup, ids_from_mask

DEFAULT_MAX_ORDER = 10**6
MAX_ORDER_ENV = "CENTRA_MAX_ORDER"
FULL_ASSOC_LIMIT = 512
ASSOC_SAMPLE_TRIPLES = 100_000

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
    if not (np.sort(table, axis=1) == ids).all():
        raise GroupTableError("latin", "some row is not a permutation of the element ids")
    if not (np.sort(table, axis=0) == ids[:, None]).all():
        raise GroupTableError("latin", "some column is not a permutation of the element ids")
    inv = np.argmax(table == 0, axis=1)
    if not (table[inv, ids] == 0).all():
        raise GroupTableError("inverse", "left and right inverses disagree")
    if n <= FULL_ASSOC_LIMIT:
        for g in range(n):
            if not np.array_equal(table[table[g]], table[g][table]):
                h, k = np.argwhere(table[table[g]] != table[g][table])[0]
                raise GroupTableError(
                    "associativity", f"({g}*{h})*{k} != {g}*({h}*{k})"
                )
    else:
        rng = np.random.default_rng(0)  # fixed seed: documented, reproducible sample
        g, h, k = rng.integers(0, n, size=(3, ASSOC_SAMPLE_TRIPLES))
        bad = table[table[g, h], k] != table[g, table[h, k]]
        if bad.any():
            i = int(np.argmax(bad))
            raise GroupTableError(
                "associativity", f"({g[i]}*{h[i]})*{k[i]} != {g[i]}*({h[i]}*{k[i]})"
            )
    return inv.astype(np.int32)


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


# -- subgroup machinery ----------------------------------------------------


def subgroup_generated_by(G: Group, S: SetLike) -> Subgroup:
    """Smallest subgroup containing ``S``; the empty set generates {identity}."""
    table = G.table
    mask = 1
    queue = [0]
    for s in G.set_ids(S):
        if not (mask >> s) & 1:
            mask |= 1 << s
            queue.append(s)
    gens = list(queue[1:])
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        row = table[x]
        for g in gens:
            y = int(row[g])
            if not (mask >> y) & 1:
                mask |= 1 << y
                queue.append(y)
    return Subgroup(G.order, mask)


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
    mask = 1
    x = g
    while x != 0:
        mask |= 1 << x
        x = int(G.table[x, g])
    return mask


def subgroup_label(G: Group, H: SetLike) -> str:
    """Display label for a subgroup: the group name for G itself, ``1`` for the
    trivial subgroup, else ``<gens>`` from a deterministic generating set."""
    H = G.elem_set(H)
    if H.mask == G.full_mask:
        return G.name
    nontrivial = [m for m in H.members if m != 0]
    if not nontrivial:
        return G.label(0)
    if len(H) <= 729:
        for m in nontrivial:
            if _cyclic_mask(G, m) == H.mask:
                return f"<{G.label(m)}>"
    gens: list[int] = []
    cur = 1
    while cur != H.mask:
        m = ids_from_mask(H.mask & ~cur)[0]
        gens.append(m)
        cur = subgroup_generated_by(G, gens).mask
        if cur & ~H.mask:
            raise InvariantViolation("generator fell outside the subgroup")
    return "<" + ",".join(G.label(g) for g in gens) + ">"


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
        deg = degree
    ident = Permutation.identity(deg)
    index = {ident.images: 0}
    elems = [ident]
    i = 0
    while i < len(elems):
        e = elems[i]
        i += 1
        for g in gens:
            f = e * g
            if f.images not in index:
                if len(elems) >= bound:
                    raise OrderBoundError(
                        f"generated group exceeds the order bound {bound}"
                    )
                index[f.images] = len(elems)
                elems.append(f)
    n = len(elems)
    images = np.array([e.images for e in elems], dtype=np.int32)
    key_to_id = {row.tobytes(): i for i, row in enumerate(images)}
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        composed = images[a][images]  # row h -> images of elems[a] * elems[h]
        table[a] = [key_to_id[row.tobytes()] for row in composed]
    labels = [e.cycle_string() for e in elems]
    return Group(table, labels, name)


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
    gt = G.table.astype(np.int64)
    ht = H.table.astype(np.int64)
    table = (gt[:, None, :, None] * m + ht[None, :, None, :]).reshape(n * m, n * m)
    labels = [f"({gl},{hl})" for gl in G.labels for hl in H.labels]
    return Group(table.astype(np.int32), labels, f"{G.name}x{H.name}")


def _cyclic_group(n: int) -> Group:
    ids = np.arange(n, dtype=np.int32)
    table = (ids[:, None] + ids[None, :]) % n
    labels = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return Group(table, labels, f"C{n}")


def _dihedral_group(order: int) -> Group:
    if order < 2 or order % 2:
        raise ValueError(f"dihedral group order must be even and >= 2, got {order}")
    n = order // 2
    # ids: a^i -> i, a^i b -> n + i
    table = np.empty((order, order), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            table[i, j] = (i + j) % n
            table[i, n + j] = n + (i + j) % n
            table[n + i, j] = n + (i - j) % n
            table[n + i, n + j] = (i - j) % n
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["ab" if i == 1 else f"a^{i}b" for i in range(1, n)]
    return Group(table, rot + ref, f"D{order}")


_QUAT_AXES = ("e", "i", "j", "k")
_QUAT_MUL = {
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
}


def _quaternion_group() -> Group:
    units = [(ax, s) for ax in _QUAT_AXES for s in (1, -1)]

    def q_mul(u, v):
        (ax1, s1), (ax2, s2) = u, v
        if ax1 == "e":
            return (ax2, s1 * s2)
        if ax2 == "e":
            return (ax1, s1 * s2)
        s, ax = _QUAT_MUL[(ax1, ax2)]
        return (ax, s1 * s2 * s)

    index = {u: i for i, u in enumerate(units)}
    table = [[index[q_mul(u, v)] for v in units] for u in units]
    labels = [("" if s == 1 else "-") + ("1" if ax == "e" else ax) for ax, s in units]
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
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    index = {p.images: i for i, p in enumerate(perms)}
    table = np.empty((order, order), dtype=np.int32)
    for a, pa in enumerate(perms):
        table[a] = [index[(pa * pb).images] for pb in perms]
    labels = [p.cycle_string() for p in perms]
    labels[0] = "1"
    return Group(table, labels, f"S{n}")


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

    def enc(a, b, c):
        return (a * p + b) * p + c

    table = np.empty((n, n), dtype=np.int32)
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                row = table[enc(a1, b1, c1)]
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            row[enc(a2, b2, c2)] = enc(
                                (a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p
                            )
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
