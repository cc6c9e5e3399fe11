"""Möbius function on the element-center poset and the mod-p congruence checks."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Optional

from .centralizers import z_star_partition
from .groups import Group, InvariantViolation, _least_prime, per_group
from .lattice import CenterPoset, build_lattice, center_poset, is_f_group
from .sets import ids_from_mask


@dataclass(frozen=True)
class MoebiusTable:
    """Integer mu per node of a center poset: mu(min) = 1 and
    mu(x) = -sum of mu over nodes strictly below x.

    The table holds its poset weakly: the poset memoises the table, so a
    dropped poset and its table are freed without the cyclic GC."""

    _poset: weakref.ref = field(repr=False)
    mu: tuple[int, ...]

    @property
    def poset(self) -> CenterPoset:
        if (poset := self._poset()) is None:
            raise ReferenceError("the poset of this Möbius table has been freed")
        return poset

    def value(self, node) -> int:
        return self.mu[self.poset.index_of(node)]


@per_group
def moebius(P: CenterPoset) -> MoebiusTable:
    """mu by one pass over the nodes in their (size, lex) order, which is
    topological for containment: each node's mu is final when it is reached,
    and is then pushed into the sums of its strict up-set ``above``.
    Computed once per CenterPoset."""
    n = len(P.nodes)
    mn = P.min_index
    above = P.above
    if above[mn] != ((1 << n) - 1) ^ (1 << mn):
        raise ValueError("poset has no unique minimal element")
    below_sum = [0] * n  # sum of mu over the nodes strictly below, so far
    mu = [0] * n
    for i in range(n):
        mu[i] = 1 if i == mn else -below_sum[i]
        for j in ids_from_mask(above[i]):
            below_sum[j] += mu[i]
    return MoebiusTable(weakref.ref(P), tuple(mu))


@dataclass
class CongruenceLine:
    """One congruence instance: lhs = rhs mod p, with residues kept for debugging."""

    label: str
    lhs: int
    rhs: int
    lhs_mod: int
    rhs_mod: int
    passed: bool


@dataclass
class CongruenceReport:
    check: str
    group: str
    p: int
    lines: list[CongruenceLine] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(line.passed for line in self.lines)

    def add(self, label: str, lhs: int, rhs: int) -> None:
        lm, rm = lhs % self.p, rhs % self.p
        self.lines.append(CongruenceLine(label, lhs, rhs, lm, rm, lm == rm))

    def add_exact(self, label: str, lhs: int, rhs: int) -> None:
        lm, rm = lhs % self.p, rhs % self.p
        self.lines.append(CongruenceLine(label, lhs, rhs, lm, rm, lhs == rhs))

    def as_dict(self) -> dict:
        """``dataclasses.asdict`` plus ``ok``, without its deep copies."""
        return {"check": self.check, "group": self.group, "p": self.p,
                "lines": [dict(vars(line)) for line in self.lines], "ok": self.ok}


def p_group_prime(order: int) -> Optional[int]:
    """The prime p with order = p^k (k >= 1), or None."""
    if order < 2:
        return None
    p = _least_prime(order)
    while order % p == 0:
        order //= p
    return p if order == 1 else None


def _require_p_group(G: Group, p: Optional[int], *, nonabelian: bool = False,
                     f_group: bool = False) -> int:
    inferred = p_group_prime(G.order)
    if inferred is None:
        raise ValueError(f"{G.name} (order {G.order}) is not a p-group")
    if p is not None and p != inferred:
        raise ValueError(f"order {G.order} is not a power of p={p}")
    if nonabelian and G.is_abelian:
        raise ValueError(f"{G.name} is abelian; the check needs a nonabelian p-group")
    if f_group and not is_f_group(G):
        raise ValueError(f"{G.name} is not an F-group")
    return inferred


def _once_per_group(**requires) -> Callable:
    """Build a congruence report once per group, at the group's own prime.
    Every call first runs ``_require_p_group`` with ``requires``, so a wrong
    p, or a group the check does not apply to, raises on every call."""

    def decorate(check: Callable[[Group, int], CongruenceReport]) -> Callable:
        built = per_group(lambda G: check(G, p_group_prime(G.order)))

        @wraps(check)
        def call(G: Group, p: Optional[int] = None) -> CongruenceReport:
            _require_p_group(G, p, **requires)
            return built(G)

        return call

    return decorate


@_once_per_group()
def check_class_size_congruence(G: Group, p: int) -> CongruenceReport:
    """Per Z*-class: |Z*(g)| / |Z(G)| = mu(Z(g)) mod p."""
    poset = center_poset(G)
    table = moebius(poset)
    z_order = len(G.center)
    report = CongruenceReport("class_size_congruence", G.name, p)
    for c in z_star_partition(G):
        size = len(c.members)
        if size % z_order:
            raise InvariantViolation(
                f"|Z(G)|={z_order} does not divide |Z*({G.labels[c.representative]})|={size}"
            )
        report.add(
            f"class of {G.labels[c.representative]}",
            size // z_order,
            table.value(c.ecenter),
        )
    return report


@_once_per_group(nonabelian=True)
def check_mob_sums(G: Group, p: int) -> CongruenceReport:
    """Both Möbius sum congruences over the centralizer lattice.

    For every lattice node H properly containing Z(G), the mu-sum over
    non-central element centers inside H is -1 mod p; dually, for every node
    H properly inside G, the mu-sum over proper element centralizers
    containing H (evaluated at their centers) is -1 mod p.
    """
    lat = build_lattice(G)
    poset = center_poset(G)
    table = moebius(poset)
    center_mask = G.center.mask
    full = G.full_mask
    noncentral = [
        (c.cent.mask, table.value(c.ecenter), c.ecenter.mask)
        for c in z_star_partition(G)
        if c.cent.mask != full
    ]
    report = CongruenceReport("mob_sums", G.name, p)
    for i, node in enumerate(lat.nodes):
        hm = node.mask
        if hm != center_mask:
            total = sum(mu for _, mu, zm in noncentral if zm & ~hm == 0)
            report.add(f"centers within {lat.labels[i]}", total, -1)
        if hm != full:
            total = sum(mu for cm, mu, _ in noncentral if hm & ~cm == 0)
            report.add(f"centralizers above {lat.labels[i]}", total, -1)
    return report


@_once_per_group(nonabelian=True, f_group=True)
def check_f_group_counts(G: Group, p: int) -> CongruenceReport:
    """F-group counting congruences.

    Per proper element centralizer H: the number of non-central element
    centers inside H is 1 mod p; per element center H: the number of proper
    element centralizers containing H is 1 mod p; and |Z(G)-centers| is
    1 mod p.  Also records that mu = -1 at every non-minimal node.
    """
    poset = center_poset(G)
    table = moebius(poset)
    full = G.full_mask
    classes = [c for c in z_star_partition(G) if c.cent.mask != full]
    report = CongruenceReport("f_group_counts", G.name, p)
    for c in classes:
        inside = sum(1 for d in classes if d.ecenter.mask & ~c.cent.mask == 0)
        report.add(f"centers within C({G.labels[c.representative]})", inside, 1)
    for c in classes:
        above = sum(1 for d in classes if c.ecenter.mask & ~d.cent.mask == 0)
        report.add(f"centralizers above Z({G.labels[c.representative]})", above, 1)
    report.add("number of non-central element centers", len(classes), 1)
    for i, m in enumerate(table.mu):
        if i != poset.min_index:
            report.add_exact(f"mu at {poset.labels[i]}", m, -1)
    return report
