"""The centralizer map, its double-centralizer closure, and the Z*-partition.

Every operation here reduces to intersections of the per-element centralizer
bitmasks cached on the group.  Members of one Z*-class share their mask, so
C(S) is one AND per class that S meets, and large subsets stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import Group, SetLike, per_group
from .sets import ElemSet, Subgroup


def centralizer_mask(G: Group, mask: int) -> int:
    """Bitmask of C_G(S) for the subset S with bitmask ``mask``; 0 gives G.

    One AND per Z*-class that S meets: the least member's centralizer is every
    member's, so the whole class leaves the mask at once."""
    if mask < 0 or mask >> G.order:
        raise ValueError(f"mask has bits outside the group of order {G.order}")
    result = G.full_mask
    zmask = G.center.mask
    cms = G.cent_masks
    class_of, outside = G._zstar_buckets
    while mask:
        g = (mask & -mask).bit_length() - 1
        result &= cms[g]
        if result == zmask:
            break  # the intersection can never drop below Z(G)
        mask &= outside[class_of[g]]
    return result


def centralizer(G: Group, S: SetLike) -> Subgroup:
    """C_G(S): all elements commuting with every member of S; C_G(empty) = G."""
    return Subgroup(G.order, centralizer_mask(G, G.elem_set(S).mask))


def closure(G: Group, S: SetLike) -> Subgroup:
    """The double centralizer C_G(C_G(S)): extensive, monotone, idempotent."""
    return Subgroup(G.order, centralizer_mask(G, centralizer_mask(G, G.elem_set(S).mask)))


def is_abelian_subset(G: Group, S: SetLike) -> bool:
    """True iff the members of S pairwise commute, that is, S <= C_G(S)."""
    mask = G.elem_set(S).mask
    return mask & ~centralizer_mask(G, mask) == 0


@dataclass(frozen=True)
class CentClass:
    """One class of the relation x ~ y iff C_G(x) = C_G(y).

    ``members`` is Z*(g), ``cent`` the shared centralizer C_G(g), and
    ``ecenter`` the shared element center Z(g) = C_G(C_G(g)).
    """

    representative: int
    members: ElemSet
    cent: Subgroup
    ecenter: Subgroup


@per_group
def z_star_partition(G: Group) -> tuple[CentClass, ...]:
    """Partition of G into Z*-classes, ordered by minimal representative id.

    The class of any central element is exactly Z(G).
    """
    classes = []
    for outside in G._zstar_buckets[1]:
        mm = G.full_mask ^ outside
        rep = (mm & -mm).bit_length() - 1
        cm = G.cent_masks[rep]
        classes.append(
            CentClass(
                representative=rep,
                members=ElemSet(G.order, mm),
                cent=Subgroup(G.order, cm),
                ecenter=Subgroup(G.order, centralizer_mask(G, cm)),
            )
        )
    return tuple(classes)


@per_group
def class_transversal(G: Group) -> ElemSet:
    """Default transversal of the Z*-partition: the minimal id of each class."""
    return ElemSet.from_ids(G.order, (c.representative for c in z_star_partition(G)))


def u_star(G: Group, H: SetLike, X: SetLike) -> ElemSet:
    """U*_H: the representatives in X whose element centralizer contains H.

    Requires H to be a centralizer (a fixed point of the closure) and X to
    contain exactly one representative per Z*-class; then C_G(U*_H) = H.
    As H <= C_G(x) iff x lies in C_G(H), U*_H is X & C_G(H); ``CentLattice.ustar``
    reads it off the centralizer each node's ``dual`` computes, without these checks.
    """
    hm = G.elem_set(H).mask
    chm = centralizer_mask(G, hm)
    if centralizer_mask(G, chm) != hm:
        raise ValueError("H is not a centralizer (not closed under the double centralizer)")
    xm = G.elem_set(X).mask
    if xm != class_transversal(G).mask:
        _check_transversal(G, xm)
    return ElemSet(G.order, xm & chm)


def _check_transversal(G: Group, xm: int) -> None:
    """Raise ValueError unless ``xm`` holds exactly one member of each Z*-class."""
    firsts = 0  # the least member of X in each class
    missing = None
    for c in z_star_partition(G):
        hits = xm & c.members.mask
        firsts |= hits & -hits
        if not hits and missing is None:
            missing = c.representative
    extra = xm & ~firsts
    if extra:
        raise ValueError(
            f"X contains two representatives of the class of element "
            f"{(extra & -extra).bit_length() - 1}"
        )
    if missing is not None:
        raise ValueError(
            f"X is not a transversal: no representative for the class of element {missing}"
        )
