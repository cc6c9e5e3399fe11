"""The property suites themselves: pinned output, and failures on a broken kernel."""

from functools import cached_property

import pytest

import centra as c
from centra.checks import run_suite
from centra.cli import build_report

# run_suite(G, "algebra") on any group of order 8, as (name, status, detail).
ALGEBRA_ORDER_8 = [
    ("algebra/empty_set_centralizer", "pass", ""),
    ("algebra/centralizer_is_subgroup", "pass", "256 subsets"),
    ("algebra/antitone_containment", "pass", "6561 subset pairs"),
    ("algebra/intersection_law", "pass", "32896 collections"),
    ("algebra/generated_subgroup_law", "pass", "256 subsets"),
    ("algebra/triple_centralizer", "pass", "256 subsets"),
    ("algebra/galois_equivalence", "pass", "65536 pairs"),
    ("algebra/closure_extensive", "pass", "256 subsets"),
    ("algebra/closure_monotone", "pass", "6561 subset pairs"),
    ("algebra/closure_idempotent", "pass", "256 subsets"),
]


class FlippedCentMasks(c.Group):
    """A copy of a group whose cached centralizer masks carry one flipped bit:
    element h is toggled in the mask of C_G(g)."""

    def __init__(self, G: c.Group, g: int, h: int):
        super().__init__(G.table, G.labels, G.name)
        self.flip = (g, h)

    @cached_property
    def cent_masks(self) -> tuple[int, ...]:
        g, h = self.flip
        cms = list(c.Group.cent_masks.func(self))
        cms[g] ^= 1 << h
        return tuple(cms)


def failures(G):
    return [r for r in run_suite(G, "algebra") if r.failed]


@pytest.mark.parametrize("key", ["d8", "q8"])
def test_algebra_output_pinned(key, request):
    G = request.getfixturevalue(key)
    assert [(r.name, r.status, r.detail) for r in run_suite(G, "algebra")] == ALGEBRA_ORDER_8


def test_every_flipped_bit_fails_tabulated_branch(d8):
    for g in d8.elements():
        for h in d8.elements():
            failed = failures(FlippedCentMasks(d8, g, h))
            assert failed, (g, h)
            assert all(r.witness for r in failed), (g, h)


def test_flipped_copy_of_analysed_group_fails(d8):
    """A faulty copy built from an already analysed group gets its own
    structures, so the fault still shows."""
    build_report(d8, "builtin:dihedral:8")
    a, b = d8.labels.index("a"), d8.labels.index("b")
    bad = FlippedCentMasks(d8, a, b)
    failed = failures(bad)
    assert failed
    assert all(r.witness for r in failed)
    assert c.z_star_partition(bad) != c.z_star_partition(d8)


@pytest.mark.parametrize(
    "g_label,h_label",
    [("a", "b"), ("a", "a^2")],  # b wrongly joins C(a); a^2 wrongly leaves it
)
def test_flipped_bit_fails_sampled_branch(fleet, g_label, h_label):
    G = fleet["D16"]
    assert G.order > 8
    g, h = G.labels.index(g_label), G.labels.index(h_label)
    failed = failures(FlippedCentMasks(G, g, h))
    assert failed
    assert all(r.witness for r in failed)
