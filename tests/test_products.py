"""Direct products against oracles built from their factors: the lattice, the
Z*-classes and the Möbius function of G x H are products of the factors'."""

import pytest

import centra as c
from conftest import product_lattice_masks, product_moebius, product_z_star_classes

FACTORS = {
    "D8": lambda: c.builtin_group("dihedral", 8),
    "Q8": lambda: c.builtin_group("quaternion8"),
    "S3": lambda: c.builtin_group("symmetric", 3),
    "S4": lambda: c.builtin_group("symmetric", 4),
    "H3": lambda: c.builtin_group("heisenberg", 3),
}
# S4 x S4 (order 576, 19^2 = 361 lattice nodes) is the largest built here
PAIRS = [("D8", "S3"), ("Q8", "S3"), ("H3", "D8"), ("S4", "S4")]


@pytest.fixture(scope="module", params=PAIRS, ids=["x".join(pair) for pair in PAIRS])
def factors(request):
    G, H = (FACTORS[name]() for name in request.param)
    return G, H, c.direct_product(G, H)


def test_lattice_is_the_product_of_the_factor_lattices(factors):
    G, H, P = factors
    nodes = [node.mask for node in c.build_lattice(P).nodes]
    assert len(nodes) == len(c.build_lattice(G).nodes) * len(c.build_lattice(H).nodes)
    assert set(nodes) == product_lattice_masks(G, H)


def test_z_star_classes_are_products(factors):
    G, H, P = factors
    classes = [(cl.members.mask, cl.cent.mask, cl.ecenter.mask) for cl in c.z_star_partition(P)]
    assert len(classes) == len(c.z_star_partition(G)) * len(c.z_star_partition(H))
    assert set(classes) == product_z_star_classes(G, H)


def test_moebius_is_multiplicative(factors):
    G, H, P = factors
    poset = c.center_poset(P)
    assert {node.mask: mu for node, mu in zip(poset.nodes, c.moebius(poset).mu)} == product_moebius(G, H)

