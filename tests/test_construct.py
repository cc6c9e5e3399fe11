"""The array-native constructors against the former one-entry-at-a-time loops."""

import numpy as np
import pytest

import centra as c
from centra import groups
from conftest import (
    naive_cyclic,
    naive_dihedral,
    naive_heisenberg,
    naive_permutation_group,
    naive_quaternion,
    naive_symmetric,
    unitriangular4_generators,
)


def assert_matches(G, oracle, name):
    table, labels = oracle
    assert G.table.tolist() == table
    assert G.labels == labels
    assert G.name == name


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric(n):
    assert_matches(c.builtin_group("symmetric", n), naive_symmetric(n), f"S{n}")


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic(n):
    assert_matches(c.builtin_group("cyclic", n), naive_cyclic(n), f"C{n}")


@pytest.mark.parametrize("order", range(2, 17, 2))
def test_dihedral(order):
    assert_matches(c.builtin_group("dihedral", order), naive_dihedral(order), f"D{order}")


def test_quaternion():
    assert_matches(c.builtin_group("quaternion8"), naive_quaternion(), "Q8")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_heisenberg(p):
    assert_matches(c.builtin_group("heisenberg", p), naive_heisenberg(p), f"H{p}")


def test_generated_ut4_3():
    gens = unitriangular4_generators(3)
    G = c.group_from_generators(gens, name="UT")
    assert G.order == 729
    assert_matches(G, naive_permutation_group(gens), "UT")


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_generated_from_no_generators(degree):
    G = c.group_from_generators([], degree=degree)
    assert_matches(G, naive_permutation_group([], degree), "G")


def test_generated_with_long_base_of_high_degree():
    # S3 on points 1-3 and four transpositions of far-apart points: every base
    # needs 6 points, and mixed-radix keys over 6 points of degree 4096 reach
    # 4096**6 = 2**72, past int64.
    deg = 4096
    cycles = ["(1,2,3)", "(1,2)", "(100,101)", "(1000,1001)", "(2000,2001)", "(4095,4096)"]
    gens = [c.parse_cycle_notation(cyc, deg) for cyc in cycles]
    assert deg**6 > np.iinfo(np.int64).max
    G = c.group_from_generators(gens)
    assert G.order == 96
    assert_matches(G, naive_permutation_group(gens), "G")


def test_product_outside_the_elements_raises():
    # The identity and a 3-cycle without its square: (1,2,3)^2 is not a row.
    images = np.array([[0, 1, 2], [1, 2, 0]], dtype=np.intp)
    with pytest.raises(c.InvariantViolation, match="not an element"):
        groups._perm_table(images)


@pytest.mark.parametrize("family,param", [("dihedral", 8), ("heisenberg", 3)])
def test_direct_product_is_componentwise(family, param):
    G = c.builtin_group(family, param)
    P = c.direct_product(G, G)
    g, m = G.table.tolist(), G.order
    pairs = [(a, b) for a in range(m) for b in range(m)]
    expected = [[g[a][x] * m + g[b][y] for x, y in pairs] for a, b in pairs]
    assert P.table.tolist() == expected
    assert P.labels == tuple(f"({la},{lb})" for la in G.labels for lb in G.labels)
    assert P.name == f"{G.name}x{G.name}"


# -- bounds and error messages -----------------------------------------------------


def s4_generators():
    return [c.parse_cycle_notation("(1,2)", 4), c.parse_cycle_notation("(1,2,3,4)", 4)]


@pytest.mark.parametrize("bound", [1, 2, 12, 23])
def test_generated_order_bound_below_the_order(bound):
    with pytest.raises(c.OrderBoundError) as err:
        c.group_from_generators(s4_generators(), max_order=bound)
    assert str(err.value) == f"generated group exceeds the order bound {bound}"


def test_generated_order_bound_at_the_order(monkeypatch):
    assert c.group_from_generators(s4_generators(), max_order=24).order == 24
    monkeypatch.setenv("CENTRA_MAX_ORDER", "23")
    with pytest.raises(c.OrderBoundError, match="exceeds the order bound 23"):
        c.group_from_generators(s4_generators())


def test_symmetric_messages():
    with pytest.raises(ValueError) as err:
        c.builtin_group("symmetric", 0)
    assert str(err.value) == "symmetric group degree must be >= 1, got 0"
    with pytest.raises(c.OrderBoundError) as err:
        c.builtin_group("symmetric", 6, max_order=719)
    assert str(err.value) == "S6 order 720 exceeds the order bound 719"


@pytest.mark.parametrize("gens,degree,message", [
    ([("(1,2,3)", 3), ("(1,2)", 2)], None, "degree mismatch: 2 vs 3"),
    ([("(1,2,3)", 3)], 4, "degree mismatch: generators have degree 3, got 4"),
    ([], None, "degree is required when no generators are given"),
])
def test_generator_messages(gens, degree, message):
    perms = [c.parse_cycle_notation(text, deg) for text, deg in gens]
    with pytest.raises(ValueError) as err:
        c.group_from_generators(perms, degree=degree)
    assert str(err.value) == message
