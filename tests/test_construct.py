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
    unitriangular_generators,
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
    gens = unitriangular_generators(4, 3)
    G = c.group_from_generators(gens, name="UT")
    assert G.order == 729
    assert_matches(G, naive_permutation_group(gens), "UT")


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_generated_from_no_generators(degree):
    G = c.group_from_generators([], degree=degree)
    assert_matches(G, naive_permutation_group([], degree), "G")


# S3 on points 1-3 and four transpositions of far-apart points of degree 4096
LONG_BASE_CYCLES = ["(1,2,3)", "(1,2)", "(100,101)", "(1000,1001)", "(2000,2001)", "(4095,4096)"]


def test_generated_with_long_base_of_high_degree():
    # Only the images of 6 far-apart points tell the 96 elements apart, and a
    # mixed-radix key over 6 points of degree 4096 would reach 2**72, past int64.
    deg = 4096
    gens = [c.parse_cycle_notation(cyc, deg) for cyc in LONG_BASE_CYCLES]
    assert deg**6 > np.iinfo(np.int64).max
    G = c.group_from_generators(gens)
    assert G.order == 96
    assert_matches(G, naive_permutation_group(gens), "G")


NAIVE_BUILTINS = {
    "cyclic": naive_cyclic,
    "dihedral": naive_dihedral,
    "quaternion8": lambda _: naive_quaternion(),
    "symmetric": naive_symmetric,
    "heisenberg": naive_heisenberg,
}


@pytest.mark.parametrize("family,param,name", [
    *(("cyclic", n, f"C{n}") for n in range(1, 10)),
    *(("dihedral", order, f"D{order}") for order in range(2, 17, 2)),
    ("quaternion8", None, "Q8"),
    *(("symmetric", n, f"S{n}") for n in range(1, 6)),
    *(("heisenberg", p, f"H{p}") for p in (2, 3, 5)),
])
def test_builtins_in_small_row_blocks(family, param, name, monkeypatch):
    # At 16 entries a block every table above order 4 spans several row
    # blocks, and D6's second block (rows 2 and 3) holds a rotation and a
    # reflection.  Validation and cent_masks read the table in the same blocks.
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 16)
    G = c.builtin_group(family, param)
    table, labels = NAIVE_BUILTINS[family](param)
    assert_matches(G, (table, labels), name)
    n = len(table)
    commuting = [sum(1 << h for h in range(n) if table[g][h] == table[h][g]) for g in range(n)]
    assert G.cent_masks == tuple(commuting)


@pytest.mark.parametrize("case", ["ut4_3", "no_generators", "long_base"])
def test_generated_in_small_row_blocks(case, monkeypatch):
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 16)  # one found element, one table row per block
    gens, degree = {
        "ut4_3": (unitriangular_generators(4, 3), None),
        "no_generators": ([], 3),
        "long_base": ([c.parse_cycle_notation(cyc, 4096) for cyc in LONG_BASE_CYCLES], None),
    }[case]
    G = c.group_from_generators(gens, degree=degree)
    assert_matches(G, naive_permutation_group(gens, degree), "G")


@pytest.mark.parametrize("case", ["ut4_3", "long_base"])
def test_generator_file_matches_its_permutations(case, tmp_path):
    gens = {
        "ut4_3": unitriangular_generators(4, 3),
        "long_base": [c.parse_cycle_notation(cyc, 4096) for cyc in LONG_BASE_CYCLES],
    }[case]
    path = tmp_path / "G.gens"
    path.write_text(f"perm {gens[0].degree}\n" + "".join(g.cycle_string() + "\n" for g in gens))
    assert_matches(c.group_from_generator_file(path), naive_permutation_group(gens), "G")


@pytest.mark.parametrize("build", [
    lambda: c.builtin_group("cyclic", 2000),
    lambda: c.builtin_group("dihedral", 2000),
    lambda: c.builtin_group("heisenberg", 13),
    lambda: c.direct_product(c.builtin_group("cyclic", 40), c.builtin_group("cyclic", 50)),
    lambda: c.builtin_group("symmetric", 6),
    (lambda gens: lambda: c.group_from_generators(gens))(unitriangular_generators(4, 3)),
], ids=["C2000", "D2000", "H13", "C40xC50", "S6", "UT4_3"])
def test_construction_peaks_at_the_table_plus_blocks(build):
    # An n x n temporary beside the table (8 MB at order 2000) breaks the bound.
    import tracemalloc

    tracemalloc.start()
    try:
        G = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= G.table.nbytes + (2 << 20), (peak, G.table.nbytes)


def d8_generator_rows():
    """D8's generators a and b (ids 1 and 4) with their rows, h -> g*h."""
    D8 = c.builtin_group("dihedral", 8)
    return [(g, D8.table[g].tolist()) for g in (1, 4)]


def test_walk_that_misses_elements_raises():
    # a alone reaches only its four powers
    with pytest.raises(c.InvariantViolation, match="^the generators of D8 reach 4 of its 8 elements$"):
        groups._walk_table("D8", 8, d8_generator_rows()[:1])


def test_walk_with_a_wrong_row_is_rejected_by_validation():
    # b's row with b*a and b*a^2 swapped still reaches all eight elements, and
    # keeps the identity law, but its table is no group: validation reads the
    # table, not the rows it was filled from
    a, (b, row) = d8_generator_rows()
    row[1], row[2] = row[2], row[1]
    table = groups._walk_table("D8", 8, [a, (b, row)])
    assert table[:, 0].tolist() == list(range(8))
    with pytest.raises(c.GroupTableError):
        c.Group(table, name="D8")


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


def budget(limit):
    """CENTRA_TABLE_BYTES whose largest admitted order is ``limit``: a uint16
    table of ``limit`` elements, and one byte less refuses it."""
    return str(2 * limit * limit)


def over(name, order, limit):
    return f"{name} order {order} exceeds {limit}, the largest order whose table fits in CENTRA_TABLE_BYTES"


@pytest.mark.parametrize("bound", [1, 2, 12, 23])
def test_generated_order_bound_below_the_order(bound, monkeypatch):
    monkeypatch.setenv("CENTRA_TABLE_BYTES", budget(bound))
    with pytest.raises(c.OrderBoundError) as err:
        c.group_from_generators(s4_generators())
    assert str(err.value) == over("G", f"at least {bound + 1}", bound)


def test_generated_order_bound_at_the_order(monkeypatch):
    monkeypatch.setenv("CENTRA_TABLE_BYTES", budget(24))
    assert c.group_from_generators(s4_generators()).order == 24
    monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 24 * 24 - 1))
    with pytest.raises(c.OrderBoundError, match="exceeds 23, the largest order"):
        c.group_from_generators(s4_generators())


def test_symmetric_messages(monkeypatch):
    with pytest.raises(ValueError) as err:
        c.builtin_group("symmetric", 0)
    assert str(err.value) == "symmetric group degree must be >= 1, got 0"
    monkeypatch.setenv("CENTRA_TABLE_BYTES", budget(719))
    with pytest.raises(c.OrderBoundError) as err:
        c.builtin_group("symmetric", 6)
    assert str(err.value) == over("S6", 720, 719)
    with pytest.raises(c.OrderBoundError) as err:  # n! is not multiplied out past the limit
        c.builtin_group("symmetric", 10**6)
    assert str(err.value) == over("S1000000", "1000000!", 719)


# -- the table byte budget ---------------------------------------------------------


def table_bytes(order):
    return order * order * groups._table_dtype(order).itemsize


def limit_at(budget_bytes, monkeypatch):
    monkeypatch.setenv("CENTRA_TABLE_BYTES", str(budget_bytes))
    return groups._order_limit("G", 0)


def test_default_budget_admits_orders_to_23170(monkeypatch):
    monkeypatch.delenv("CENTRA_TABLE_BYTES", raising=False)
    assert groups._order_limit("G") == 23170
    assert table_bytes(23170) <= 2**30 < table_bytes(23171)
    with pytest.raises(c.OrderBoundError, match="^C23171 order 23171 exceeds 23170, "):
        groups._order_limit("C23171", 23171)


@pytest.mark.parametrize("budget_bytes", [
    1, 2, 7, 8, 9, 2**30,
    table_bytes(1 << 16) - 1, table_bytes(1 << 16), table_bytes(1 << 16) + 1,
    table_bytes((1 << 16) + 1) - 1, table_bytes((1 << 16) + 1), table_bytes((1 << 16) + 1) + 1,
    table_bytes(70000), 10**12, 10**15 + 7,
])
def test_limit_is_the_largest_order_that_fits(budget_bytes, monkeypatch):
    # around the uint16/uint32 step at 65 536 / 65 537 too; no table is built
    limit = limit_at(budget_bytes, monkeypatch)
    assert table_bytes(limit) <= budget_bytes or limit == 0
    assert table_bytes(limit + 1) > budget_bytes


def test_uint32_step(monkeypatch):
    assert limit_at(table_bytes(1 << 16), monkeypatch) == 1 << 16
    assert limit_at(table_bytes((1 << 16) + 1) - 1, monkeypatch) == 1 << 16
    assert limit_at(table_bytes((1 << 16) + 1), monkeypatch) == (1 << 16) + 1


@pytest.mark.parametrize("raw", ["0", "-1", "abc", "1.5", "1e9", ""])
def test_budget_must_be_a_positive_integer(raw, monkeypatch):
    monkeypatch.setenv("CENTRA_TABLE_BYTES", raw)
    with pytest.raises(ValueError) as err:
        c.builtin_group("cyclic", 2)
    assert not isinstance(err.value, c.OrderBoundError)
    assert str(err.value) == f"CENTRA_TABLE_BYTES must be a positive integer number of bytes, got {raw!r}"


def construction_paths(tmp_path):
    """Every construction path: its (name, order, build), ``build`` reading
    the budget that is set when it is called."""
    s4 = s4_generators()
    gens_file = tmp_path / "s4.gens"
    gens_file.write_text("perm 4\n(1,2)\n(1,2,3,4)\n")
    d8_text = c.cayley_table_text(c.builtin_group("dihedral", 8))
    table_file = tmp_path / "d8.table"
    table_file.write_text(d8_text)
    c2, c3, c4 = (c.builtin_group("cyclic", n) for n in (2, 3, 4))
    return {
        "cyclic": ("C12", 12, lambda: c.builtin_group("cyclic", 12)),
        "dihedral": ("D12", 12, lambda: c.builtin_group("dihedral", 12)),
        "quaternion8": ("Q8", 8, lambda: c.builtin_group("quaternion8")),
        "symmetric": ("S4", 24, lambda: c.builtin_group("symmetric", 4)),
        "heisenberg": ("H3", 27, lambda: c.builtin_group("heisenberg", 3)),
        "generators": ("G", 24, lambda: c.group_from_generators(s4)),
        "generator_file": ("s4", 24, lambda: c.group_from_generator_file(gens_file)),
        "cayley_text": ("table", 8, lambda: c.parse_cayley_table_text(d8_text)),
        "cayley_file": ("d8", 8, lambda: c.group_from_cayley_table(table_file)),
        "product": ("C3xC4", 12, lambda: c.direct_product(c3, c4)),
        "nested_product": ("C2xC3xC2", 12, lambda: c.direct_product(c.direct_product(c2, c3), c2)),
    }


@pytest.mark.parametrize("path", [
    "cyclic", "dihedral", "quaternion8", "symmetric", "heisenberg", "generators",
    "generator_file", "cayley_text", "cayley_file", "product", "nested_product",
])
def test_every_path_admits_the_limit_and_refuses_one_above(path, tmp_path, monkeypatch):
    name, order, build = construction_paths(tmp_path)[path]
    monkeypatch.setenv("CENTRA_TABLE_BYTES", budget(order))
    assert build().order == order
    monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * order * order - 1))
    with pytest.raises(c.OrderBoundError) as err:
        build()
    shown = f"at least {order}" if name in ("G", "s4") else order
    assert str(err.value) == over(name, shown, order - 1)


@pytest.mark.parametrize("name,order,build", [
    ("C2000", 2000, lambda: c.builtin_group("cyclic", 2000)),
    ("D2000", 2000, lambda: c.builtin_group("dihedral", 2000)),
    ("S7", 5040, lambda: c.builtin_group("symmetric", 7)),
    ("H13", 2197, lambda: c.builtin_group("heisenberg", 13)),
    ("C40xC50", 2000, lambda: c.direct_product(c.builtin_group("cyclic", 40), c.builtin_group("cyclic", 50))),
    ("table", 2000, lambda: c.parse_cayley_table_text("2000\n")),  # refused before its rows are read
], ids=["cyclic", "dihedral", "symmetric", "heisenberg", "product", "cayley_text"])
def test_refused_before_the_table_is_allocated(name, order, build, monkeypatch):
    import tracemalloc

    monkeypatch.setenv("CENTRA_TABLE_BYTES", budget(order - 1))
    tracemalloc.start()
    try:
        with pytest.raises(c.OrderBoundError, match=f"^{name} order {order} exceeds {order - 1}, "):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes(order) // 8


def test_generator_file_is_held_to_its_rows(tmp_path, monkeypatch):
    # C2 declared on 10^6 points: construction allocates about the generator
    # rows of the declared degree (4 MB of uint32), then works on the two
    # points the generator moves; one byte less than the two rows refuses it
    import tracemalloc

    path = tmp_path / "c2.gens"
    path.write_text("perm 1000000\n(1,2)\n")
    tracemalloc.start()
    try:
        G = c.group_from_generator_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.order, G.labels) == (2, ("()", "(1,2)"))
    assert peak < 3 * 4 * 10**6, peak
    monkeypatch.setenv("CENTRA_TABLE_BYTES", str(2 * 4 * 10**6 - 1))
    with pytest.raises(ValueError) as err:
        c.group_from_generator_file(path)
    assert str(err.value) == (
        "c2: 2 permutation rows of 1000000 points take 8000000 bytes, more than the 7999999 of CENTRA_TABLE_BYTES"
    )


def test_closure_is_held_to_the_bytes_it_stores(monkeypatch):
    # an involution of 20 points: its table (8 bytes) fits in 64 bytes, but
    # the image rows of its two elements, of 20 uint16 points each, do not
    gen = c.parse_cycle_notation("".join(f"({2 * i + 1},{2 * i + 2})" for i in range(10)), 20)
    monkeypatch.setenv("CENTRA_TABLE_BYTES", "80")
    assert c.group_from_generators([gen]).order == 2
    monkeypatch.setenv("CENTRA_TABLE_BYTES", "79")
    with pytest.raises(ValueError) as err:
        c.group_from_generators([gen])
    assert not isinstance(err.value, c.OrderBoundError)
    assert str(err.value) == "G: 2 permutation rows of 20 points take 80 bytes, more than the 79 of CENTRA_TABLE_BYTES"


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
