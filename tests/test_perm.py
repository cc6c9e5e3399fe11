import pytest

from centra import CycleNotationError, Permutation, parse_cycle_notation


def test_parse_three_cycle():
    p = parse_cycle_notation("(1,2,3)", 4)
    # 1->2, 2->3, 3->1, 4 fixed (0-based internally)
    assert p.images == (1, 2, 0, 3)


def test_parse_identity():
    assert parse_cycle_notation("()", 4) == Permutation.identity(4)


def test_parse_double_transposition():
    p = parse_cycle_notation("(1,2)(3,4)", 4)
    assert p.images == (1, 0, 3, 2)


def test_parse_fixed_point_cycle():
    p = parse_cycle_notation("(2)", 3)
    assert p == Permutation.identity(3)


@pytest.mark.parametrize(
    "text",
    ["(1,2", "1,2)", "(1,,2)", "(1 2)", "()(1,2)", "(1,2)x", "((1,2))", ""],
)
def test_parse_malformed(text):
    with pytest.raises(CycleNotationError):
        parse_cycle_notation(text, 4)


def test_parse_point_out_of_range():
    with pytest.raises(CycleNotationError, match="out of range"):
        parse_cycle_notation("(1,5)", 4)
    with pytest.raises(CycleNotationError, match="out of range"):
        parse_cycle_notation("(0,1)", 4)


def test_parse_repeated_point():
    with pytest.raises(CycleNotationError, match="repeated"):
        parse_cycle_notation("(1,2)(2,3)", 4)
    with pytest.raises(CycleNotationError, match="repeated"):
        parse_cycle_notation("(1,2,1)", 4)


def test_compose_applies_right_factor_first():
    p = parse_cycle_notation("(1,2)", 3)
    q = parse_cycle_notation("(2,3)", 3)
    # (p*q)(x) = p(q(x)): 1 -> 1 -> 2, so 1 maps to 2; 2 -> 3 -> 3; 3 -> 2 -> 1.
    assert (p * q).cycle_string() == "(1,2,3)"


def test_inverse_roundtrip():
    p = parse_cycle_notation("(1,4,2)(3,5)", 5)
    assert p * p.inverse() == Permutation.identity(p.degree)
    assert p.inverse() * p == Permutation.identity(p.degree)


def test_cycle_string_roundtrip():
    for text in ["()", "(1,2,3)", "(1,2)(3,4)", "(2,4)(3,6,5)"]:
        p = parse_cycle_notation(text, 6)
        assert parse_cycle_notation(p.cycle_string(), 6) == p


def test_cycle_string_is_canonical():
    # cycles start at their least point and are sorted by it
    p = parse_cycle_notation("(4,3)(2,1)", 4)
    assert p.cycle_string() == "(1,2)(3,4)"


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycle_notation("(1,2)", 2) * parse_cycle_notation("(1,2)", 3)
