"""Algebra of formal linear combinations."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from arrowforms.lincomb import LinComb, as_lincomb

coeffs = st.fractions(max_denominator=6, min_value=-5, max_value=5)
keys = st.sampled_from(list("abcdef"))
combos = st.lists(st.tuples(keys, coeffs), max_size=8).map(LinComb)


@given(combos, combos)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(combos, combos, combos)
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(combos)
def test_subtraction_and_negation(x):
    assert x - x == LinComb.zero()
    assert x + (-x) == LinComb.zero()
    assert not (x - x)


@given(combos, coeffs)
def test_scaling(x, c):
    assert x.scale(c) == x * c
    if c:
        assert (x * c).scale(Fraction(1, 1) / c) == x
    else:
        assert x * c == LinComb.zero()


def test_zero_coefficients_are_dropped():
    x = LinComb([("a", 1), ("a", -1), ("b", 2)])
    assert list(x.keys()) == ["b"]
    assert x.coeff("a") == 0
    assert len(x) == 1


def test_filtered_and_single():
    x = LinComb([("a", 1), ("bb", 2)])
    assert x.filtered(lambda k: len(k) == 1) == LinComb.single("a")


def test_as_lincomb_wraps_bare_keys():
    assert as_lincomb("a") == LinComb.single("a")
    x = LinComb.single("b", 2)
    assert as_lincomb(x) is x
