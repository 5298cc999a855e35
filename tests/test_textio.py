"""Plain-text formats: byte round trips and parse errors."""

from fractions import Fraction

import pytest

from arrowforms import textio
from arrowforms.diagrams import DegenerateDiagram
from arrowforms.engine import Formula, gv_formula
from arrowforms.lincomb import LinComb

from conftest import (
    random_arrow_diagram,
    random_based_diagram,
    random_gauss_diagram,
    seeded,
)


def test_diagram_round_trip_all_species():
    rng = seeded(41)
    for _ in range(200):
        n = rng.randint(1, 4)
        K = rng.randint(-2, 4)
        kind = rng.choice(("gauss", "arrow", "degenerate"))
        if kind == "gauss":
            d = random_gauss_diagram(rng, n, K)
        elif kind == "arrow":
            d = random_arrow_diagram(rng, n, K)
        else:
            d = DegenerateDiagram(random_based_diagram(rng, max(n, 2), K))
        text = textio.print_diagram(d)
        assert textio.parse_diagram(text) == d
        # byte stability
        assert textio.print_diagram(textio.parse_diagram(text)) == text


def test_lincomb_round_trip():
    rng = seeded(42)
    for _ in range(60):
        vec = LinComb(
            (
                random_arrow_diagram(rng, rng.randint(1, 3), 2),
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
            )
            for _ in range(rng.randint(1, 4))
        )
        text = textio.print_lincomb(vec)
        assert textio.parse_lincomb(text) == vec
        assert textio.print_lincomb(textio.parse_lincomb(text)) == text


def test_formula_round_trip():
    f = gv_formula(2, (1, 1, 3))
    text = textio.print_formula(f)
    f2 = textio.parse_formula(text)
    assert f2 == f
    assert textio.print_formula(f2) == text


def test_zero_formula_round_trip():
    f = Formula(LinComb.zero(), 3)
    text = textio.print_formula(f)
    assert textio.parse_formula(text).vector == LinComb.zero()


def test_basis_round_trip():
    basis = [gv_formula(2, (1, 1, 3)), gv_formula(2, (2, 1, 2))]
    text = textio.print_basis(basis)
    assert textio.parse_basis(text) == basis


def test_parse_errors_carry_line_numbers():
    with pytest.raises(textio.ParseError) as e:
        textio.parse_diagram("")
    assert e.value.lineno == 1
    with pytest.raises(textio.ParseError):
        textio.parse_diagram("gauss K=2 n=1\ntail=0 head=1 mark=0")  # no sign
    with pytest.raises(textio.ParseError):
        textio.parse_diagram("arrow K=2 n=2\ntail=0 head=1 mark=0")  # short
    with pytest.raises(textio.ParseError):
        textio.parse_diagram("blob K=2 n=0")
    with pytest.raises(textio.ParseError):
        textio.parse_formula("formula K=x")
    with pytest.raises(textio.ParseError):
        textio.parse_formula(
            "formula K=3\ncoef=1\narrow K=2 n=1\ntail=0 head=1 mark=0"
        )  # K mismatch
    with pytest.raises(textio.ParseError):
        textio.parse_lincomb("coef=1/0\narrow K=2 n=0")
    with pytest.raises(textio.ParseError):
        textio.parse_basis("formula K=2")
    text = textio.print_basis([gv_formula(2, (1, 1, 3)), gv_formula(2, (2, 1, 2))])
    with pytest.raises(textio.ParseError):
        textio.parse_basis(text.replace("count=2", "count=3"))
    with pytest.raises(textio.ParseError):
        textio.parse_basis(text[: text.rindex("formula K=")])  # truncated


def test_formula_terms_must_be_sign_free():
    bad = "formula K=2\ncoef=1\ngauss K=2 n=1\ntail=0 head=1 sign=+ mark=0"
    with pytest.raises(textio.ParseError):
        textio.parse_formula(bad)


_KINK = "arrow K=2 n=1\ntail=0 head=1 mark=0"


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        # a bad marking on file line 7, after two blank lines
        (textio.parse_formula,
         "\n\nformula K=2\ncoef=1/1\narrow K=2 n=2\ntail=0 head=2 mark=1\ntail=1 head=3 mark=q",
         7),
        # a bad coefficient on line 7, in the second formula of a basis
        (textio.parse_basis,
         "basis count=2\nformula K=2\ncoef=1/1\n%s\nformula K=2\ncoef=1/x\n%s" % (_KINK, _KINK),
         7),
        # a signed term: the line of its diagram header
        (textio.parse_formula,
         "formula K=2\ncoef=1\n%s\n---\n\ncoef=1\ngauss K=2 n=1\ntail=0 head=1 sign=+ mark=0"
         % _KINK,
         8),
        # a term whose K differs from the header's, in a basis file
        (textio.parse_basis,
         "basis count=1\n\nformula K=3\ncoef=1\narrow K=3 n=0\n---\ncoef=2\n%s" % _KINK,
         8),
        (textio.parse_basis, "basis count=1\n\n\ncoef=1\nformula K=2", 4),
        (textio.parse_formula, "\n\nformula\n", 3),
        (textio.parse_diagram, "\n%s\n\nextra" % _KINK, 5),
        (textio.parse_diagram, "\narrow K=2 n=2\n\ntail=0 head=1 mark=0\n\n", 4),
        # a coefficient with no diagram after it: the line of the coefficient
        (textio.parse_lincomb, "coef=1", 1),
        (textio.parse_formula, "formula K=2\ncoef=1\n%s\n---\n\ncoef=2" % _KINK, 7),
        # a negative arrow count: the line of the diagram header
        (textio.parse_formula, "formula K=2\ncoef=1/1\n\narrow K=2 n=-1", 4),
    ],
)
def test_parse_errors_name_the_file_line(parse, text, lineno):
    with pytest.raises(textio.ParseError) as e:
        parse(text)
    assert e.value.lineno == lineno
    assert str(e.value).startswith("line %d: " % lineno)
