"""Exact linear algebra against a dense Fraction-elimination oracle."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from arrowforms.lincomb import LinComb
from arrowforms.ratlinalg import (
    DiagramIndexedMatrix,
    Echelon,
    index_kernel,
    primitive,
)

from conftest import echelon_of, kernel, spans


def _oracle_rank(rows, ncols):
    mat = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)


def _as_lincombs(rows):
    cols = list(range(len(rows[0])))
    return cols, [
        LinComb((c, v) for c, v in zip(cols, r) if v) for r in rows
    ]


@given(matrices)
def test_rank_matches_oracle(rows):
    _cols, vecs = _as_lincombs(rows)
    assert echelon_of(vecs).rank() == _oracle_rank(rows, len(rows[0]))


@given(matrices)
@settings(max_examples=60)
def test_kernel_properties(rows):
    cols, vecs = _as_lincombs(rows)
    m = DiagramIndexedMatrix(cols, vecs)
    basis = kernel(m)
    # dimension from the rank-nullity identity
    assert len(basis) == len(cols) - _oracle_rank(rows, len(rows[0]))
    for v in basis:
        # annihilated by every row
        for r in vecs:
            assert sum(r.coeff(c) * v.coeff(c) for c in cols) == 0
        # integer entries, content one, positive leading coefficient
        ints = [v.coeff(c) for c in sorted(v.keys())]
        assert all(x.denominator == 1 for x in map(Fraction, ints))
        g = 0
        for x in ints:
            g = gcd(g, int(x))
        assert g == 1
        lead = v.coeff(min(v.keys()))
        assert lead > 0
    # linear independence
    assert echelon_of(basis).rank() == len(basis)


@given(matrices, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_in_span_matches_rank_test(rows, extra):
    _cols, vecs = _as_lincombs(rows)
    v = LinComb((c, x) for c, x in zip(range(4), extra) if x)
    expected = _oracle_rank(rows + [extra], 4) == _oracle_rank(rows, 4)
    assert spans(echelon_of(vecs), v) == expected


def test_zero_vector_edge_cases():
    assert echelon_of([LinComb.zero()]).rank() == 0
    assert spans(echelon_of([]), LinComb.zero())
    m = DiagramIndexedMatrix(["a", "b"], [])
    basis = kernel(m)
    assert len(basis) == 2


def _fraction_kernel(rows, ncols):
    """index_kernel's basis built in Fractions: from the back-substituted
    echelon, each free column f gives the vector with 1 at f and
    -prow[f] / prow[p] at the pivot p of every pivot row holding f, scaled
    to integers with content 1 and a positive entry at its least index."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    ech.back_substitute()
    basis = []
    for f in range(ncols):
        if f in ech.pivots:
            continue
        vec = {f: Fraction(1)}
        for p in sorted(ech.pivots):
            prow = ech.pivots[p]
            if f in prow:
                vec[p] = Fraction(-prow[f], prow[p])
        mult = lcm(*(c.denominator for c in vec.values()))
        ints = {k: int(c * mult) for k, c in vec.items()}
        g = gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        basis.append({k: v // g for k, v in ints.items()})
    return basis


@st.composite
def row_sets(draw):
    """(ncols, rows): up to 8 columns; integer rows {column: int} with
    negative entries, zero rows and proportional copies, shuffled."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=7))
    if rows:
        copies = st.tuples(st.integers(0, len(rows) - 1), st.integers(-5, 5))
        rows += [[c * x for x in rows[i]] for i, c in draw(st.lists(copies, max_size=3))]
    if draw(st.booleans()):
        rows.append([0] * ncols)
    rows = draw(st.permutations(rows))
    return ncols, [dict(enumerate(r)) for r in rows]


@given(row_sets())
@settings(max_examples=200)
def test_index_kernel_matches_the_fraction_construction(case):
    ncols, rows = case
    expected = _fraction_kernel(rows, ncols)
    assert index_kernel(rows, ncols) == expected
    # the basis depends on the row space, not on the order or scale of rows
    flipped = [{k: -3 * v for k, v in r.items()} for r in reversed(rows)]
    assert index_kernel(flipped, ncols) == expected


int_rows = st.dictionaries(st.integers(0, 7), st.integers(-30, 30), max_size=8)


@given(int_rows, st.integers(-6, 6).filter(bool))
def test_primitive_is_the_normal_form_up_to_scale(row, c):
    p = primitive(row)
    assert primitive(p) == p
    assert primitive({k: c * v for k, v in row.items()}) == p
    support = {k for k, v in row.items() if v}
    assert set(p) == support
    if support:
        assert gcd(*p.values()) == 1
        assert p[min(p)] > 0
        first = min(support)
        assert all(v * p[first] == p.get(k, 0) * row[first] for k, v in row.items())
