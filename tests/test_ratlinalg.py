"""Exact linear algebra against a dense Fraction-elimination oracle."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from arrowforms.lincomb import LinComb
from arrowforms.ratlinalg import DiagramIndexedMatrix, echelon_of, kernel


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
    assert echelon_of(vecs).spans(v) == expected


def test_zero_vector_edge_cases():
    assert echelon_of([LinComb.zero()]).rank() == 0
    assert echelon_of([]).spans(LinComb.zero())
    m = DiagramIndexedMatrix(["a", "b"], [])
    basis = kernel(m)
    assert len(basis) == 2
