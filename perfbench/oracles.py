"""Independent correctness oracles for the benchmark.

Nothing here imports the program: the oracles take plain integers,
fractions and arrow tuples, so a fault in the program's elimination or
evaluation code cannot hide itself by agreeing with its own copy.

  * rank_mod_p: rank over GF(p) for a large prime p (sparse rows).
  * dense_rref / dense_kernel / DenseSpan / same_span: dense exact
    fraction-free Gauss-Jordan elimination over the rationals.
  * brute_value: the subset-counting value of an arrow formula on a signed
    chord diagram, by comparing arrow sets under every rotation.

`selftest()` runs each oracle on small hand-made cases with known answers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

PRIME = (1 << 61) - 1  # a Mersenne prime


# ---------------------------------------------------------------------------
# GF(p) rank


def _mod(c, p):
    c = Fraction(c)
    return c.numerator % p * pow(c.denominator % p, -1, p) % p


def rank_mod_p(rows, p=PRIME):
    """Rank over GF(p) of sparse rows given as {column: rational}.

    Columns may be any hashable keys; they are numbered in first-seen order,
    which fixes the pivot order without relying on the keys' own ordering."""
    index = {}
    pivots = {}
    for row in rows:
        r = {}
        for k, c in row.items():
            v = _mod(c, p)
            if v:
                r[index.setdefault(k, len(index))] = v
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[lead]
            for k, v in prow.items():
                nv = (r.get(k, 0) - f * v) % p
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# dense exact elimination


def _dense(rows, columns):
    """Integer rows over `columns`: each rational row scaled by the lcm of
    its denominators, which keeps its span."""
    pos = {c: i for i, c in enumerate(columns)}
    out = []
    for row in rows:
        v = [Fraction(0)] * len(columns)
        for k, c in row.items():
            v[pos[k]] += Fraction(c)
        den = lcm(*(x.denominator for x in v)) if v else 1
        out.append([int(x * den) for x in v])
    return out


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def dense_rref(matrix):
    """Fraction-free Gauss-Jordan form of a list of equal-length integer rows.

    Returns (rows, pivot_columns) with the zero rows dropped; row i has its
    pivot at pivot_columns[i] and zeros in every other pivot column."""
    m = [_primitive(list(r)) for r in matrix]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([a * p - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
    return m[:r], pivots


def dense_kernel(rows, columns):
    """Basis of {x : row . x = 0 for every row}, as {column: Fraction}."""
    red, pivots = dense_rref(_dense(rows, columns)) if rows else ([], [])
    free = [c for c in range(len(columns)) if c not in set(pivots)]
    basis = []
    for f in free:
        x = {columns[f]: Fraction(1)}
        for row, p in zip(red, pivots):
            if row[f]:
                x[columns[p]] = Fraction(-row[f], row[p])
        basis.append(x)
    return basis


def dense_rank(rows, columns):
    return len(dense_rref(_dense(rows, columns))[1]) if rows else 0


class DenseSpan:
    """Rational span of sparse rows, reduced once for many membership tests."""

    def __init__(self, rows):
        self.columns = sorted({k for r in rows for k in r}, key=repr)
        self.rows, self.pivots = dense_rref(_dense(rows, self.columns)) if rows else ([], [])

    def __contains__(self, v):
        known = set(self.columns)
        if any(c and k not in known for k, c in v.items()):
            return False
        x = _dense([{k: c for k, c in v.items() if c}], self.columns)[0]
        for row, p in zip(self.rows, self.pivots):
            f = x[p]
            if f:
                x = _primitive([a * row[p] - f * b for a, b in zip(x, row)])
        return not any(x)


def same_span(a, b):
    """True iff two lists of sparse vectors span the same rational space."""
    columns = sorted({k for r in list(a) + list(b) for k in r}, key=repr)
    ra, rb = dense_rank(a, columns), dense_rank(b, columns)
    return ra == rb == dense_rank(list(a) + list(b), columns)


# ---------------------------------------------------------------------------
# brute-force evaluation


def _rotation_sets(arrows):
    """Arrow sets {(tail, head, mark)} of all rotations, with multiplicity."""
    size = 2 * len(arrows)
    return Counter(
        frozenset(((t + r) % size, (h + r) % size, m) for (t, h, m) in arrows)
        for r in range(size)
    )


def brute_value(terms, knot):
    """Value of an arrow formula on a signed chord diagram.

    terms: [(arrows, coefficient)] with arrows as (tail, head, mark) tuples;
    knot: [(tail, head, mark, sign)].  Every subset of the knot's arrows is
    renumbered to positions 0..2k-1 and compared, as a set of arrows, with
    every rotation of every term.  A term A then counts |Aut(A)| times for
    each subset isomorphic to it, times the product of the subset's signs,
    which is the subset-counting bracket <<A, G>>."""
    weight = {}
    for arrows, c in terms:
        for key, mult in _rotation_sets(arrows).items():
            weight[key] = weight.get(key, 0) + Fraction(c) * mult
    total = Fraction(0)
    for deg in sorted({len(a) for a, _c in terms}):
        for sub in combinations(knot, deg):
            pos = sorted(p for (t, h, _m, _s) in sub for p in (t, h))
            renum = {p: q for q, p in enumerate(pos)}
            key = frozenset((renum[t], renum[h], m) for (t, h, m, _s) in sub)
            w = weight.get(key)
            if w:
                sign = 1
                for a in sub:
                    sign *= a[3]
                total += w * sign
    return total


# ---------------------------------------------------------------------------
# self-tests


def selftest():
    """Known answers for every oracle; returns a list of failure messages."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append("%s: got %r, expected %r" % (name, got, want))

    rows = lambda mat: [dict(enumerate(r)) for r in mat]
    expect("rank_mod_p dependent pair", rank_mod_p(rows([[1, 2], [2, 4]])), 1)
    expect("rank_mod_p sum row", rank_mod_p(rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])), 2)
    expect("rank_mod_p fractions", rank_mod_p(rows([[Fraction(1, 2), 1], [1, 2]])), 1)
    expect("rank_mod_p identity", rank_mod_p(rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])), 3)
    expect("rank_mod_p multiple of p", rank_mod_p(rows([[PRIME, 0], [0, 3]])), 1)

    ker = dense_kernel(rows([[1, 1, 0], [0, 1, 1]]), [0, 1, 2])
    expect("dense_kernel path", ker, [{2: 1, 0: 1, 1: -1}])
    expect("dense_kernel empty rows", len(dense_kernel([], ["a", "b"])), 2)
    expect("DenseSpan member", {0: 2, 1: 3} in DenseSpan(rows([[1, 1], [0, 1]])), True)
    expect("DenseSpan non-member", {0: 1, 1: 2} in DenseSpan(rows([[1, 1, 0]])), False)
    expect("DenseSpan new column", {2: 1} in DenseSpan(rows([[1, 1]])), False)
    expect("same_span yes", same_span(rows([[1, 1], [1, -1]]), rows([[1, 0], [0, 1]])), True)
    expect("same_span no", same_span(rows([[1, 1]]), rows([[1, -1]])), False)

    # one arrow of each marking on a two-arrow knot: their signs
    knot = [(0, 2, 1, 1), (1, 3, 2, -1)]
    expect("brute_value mark 1", brute_value([(((0, 1, 1),), 1)], knot), 1)
    expect("brute_value mark 2", brute_value([(((1, 0, 2),), 1)], knot), -1)
    # the crossing pair itself: one subset, sign +1 * -1
    expect("brute_value crossing", brute_value([(((0, 2, 1), (1, 3, 2)), 3)], knot), -3)
    # two parallel kinks have |Aut| = 2: one subset counted twice
    kinks = [(0, 1, 4, 1), (2, 3, 4, 1)]
    expect("brute_value automorphism", brute_value([(((0, 1, 4), (2, 3, 4)), 1)], kinks), 2)
    expect("brute_value no match", brute_value([(((0, 2, 4), (1, 3, 4)), 1)], kinks), 0)
    return bad
