"""Shared random-diagram generators for the test suite, span queries over
sparse rational vectors, the kernel of a diagram-indexed matrix, and the
boundary route to the formula space."""

import random

from arrowforms.boundary import boundary_d
from arrowforms.diagrams import ArrowDiagram, BasedDiagram, GaussDiagram
from arrowforms.engine import normalization_window
from arrowforms.lincomb import LinComb
from arrowforms.ratlinalg import DiagramIndexedMatrix, Echelon, _int_row, index_kernel
from arrowforms.relations import enumerate_diagrams, gen_family

DEFAULT_MARKS = tuple(range(-2, 4))


def random_arrows(rng, n, marks=DEFAULT_MARKS, signed=False):
    pos = list(range(2 * n))
    rng.shuffle(pos)
    return [
        (
            pos[2 * i],
            pos[2 * i + 1],
            rng.choice(marks),
            rng.choice((1, -1)) if signed else 0,
        )
        for i in range(n)
    ]


def random_arrow_diagram(rng, n, K, marks=DEFAULT_MARKS):
    return ArrowDiagram(K, random_arrows(rng, n, marks))


def random_gauss_diagram(rng, n, K, marks=DEFAULT_MARKS):
    return GaussDiagram(K, random_arrows(rng, n, marks, signed=True))


def random_based_diagram(rng, n, K, marks=DEFAULT_MARKS):
    d = random_arrow_diagram(rng, n, K, marks)
    return BasedDiagram(d, rng.randrange(2 * d.n))


def seeded(seed=0):
    return random.Random(seed)


def echelon_of(rows):
    """Echelon of a list of sparse vectors, prebuilt for repeated spans
    queries."""
    ech = Echelon()
    for r in rows:
        ech.insert(_int_row(r))
    return ech


def spans(ech, v):
    """True iff the sparse vector v lies in the span of the rows stored in
    the Echelon ech."""
    return not ech.reduce(_int_row(v))


def kernel(m):
    """Basis of {v : m v = 0} for a DiagramIndexedMatrix m, as LinComb
    vectors over m.columns (see ratlinalg.index_kernel)."""
    index = {c: i for i, c in enumerate(m.columns)}
    rows = [{index[k]: v for k, v in row.items()} for row in m.rows]
    return [
        LinComb((m.columns[i], c) for i, c in row.items())
        for row in index_kernel(rows, len(m.columns))
    ]


def boundary_route(n, window):
    """The degree-n formula space by the paper's second route: the kernel
    of the kink and bigon rows (ap1, ap2) restricted to the window's
    columns and rescaled by |Aut|, together with the rows of the boundary
    map d normalized over normalization_window(window).  Its vectors are
    LinCombs over the columns, in the order kernel gives."""
    cols = enumerate_diagrams("arrow", n, window)
    colset = set(cols)
    rows = []
    for fam in ("ap1", "ap2"):
        for inst in gen_family(fam, n, window, closure=False):
            r = LinComb(
                (k, c * k.aut_order()) for k, c in inst.vector.items() if k in colset
            )
            if r:
                rows.append(r)
    wide = normalization_window(window)
    drows = {}
    for D in cols:
        for M, c in boundary_d(LinComb.single(D), wide).items():
            drows.setdefault(M, []).append((D, c))
    rows += [LinComb(v) for v in drows.values()]
    return kernel(DiagramIndexedMatrix(cols, rows))
