"""Exact sparse linear algebra over the rationals, indexed by diagrams.

Rows are sparse mappings from orderable keys (canonical diagrams, their
canonical arrow tuples, or plain column indices) to rationals.  Elimination
is fraction-free: every stored row is an integer row with content 1, so
entries stay small and all results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_row(vec):
    """Clear denominators and strip the content; dict key -> int."""
    row = {k: Fraction(c) for k, c in vec.items()}
    mult = lcm(*(c.denominator for c in row.values()))
    return _strip({k: int(c * mult) for k, c in row.items()})


def _strip(row):
    row = {k: v for k, v in row.items() if v}
    if not row:
        return row
    g = gcd(*(abs(v) for v in row.values()))
    if g > 1:
        row = {k: v // g for k, v in row.items()}
    return row


def primitive(row):
    """The normal form of an integer row up to scale: the content stripped
    and the entry at the least key made positive.  Two nonzero rows are
    proportional iff their primitive rows are equal."""
    row = _strip(row)
    if row and row[min(row)] < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _eliminate(row, prow, lead):
    """`row` with the pivot row `prow` cancelled at key `lead`, fraction
    free, content stripped."""
    a, b = row[lead], prow[lead]
    new = {k: b * v for k, v in row.items()}
    for k, v in prow.items():
        new[k] = new.get(k, 0) - a * v
    return _strip(new)


class Echelon:
    """Incremental fraction-free row echelon form, pivots keyed by the
    smallest key in each stored row."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        """Row with all pivot keys eliminated (content-stripped)."""
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in self.pivots:
                break
            row = _eliminate(row, self.pivots[lead], lead)
        return row

    def insert(self, row):
        """Reduce and store; returns True when the row added rank."""
        row = self.reduce(_strip(dict(row)))
        if not row:
            return False
        self.pivots[min(row)] = row
        return True

    def rank(self):
        return len(self.pivots)

    def back_substitute(self):
        """Make every pivot column the only nonzero in its pivot row."""
        for lead in sorted(self.pivots, reverse=True):
            prow = self.pivots[lead]
            for other_lead, orow in self.pivots.items():
                if other_lead >= lead or lead not in orow:
                    continue
                self.pivots[other_lead] = _eliminate(orow, prow, lead)


class DiagramIndexedMatrix:
    """Sparse rational matrix whose columns are canonical diagrams."""

    __slots__ = ("columns", "rows", "_colset")

    def __init__(self, columns, rows=()):
        self.columns = list(columns)
        self._colset = set(self.columns)
        if len(self._colset) != len(self.columns):
            raise ValueError("duplicate columns")
        self.rows = []
        for r in rows:
            self.add_row(r)

    def add_row(self, vec):
        row = _int_row(vec)
        if any(k not in self._colset for k in row):
            raise ValueError("row supported outside the column list")
        self.rows.append(row)


def index_kernel(rows, ncols):
    """Basis of {v : r . v = 0 for every row r}, for integer rows keyed by
    column index 0..ncols-1, as integer vectors {index: int}.

    Each basis vector has content 1 and a positive entry at its smallest
    support index.  The basis depends on the row space and the column
    order only, not on the order or scale of the rows."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    ech.back_substitute()
    pivot_cols = sorted(ech.pivots)
    free_cols = [i for i in range(ncols) if i not in ech.pivots]
    basis = []
    for f in free_cols:
        holding = {p: ech.pivots[p] for p in pivot_cols if f in ech.pivots[p]}
        mult = lcm(*(prow[p] for p, prow in holding.items()))
        vec = {f: mult}
        for p, prow in holding.items():
            vec[p] = -prow[f] * mult // prow[p]
        basis.append(primitive(vec))
    return basis

