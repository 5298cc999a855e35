"""Formal linear combinations of canonical diagrams over exact rationals,
and Formula: a combination of arrow diagrams with one global marking, the
object the solver returns and engine evaluates and checks.  Formula is
defined here; engine and the package import it from this module."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .diagrams import ArrowDiagram, DiagramError, GaussDiagram


class LinComb:
    """Finite map {canonical diagram -> nonzero Fraction}.

    Keys may be any hashable diagram species; mixing species in one
    combination is the caller's bug and is not policed here.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                c = Fraction(c)
                if c:
                    acc[k] = acc.get(k, Fraction(0)) + c
                    if not acc[k]:
                        del acc[k]
        self.terms = acc

    @classmethod
    def single(cls, key, coeff=1):
        return cls([(key, coeff)])

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        return "LinComb(%s)" % ", ".join("%s*%r" % (c, k) for k, c in sorted(self.terms.items(), key=lambda t: t[0]))

    def coeff(self, key):
        return self.terms.get(key, Fraction(0))

    def items(self):
        return self.terms.items()

    def keys(self):
        return self.terms.keys()

    @classmethod
    def _of(cls, terms):
        """Wrap a dict of nonzero coefficients without copying it."""
        r = cls.__new__(cls)
        r.terms = terms
        return r

    def __add__(self, other):
        out = dict(self.terms)
        _add_into(out, other.terms)
        return LinComb._of(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LinComb()
        return LinComb._of({k: v * c for k, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def map_terms(self, f):
        """f(key, coeff) -> LinComb; sum the images (linear extension)."""
        out = {}
        for k, c in self.terms.items():
            _add_into(out, f(k, c).terms)
        return LinComb._of(out)

    def filtered(self, pred):
        return LinComb((k, c) for k, c in self.terms.items() if pred(k))

    def normalized(self):
        """Scale so the coefficient of the least key is 1 (for dedup)."""
        if not self.terms:
            return self
        lead = min(self.terms)
        return self.scale(1 / self.terms[lead])


def _add_into(acc, terms):
    """acc += terms in place, dropping keys whose coefficient cancels."""
    for k, c in terms.items():
        s = acc.get(k, Fraction(0)) + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def as_lincomb(x):
    return x if isinstance(x, LinComb) else LinComb.single(x)


class Formula:
    """A rational combination of arrow diagrams sharing one global marking.

    Pairing it with the subdiagram expansion of a Gauss diagram (see
    `engine.evaluate`) gives a number; the solver produces formulas for
    which that number is a virtual knot invariant."""

    __slots__ = ("vector", "K", "_table")

    def __init__(self, vector, K):
        vector = as_lincomb(vector)
        for k in vector.keys():
            if not isinstance(k, ArrowDiagram) or isinstance(k, GaussDiagram):
                raise DiagramError("formula keys must be arrow diagrams")
            if k.K != K:
                raise DiagramError(
                    "formula term has global marking %d, expected %d" % (k.K, K)
                )
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "K", int(K))
        object.__setattr__(self, "_table", None)

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")

    def degrees(self):
        return sorted({k.n for k in self.vector.keys()})

    def table(self):
        """(denominator, {degree: (marks, mark multisets, {key: weight})}),
        built on the first call and kept: the one integer table
        `engine.evaluate` scores subsets against.

        The denominator is the least common denominator of the
        coefficients, and a term's weight is the int coefficient * |Aut| *
        denominator.  The keys of a term are the sorted (tail, head, mark)
        tuples of all its rotations, so a subdiagram renumbered onto
        0..2deg-1 from any starting point is a key of its term, and of no
        other.  A degree's marks are those its terms carry, and its mark
        multisets are the sorted mark tuples of its terms: a subset holding
        another mark, or whose sorted marks are not among them, matches no
        key."""
        if self._table is None:
            den = lcm(*(c.denominator for c in self.vector.terms.values()))
            table = {}
            for k, c in self.vector.items():
                marks, marksets, terms = table.setdefault(k.n, (set(), set(), {}))
                marks.update(a[2] for a in k.arrows)
                marksets.add(tuple(sorted(a[2] for a in k.arrows)))
                size = 2 * k.n
                weight = int(c * den) * k.aut_order()
                for r in range(max(1, size)):
                    rotated = (((t - r) % size, (h - r) % size, m) for t, h, m, _s in k.arrows)
                    terms[tuple(sorted(rotated))] = weight
            object.__setattr__(self, "_table", (den, table))
        return self._table

    def markings(self):
        return sorted({a[2] for k in self.vector.keys() for a in k.arrows})

    def __eq__(self, other):
        return (
            isinstance(other, Formula)
            and self.K == other.K
            and self.vector == other.vector
        )

    def __hash__(self):
        return hash((self.K, self.vector))

    def __bool__(self):
        return bool(self.vector)

    def __repr__(self):
        return "Formula(K=%d, %d terms, degrees %s)" % (
            self.K, len(self.vector), self.degrees(),
        )
