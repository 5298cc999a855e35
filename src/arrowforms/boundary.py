"""The boundary map d on arrow combinations.

d sends an arrow diagram to the signed sum, over all nice basings, of the
based diagram shrunk at its base arc, viewed in the quotient of the
degenerate-diagram space by the triangle relations.  Monotonic diagrams
form a basis of that quotient; normalization rewrites every non-monotonic
diagram through its (unique) triangle relation.

The triangle relations themselves are not postulated: they are computed
from the triple-point move models.  A degenerate diagram whose fused
endpoints come from two different arrows remembers an adjacent crossing
pair, i.e. two crossings meeting along a shared strand; completing that
pair to a full triple-point configuration (in every admissible way) yields
a 6-term based relation, and shrinking it expresses the non-monotonic
diagram in monotonic ones.

a6t_based, based_6T_pairing_check and gen_degenerate_family (the triangle
and based6t families) are kept as API for checking the paper's statements;
the program itself calls boundary_d only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    DiagramError,
    arrows_cross,
)
from .lincomb import LinComb, _add_into, as_lincomb
from .maps import base_expand, pair_ortho
from .moves import HEAD
from .relations import (
    _PAIRS,
    _assemble_term,
    _in_window,
    _six_term_coeff,
    RelationInstance,
    enumerate_diagrams,
    r3_pair_matches,
)


class NormalizationError(DiagramError):
    """A triangle rewrite would need diagrams outside the marking window,
    or a diagram has no triple-point completion to rewrite it with."""


def is_nice(b):
    """True iff the endpoints bounding the base arc belong to two arrows."""
    (i1, _r1), (i2, _r2) = b.boundary_endpoints()
    return i1 != i2


def eta(b):
    """+1 if the two arrows bounding the base arc cross, else -1."""
    (i1, _r1), (i2, _r2) = b.boundary_endpoints()
    if i1 == i2:
        raise DiagramError("eta is defined for nice based diagrams only")
    return 1 if arrows_cross(b.arrows[i1], b.arrows[i2]) else -1


def head_count(b):
    """How many of the two base-arc boundary endpoints are arrowheads."""
    (_i1, r1), (_i2, r2) = b.boundary_endpoints()
    return (r1 == HEAD) + (r2 == HEAD)


def epsilon(b):
    return eta(b) * (-1) ** head_count(b)


def d_based(b):
    """epsilon(b) times the shrunk diagram; 0 when the basing is not nice."""
    if not is_nice(b):
        return LinComb.zero()
    return LinComb.single(DegenerateDiagram(b), epsilon(b))


# ---------------------------------------------------------------------------
# parent triple-point configurations of a degenerate diagram


def _based_term(m, pair, side):
    """The based diagram of one two-crossing term of match m, based at the
    shared arc."""
    shared = next(
        s for s in range(3)
        if sum(1 for (c, _r) in m.model.words[side][s] if c in pair) == 2
    )
    arrows, anchor = _assemble_term(m, pair, side)
    # a based diagram has no rotation freedom: rotate the assembled word so
    # the shared arc sits between positions 2n-1 and 0, no canonical form
    size = 2 * len(arrows)
    shift = lambda p: (p - anchor[shared] - 1) % size
    return BasedDiagram.from_word(
        m.host.K, [(shift(t), shift(h), mark, s) for (t, h, mark, s) in arrows]
    )


def _pair_is_monotonic(model, pair):
    """True iff the pair's endpoints on the shared strand are a head and a
    tail (side-independent: the two sides only reverse the order)."""
    for s in range(3):
        grp = [(c, r) for (c, r) in model.words["L"][s] if c in pair]
        if len(grp) == 2:
            return grp[0][1] != grp[1][1]
    raise AssertionError("pair shares no strand")


def _parents_at(D, arc):
    """Parent triple-point instances whose collision at `arc` matches.

    Yields (parent_key, based_terms, mu) where based_terms maps
    (pair, side) -> (BasedDiagram, transport coefficient) and mu normalizes
    the relation so a direct basing of the monotonic shrink carries its
    epsilon."""
    b0 = BasedDiagram(D, arc)
    for m in r3_pair_matches(D, positions=[arc]):
        terms = {}
        for pair in _PAIRS:
            for side in ("L", "R"):
                bt = _based_term(m, pair, side)
                terms[(pair, side)] = (bt, _six_term_coeff(m.model, side, pair, D.signed))
        direct = (tuple(sorted(m.present)), m.side)
        if terms[direct][0] != b0:
            raise AssertionError("matched term does not rebuild its own basing")
        mono = next(p for p in _PAIRS if _pair_is_monotonic(m.model, p))
        bL, cL = terms[(mono, "L")]
        bR, cR = terms[(mono, "R")]
        mu = Fraction(epsilon(bL), cL)
        if mu != Fraction(epsilon(bR), cR):
            raise AssertionError("inconsistent normalization across move sides")
        if DegenerateDiagram(bL) != DegenerateDiagram(bR):
            raise AssertionError("the two monotonic basings shrink differently")
        key = frozenset((bt, mu * c) for bt, c in terms.values())
        yield key, terms, mu, mono, direct


def _shrink_arcs(dd):
    """Arcs of the underlying diagram whose shrinking gives dd."""
    D = ArrowDiagram(dd.K, dd.arrows)
    return D, [
        arc for arc in range(2 * D.n) if DegenerateDiagram(BasedDiagram(D, arc)) == dd
    ]


def a6t_based(dd):
    """The based 6-term combination attached to a monotonic diagram."""
    if not dd.is_monotonic():
        raise DiagramError("based 6-term combinations attach to monotonic diagrams")
    D, arcs = _shrink_arcs(dd)
    vectors = set()
    for arc in arcs:
        for key, _terms, _mu, _mono, _direct in _parents_at(D, arc):
            vectors.add(key)
    if not vectors:
        raise NormalizationError(
            "no triple-point completion for %r" % (dd,)
        )
    if len(vectors) > 1:
        raise AssertionError("monotonic diagram with several parent instances")
    # a frozenset iterates in hash order, which varies between runs
    return LinComb(sorted(vectors.pop()))


def triangle_relation(dd):
    """The unique relation containing the non-monotonic diagram dd, as a
    vector with coefficient 1 on dd.  Fused endpoints of a single arrow give
    the one-term relation dd = 0."""
    if dd.is_monotonic():
        raise DiagramError("monotonic diagrams are basis elements, not rewritable")
    (bi, _br), (ai, _ar) = dd.fused()
    if bi == ai:
        return LinComb.single(dd)
    D, arcs = _shrink_arcs(dd)
    rewrites = {}
    for arc in arcs:
        b = BasedDiagram(D, arc)
        eps = epsilon(b)
        for key, terms, mu, mono, direct in _parents_at(D, arc):
            target = DegenerateDiagram(terms[(mono, "L")][0])
            _bt, c = terms[direct]
            u = Fraction(mu * c, eps)
            if key in rewrites:
                if rewrites[key] != (target, u):
                    raise AssertionError("parent relation disagrees between basings")
            else:
                rewrites[key] = (target, u)
    if not rewrites:
        raise NormalizationError(
            "no triangle relation for %r" % (dd,)
        )
    out = {dd: Fraction(1)}
    for target, u in rewrites.values():
        _add_into(out, {target: -u})
    return LinComb._of(out)


@cache
def _triangle_rewrite(dd, window):
    """dd (non-monotonic) as a combination of monotonic diagrams."""
    out = {dd: Fraction(1)}
    _add_into(out, triangle_relation(dd).scale(-1).terms)
    out = LinComb._of(out)
    if not _in_window(out, window):
        raise NormalizationError(
            "rewriting %r needs a marking outside the window" % (dd,)
        )
    for k in out.keys():
        if not k.is_monotonic():
            raise AssertionError("triangle rewrite produced a non-monotonic diagram")
    return out


def normalize_triangle(x, window):
    """Rewrite every non-monotonic key into the monotonic basis.

    Out-of-window rewrites raise NormalizationError rather than dropping
    terms.  Keys are processed in canonical order for reproducibility."""
    x = as_lincomb(x)
    out = {}
    for dd in sorted(x.keys()):
        c = x.coeff(dd)
        if dd.is_monotonic():
            _add_into(out, {dd: c})
        else:
            _add_into(out, _triangle_rewrite(dd, window).scale(c).terms)
    return LinComb._of(out)


def boundary_d(a, window):
    """d on arrow combinations: all nice basings, shrunk with epsilon, in
    the monotonic basis."""
    raw = base_expand(a).map_terms(lambda b, c: d_based(b).scale(c))
    return normalize_triangle(raw, window)


def based_6T_pairing_check(b, dd, window):
    """Duality check (d(b), dd) = (b, based-6T(dd)) for monotonic dd."""
    lhs = pair_ortho(normalize_triangle(d_based(b), window), LinComb.single(dd))
    try:
        rel = a6t_based(dd)
    except NormalizationError:
        rel = LinComb.zero()
    rhs = rel.coeff(b)
    return lhs == rhs


# ---------------------------------------------------------------------------
# relation-family generation (triangle, based 6-term)


def gen_degenerate_family(family, n, window, skipped=None):
    """gen_family for the triangle and based6t tags."""
    if skipped is None:
        skipped = {}
    seen = {}
    for D in enumerate_diagrams("arrow", n, window):
        for arc in range(2 * D.n):
            b = BasedDiagram(D, arc)
            dd = DegenerateDiagram(b)
            try:
                if family == "triangle":
                    if dd.is_monotonic():
                        continue
                    vec = triangle_relation(dd)
                    if not _in_window(vec, window):
                        raise NormalizationError("out of window")
                elif family == "based6t":
                    if not is_nice(b) or not dd.is_monotonic():
                        continue
                    vec = a6t_based(dd)
                else:
                    raise ValueError("unknown family tag %r" % family)
            except NormalizationError:
                skipped[family] = skipped.get(family, 0) + 1
                continue
            inst = RelationInstance(family, vec)
            seen.setdefault(inst.key(), inst)
    return sorted(seen.values(), key=lambda r: r.key())
