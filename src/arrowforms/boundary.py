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

Everything runs on one tuple core.  A basing is a based word: the arrows
rotated so that the base arc sits between positions 2n-1 and 0, ordered by
first endpoint (diagrams._based_word).  Its shrink is the key of a
DegenerateDiagram (diagrams._degenerate_key), which is all a degenerate
diagram stores, and epsilon is read off the word (_epsilon).  The parent
search (_parents_at) splices the six terms of each triple-point completion
into based words without validating them again: a spliced term of a valid
diagram is valid.  The rewrite of a non-monotonic diagram is computed once
per degenerate key, whatever the window (_triangle_rewrite), and the
window check runs per call.  boundary_d sums coefficients in
{key: coefficient} dicts and builds a DegenerateDiagram only for each term
it returns, so a formula whose boundary vanishes builds none.

boundary_d is the module's one entry point; the program calls nothing
else here.  The paper-level helpers (epsilon on based diagrams, the
triangle relations, the based 6-term combinations and the duality check
between them) build objects and live in tests/move_oracles.py as the
oracles of this core.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .diagrams import (
    ArrowDiagram,
    DegenerateDiagram,
    DiagramError,
    _based_word,
    _degenerate_key,
    _fused,
    _monotonic,
    arrows_cross,
    canonical_arrows,
)
from .lincomb import LinComb, as_lincomb
from .moves import HEAD
from .relations import _PAIRS, _assemble_term, _six_term_coeff, r3_pair_matches


class NormalizationError(DiagramError):
    """A triangle rewrite would need diagrams outside the marking window,
    or a diagram has no triple-point completion to rewrite it with."""


def _epsilon(word, fused):
    """epsilon of the based word `word`, fused = _fused(word): +1 or -1,
    eta times -1 to the number of arrowheads bounding the base arc."""
    (i1, r1), (i2, r2) = fused
    if i1 == i2:
        raise DiagramError("eta is defined for nice based diagrams only")
    eta = 1 if arrows_cross(word[i1], word[i2]) else -1
    return eta * (-1) ** ((r1 == HEAD) + (r2 == HEAD))


# ---------------------------------------------------------------------------
# the tuple core: {degenerate key: coefficient}


def _add_term(acc, key, c):
    """acc[key] += c as lincomb._add_into adds: a key whose coefficient
    cancels leaves, and one that comes back re-enters last."""
    if key in acc:
        c += acc[key]
        if not c:
            del acc[key]
            return
    if c:
        acc[key] = c


# ---------------------------------------------------------------------------
# parent triple-point configurations of a degenerate diagram


def _based_term(m, pair, side):
    """The based word of one two-crossing term of match m, based at the
    shared arc."""
    shared = next(
        s for s in range(3)
        if sum(1 for (c, _r) in m.model.words[side][s] if c in pair) == 2
    )
    arrows, anchor = _assemble_term(m, pair, side)
    # a based word has no rotation freedom: rotate the assembled word so
    # the shared arc (ending at the pair's first endpoint) sits between
    # positions 2n-1 and 0, no canonical form
    return _based_word(arrows, anchor[shared])


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

    Yields (parent_key, based_terms, mu, monotonic pair, direct term) where
    based_terms maps (pair, side) -> (based word, transport coefficient)
    and mu normalizes the relation so a direct basing of the monotonic
    shrink carries its epsilon."""
    b0 = _based_word(D.arrows, arc)
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
        fL, fR = _fused(bL), _fused(bR)
        mu = Fraction(_epsilon(bL, fL), cL)
        if mu != Fraction(_epsilon(bR, fR), cR):
            raise AssertionError("inconsistent normalization across move sides")
        if _degenerate_key(D.K, bL, fL) != _degenerate_key(D.K, bR, fR):
            raise AssertionError("the two monotonic basings shrink differently")
        key = frozenset((bt, mu * c) for bt, c in terms.values())
        yield key, terms, mu, mono, direct


def _shrink_arcs(key):
    """The arrow diagram underlying a two-arrow degenerate key, and its
    arcs whose basing shrinks to that key."""
    _kind, K, word = key
    canon, _r, aut = canonical_arrows(len(word), word)
    D = ArrowDiagram._canonical(K, canon, aut)
    arcs = []
    for arc in range(2 * D.n):
        w = _based_word(canon, arc)
        if _degenerate_key(K, w, _fused(w)) == key:
            arcs.append(arc)
    return D, arcs


@cache
def _triangle_rewrite(key):
    """The non-monotonic degenerate diagram of `key` as a combination of
    monotonic ones: a tuple of (target key, coefficient) in insertion
    order, or None when no triple-point completion rewrites it.  Fused
    endpoints of a single arrow give the one-term relation dd = 0, so the
    empty rewrite.  Computed from the key alone, once per key: the window
    check is the caller's."""
    if key[0] == "s":
        return ()
    D, arcs = _shrink_arcs(key)
    rewrites = {}
    for arc in arcs:
        word = _based_word(D.arrows, arc)
        eps = _epsilon(word, _fused(word))
        for parent, terms, mu, mono, direct in _parents_at(D, arc):
            target = terms[(mono, "L")][0]
            tkey = _degenerate_key(D.K, target, _fused(target))
            u = Fraction(mu * terms[direct][1], eps)
            if parent in rewrites:
                if rewrites[parent] != (tkey, u):
                    raise AssertionError("parent relation disagrees between basings")
            else:
                rewrites[parent] = (tkey, u)
    if not rewrites:
        return None
    out = {}
    for tkey, u in rewrites.values():
        _add_term(out, tkey, u)
    if not all(_monotonic(_fused(tkey[2])) for tkey in out):
        raise AssertionError("triangle rewrite produced a non-monotonic diagram")
    return tuple(out.items())


def _normalize(raw, window):
    """Rewrite every non-monotonic key into the monotonic basis:
    {key: coefficient} in, the same out.

    Out-of-window rewrites raise NormalizationError rather than dropping
    terms.  Keys are processed in sorted order for reproducibility."""
    out = {}
    allowed = window.allowed
    for key in sorted(raw):
        c = raw[key]
        if _monotonic(_fused(key[2])):
            _add_term(out, key, c)
            continue
        rewrite = _triangle_rewrite(key)
        if rewrite is None:
            raise NormalizationError("no triangle relation for %r" % (DegenerateDiagram._of(key),))
        if not all(a[2] in allowed for tkey, _u in rewrite for a in tkey[2]):
            raise NormalizationError(
                "rewriting %r needs a marking outside the window" % (DegenerateDiagram._of(key),)
            )
        for tkey, u in rewrite:
            _add_term(out, tkey, c * u)
    return out


def boundary_d(a, window):
    """d on arrow combinations: all nice basings, shrunk with epsilon, in
    the monotonic basis."""
    raw = {}
    for d, c in as_lincomb(a).items():
        for arc in range(2 * d.n):
            word = _based_word(d.arrows, arc)
            fused = _fused(word)
            if fused[0][0] == fused[1][0]:
                continue  # not nice
            if d.signed:
                raise DiagramError("degenerate diagrams are defined over arrow diagrams")
            _add_term(raw, _degenerate_key(d.K, word, fused), _epsilon(word, fused) * c)
    out = _normalize(raw, window)
    return LinComb._of({DegenerateDiagram._of(key): c for key, c in out.items()})
