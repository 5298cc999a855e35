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
diagram stores, and epsilon is read off the word (_epsilon).  The
completions of a non-monotonic diagram depend on its mark-free shape
alone, so the completion search runs once per shape, on one basing of a
probe key, and gives a template with the target markings as linear forms
(_rewrite_template), the module's one cache.  It splices the three terms
of each completion it reads into based words without validating them
again: a spliced term of a valid diagram is valid.  Each time a degenerate
key is met, its markings are put into its shape's template
(_triangle_rewrite) and the window is checked (_normalize).  boundary_d sums
coefficients in {key: coefficient} dicts and builds a DegenerateDiagram
only for each term it returns, so a formula whose boundary vanishes
builds none.

boundary_d is the module's one entry point; the program calls nothing
else here.  The paper-level helpers (epsilon on based diagrams, the
triangle relations, the based 6-term combinations and the duality check
between them) build objects and live in tests/move_oracles.py as the
oracles of this core.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul

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


def _mark_free(word):
    """A word without its markings: one (tail, head, sign) per arrow."""
    return tuple((t, h, s) for t, h, _m, s in word)


# Markings of the probe key a rewrite template is built from: K = 1 and
# arrow i marked _PROBE ** (i + 1), so a marking that is an integer linear
# form over (K, m_0, ..., m_{n-1}) with coefficients in -500..500 is the
# form's balanced base-_PROBE number (_linear_form).
_PROBE = 1001


def _linear_form(value, n):
    """The coefficients (c_K, c_0, ..., c_{n-1}) of the marking `value`
    of a degree-n probe key, read as balanced base-_PROBE digits.  They
    re-encode the value exactly when no higher digit is left over."""
    form = []
    rest = value
    for _ in range(n + 1):
        rest, c = divmod(rest, _PROBE)
        if 2 * c > _PROBE:
            rest, c = rest + 1, c - _PROBE
        form.append(c)
    if rest:
        raise AssertionError("a probe marking is no small linear form")
    return tuple(form)


@cache
def _rewrite_template(shape):
    """The triangle rewrite of every degenerate key of one mark-free shape.

    shape = (kind, ((tail, head, sign), ...)): a key's kind and word
    without its markings.  The result is None when no triple-point
    completion rewrites the shape, else a tuple of (target word without
    markings, one linear form over (K, m_0, ..., m_{n-1}) per target
    arrow, u) in the order the rewrite lists its terms; _triangle_rewrite
    substitutes a key's K and markings m_i.  A single-arrow kind has the
    empty rewrite (dd = 0).

    Built once per shape, by running the completion search on a probe key
    whose markings are independent (_PROBE), and reading each target
    marking back as a linear form.  The rewrite of any key of the shape
    is that template with the key's markings put in, because:
    - r3_pair_matches filters on positions, roles and signs, never on
      markings: every located shape is a match.  The six-term coefficients
      and epsilon read positions only.  So the shape alone fixes which
      completions exist, their coefficients u and the target positions.
    - Each target marking is either copied from an arrow of the key or
      the hidden crossing's -(y0*K + y1*m1 + y2*m2)*y3 (_complete_marks,
      every y in -1..1): a linear form, which the probe's independent
      markings recover exactly (checked by _linear_form).
    - Markings enter the rewrite through three steps besides.  Merges of
      equal targets (_add_term) are taken again per key by
      _triangle_rewrite, so they do not rest on the probe.  The
      representative _degenerate_key keeps, the lesser of a target word
      and its fused-swapped twin, rests on no marking: a target is
      monotonic, so position 0 holds a tail in one of the two words and a
      head in the other, and the word whose first arrow has its tail at 0
      wins before any marking is compared.  And the basings searched: the
      probe has exactly one, its own word at D's arc 2n-1-r.  Its
      independent markings tell its arrows apart, so no rotation of D but
      the identity keeps them, and none turns the word into its
      fused-swapped twin, which moves each fused arrow's fused endpoint
      and leaves its other endpoint in place.  A key with equal markings
      can have more basings.  Such a basing is the key's word itself,
      through a rotation of D onto itself, which finds the same parents
      there; or it is the word with its fused endpoints swapped.  The two sides of a triple-point move differ on the pair's
      shared strand by the order of the pair's two endpoints, so every
      completion holding one of the two words as its (pair, side) term
      holds the other as its (pair, other side) term: the same parents
      again.  So no extra basing adds a parent; the object path
      (tests/move_oracles.py) searches every arc and merges the parents it
      finds there, and is this template's reference.
    - Nor do markings make two parents of the probe one instance.  Such
      parents would have equal mark-free six-term keys.  Their monotonic
      terms, the target and its fused-swapped twin, would then shrink to
      one mark-free key, and the direct term would carry one coefficient
      in both, so one u.  No two parents of the probe share a mark-free
      target and u (checked at every completion, so a completion found
      twice raises rather than being merged)."""
    kind, arrows = shape
    if kind == "s":
        return ()
    n = len(arrows)
    probe = tuple((t, h, _PROBE ** (i + 1), s) for i, (t, h, s) in enumerate(arrows))
    canon, r, aut = canonical_arrows(n, probe)
    D = ArrowDiagram._canonical(1, canon, aut)
    # position p of the probe sits at (p - r) mod 2n in D, so the probe's
    # base arc, between its positions 2n-1 and 0, is D's arc 2n-1-r
    arc = (2 * n - 1 - r) % (2 * n)
    eps = _epsilon(probe, _fused(probe))
    seen = set()
    out = {}
    for m in r3_pair_matches(D, positions=[arc]):
        pair = tuple(sorted(m.present))
        if _based_term(m, pair, m.side) != probe:
            raise AssertionError("matched term does not rebuild its own basing")
        mono = next(p for p in _PAIRS if _pair_is_monotonic(m.model, p))
        bL, bR = _based_term(m, mono, "L"), _based_term(m, mono, "R")
        fL, fR = _fused(bL), _fused(bR)
        mu = Fraction(_epsilon(bL, fL), _six_term_coeff(m.model, "L", mono, D.signed))
        if mu != Fraction(_epsilon(bR, fR), _six_term_coeff(m.model, "R", mono, D.signed)):
            raise AssertionError("inconsistent normalization across move sides")
        target = _degenerate_key(1, bL, fL)
        if target != _degenerate_key(1, bR, fR):
            raise AssertionError("the two monotonic basings shrink differently")
        u = mu * _six_term_coeff(m.model, m.side, pair, D.signed) / eps
        parent = (_mark_free(target[2]), u)
        if parent in seen:
            raise AssertionError("two parents share a mark-free target and coefficient")
        seen.add(parent)
        _add_term(out, target, u)
    if not seen:
        return None
    return tuple(
        (_mark_free(word), tuple(_linear_form(a[2], n) for a in word), u)
        for (_kind, _K, word), u in out.items()
    )


def _triangle_rewrite(key):
    """The non-monotonic degenerate diagram of `key` as a combination of
    monotonic ones: a tuple of (target key, coefficient) in insertion
    order, or None when no triple-point completion rewrites it.  Fused
    endpoints of a single arrow give the one-term relation dd = 0, so the
    empty rewrite.  Computed from the key alone, each time it is met: the
    window check is the caller's.

    The rewrite is its mark-free shape's template (_rewrite_template,
    whose docstring says why that is exact) with the key's K and markings
    put into each target's linear forms.  The template's target words are
    already their keys' representatives, whatever the markings; equal
    targets are merged (_add_term) in template order, since equal markings
    can make two targets one."""
    kind, K, word = key
    template = _rewrite_template((kind, _mark_free(word)))
    if template is None:
        return None
    values = (K,) + tuple(a[2] for a in word)
    out = {}
    for arrows, forms, u in template:
        target = tuple(
            (t, h, sum(map(mul, form, values)), s)
            for (t, h, s), form in zip(arrows, forms)
        )
        _add_term(out, ("d", K, target), u)
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
