"""The boundary operator, triangle rewrites, and the six-term duality."""

import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrowforms
from arrowforms import boundary, relations, textio
from arrowforms.boundary import NormalizationError, _triangle_rewrite, boundary_d
from arrowforms.diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    arrows_cross,
)
from arrowforms.engine import normalization_window
from arrowforms.lincomb import LinComb, _add_into
from arrowforms.relations import MarkingWindow

import move_oracles
from conftest import random_arrows, random_based_diagram, seeded
from move_oracles import (
    based_6T_pairing_check,
    boundary_d_objects,
    d_based,
    epsilon,
    eta,
    gen_degenerate_family,
    is_nice,
    normalize_triangle_objects,
    triangle_relation_objects,
    triangle_rewrite_objects,
    unreduced_pair_table,
)

WIDE = normalization_window(MarkingWindow(range(-2, 4), 2))


def _normalized(x, window):
    """The program's triangle normalization (boundary._normalize) of a
    combination of degenerate diagrams."""
    out = boundary._normalize({dd._key: c for dd, c in x.items()}, window)
    return LinComb._of({DegenerateDiagram._of(key): c for key, c in out.items()})


def _triangle_relation(dd):
    """The triangle relation of the non-monotonic dd read off the program's
    rewrite (_triangle_rewrite), with coefficient 1 on dd, as
    triangle_relation_objects spells it."""
    rewrite = _triangle_rewrite(dd._key)
    if rewrite is None:
        raise NormalizationError("no triangle relation for %r" % (dd,))
    out = {dd: Fraction(1)}
    for key, u in rewrite:
        _add_into(out, {DegenerateDiagram._of(key): -u})
    return LinComb._of(out)


def _random_monotonic(rng, n, K, marks):
    while True:
        b = random_based_diagram(rng, n, K, marks)
        dd = DegenerateDiagram(b)
        if dd.is_monotonic():
            return dd


def test_nice_basing_and_signs():
    d = ArrowDiagram(2, [(0, 2, 1, 0), (1, 3, 1, 0)])
    for arc in range(4):
        b = BasedDiagram(d, arc)
        assert is_nice(b)
        assert eta(b) == 1  # the two chords cross
        assert epsilon(b) in (1, -1)


def test_not_nice_basing_maps_to_zero():
    d = ArrowDiagram(2, [(0, 1, 1, 0), (2, 3, 1, 0)])
    # the arc between positions 0 and 1 is bounded by one arrow twice
    b = BasedDiagram(d, 0)
    assert not is_nice(b)
    assert d_based(b) == LinComb.zero()
    with pytest.raises(Exception):
        eta(b)


def test_triangle_relation_structure():
    rng = seeded(31)
    checked = 0
    for _ in range(400):
        b = random_based_diagram(rng, rng.randint(2, 3), 2, marks=(0, 1, 2))
        dd = DegenerateDiagram(b)
        if dd.is_monotonic():
            continue
        try:
            rel = _triangle_relation(dd)
        except NormalizationError:
            continue
        # the relation rewrites dd into at most two monotonic diagrams
        assert rel.coeff(dd) == 1
        rest = rel - LinComb.single(dd)
        assert len(rest) <= 2
        for k in rest.keys():
            assert k.is_monotonic()
        checked += 1
    assert checked > 100


def test_normalize_triangle_fixes_monotonic_terms():
    rng = seeded(32)
    for _ in range(100):
        dd = _random_monotonic(rng, rng.randint(2, 3), 2, (0, 1, 2))
        assert _normalized(LinComb.single(dd), WIDE) == LinComb.single(dd)


def test_boundary_lands_in_the_monotonic_basis():
    rng = seeded(33)
    for _ in range(60):
        d = ArrowDiagram(2, random_arrows(rng, rng.randint(2, 3), marks=(0, 1, 2)))
        out = boundary_d(LinComb.single(d), WIDE)
        for k in out.keys():
            assert k.is_monotonic()
            assert k.n == d.n


def test_duality_on_random_pairs():
    rng = seeded(34)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 3)
        b = random_based_diagram(rng, n, 2, marks=(0, 1, 2))
        dd = _random_monotonic(rng, n, 2, (0, 1, 2))
        assert based_6T_pairing_check(b, dd, WIDE)
        checked += 1


def test_based_six_term_noncrossing_structure():
    # each instance has six terms; the terms whose arrows are pairwise
    # non-crossing come in threes (one per pair slot) or not at all
    w = MarkingWindow({1, 2, 3, 4}, 5)
    insts = gen_degenerate_family("based6t", 2, w)
    assert insts
    for inst in insts:
        assert len(inst.vector) == 6
        nc = sum(
            1
            for b in inst.vector.keys()
            if all(
                not arrows_cross(b.arrows[i], b.arrows[j])
                for i in range(b.n)
                for j in range(i + 1, b.n)
            )
        )
        assert nc in (0, 3)


def test_triangle_family_instances_are_window_supported():
    w = MarkingWindow({1, 2, 3, 4}, 5)
    for inst in gen_degenerate_family("triangle", 2, w):
        for k in inst.vector.keys():
            assert all(a[2] in w.allowed for a in k.arrows)


def test_triangle_normalization_matches_the_unreduced_descriptor_table():
    rng = seeded(35)
    collided = []
    while len(collided) < 40:
        dd = DegenerateDiagram(random_based_diagram(rng, rng.randint(2, 3), 2, marks=(0, 1, 2)))
        if not dd.is_monotonic():
            collided.append(dd)
    combos = [
        LinComb.single(ArrowDiagram(2, random_arrows(rng, rng.randint(2, 3), marks=(0, 1, 2))))
        for _ in range(20)
    ]

    def run():
        _triangle_rewrite.cache_clear()
        out = [_triangle_rewrite(dd._key) for dd in collided]
        out += [list(boundary_d(a, WIDE).items()) for a in combos]
        return out

    fast = run()
    with mock.patch.object(relations, "_pair_descriptors", unreduced_pair_table):
        slow = run()
    _triangle_rewrite.cache_clear()
    assert fast == slow
    assert sum(x is not None for x in fast[:40]) > 20


# ---------------------------------------------------------------------------
# the based-word core against the object path (move_oracles)


def _outcome(fn, *args):
    """fn(*args) as its terms, each with its stored word and coefficient
    type, in insertion order; the error text when it raises
    NormalizationError."""
    try:
        return [(k, k.arrows, c, type(c)) for k, c in fn(*args).items()]
    except NormalizationError as e:
        return "NormalizationError: %s" % e


@st.composite
def arrow_diagrams(draw, n, K):
    """An arrow diagram of degree n over K with markings in -2..4."""
    pos = draw(st.permutations(list(range(2 * n))))
    ms = draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    return ArrowDiagram(K, [(pos[2 * i], pos[2 * i + 1], ms[i], 0) for i in range(n)])


@st.composite
def cancelling_combinations(draw):
    """(K, a combination of arrow diagrams of degrees 1-4 over K), K in
    -2..5, with Fraction coefficients.  Some terms come with the diagram whose
    endpoints at two neighbouring positions are swapped, at the same
    coefficient: the two basings at the arc between those positions shrink
    to one degenerate diagram with opposite epsilons, so they cancel."""
    K = draw(st.integers(-2, 5))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(arrow_diagrams(draw(st.integers(1, 4)), K))
        c = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), draw(st.integers(1, 3)))
        terms.append((d, c))
        if d.n >= 2 and draw(st.booleans()):
            p = draw(st.integers(0, 2 * d.n - 1))
            q = (p + 1) % (2 * d.n)
            swap = {p: q, q: p}
            arrows = [(swap.get(t, t), swap.get(h, h), m, 0) for t, h, m, _s in d.arrows]
            terms.append((ArrowDiagram(K, arrows), c))
    return K, LinComb(terms)


@st.composite
def windows(draw, K):
    """The normalization window of -2..4, or a narrow one that makes some
    rewrites leave it."""
    if draw(st.booleans()):
        return normalization_window(MarkingWindow(range(-2, 5), K))
    return MarkingWindow(draw(st.sets(st.integers(-4, 8), min_size=1, max_size=8)), K)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_boundary_matches_the_object_path(data):
    K, a = data.draw(cancelling_combinations())
    window = data.draw(windows(K))
    assert _outcome(boundary_d, a, window) == _outcome(boundary_d_objects, a, window)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_relations_match_the_object_path(data):
    n = data.draw(st.integers(2, 4))
    K = data.draw(st.integers(-2, 5))
    d = data.draw(arrow_diagrams(n, K))
    dd = DegenerateDiagram(BasedDiagram(d, data.draw(st.integers(0, 2 * n - 1))))
    window = data.draw(windows(K))
    x = LinComb.single(dd, 3)
    assert _outcome(_normalized, x, window) == _outcome(normalize_triangle_objects, x, window)
    if not dd.is_monotonic():
        assert _outcome(_triangle_relation, dd) == _outcome(triangle_relation_objects, dd)


@pytest.mark.parametrize("window", [MarkingWindow({0, 1, 2}, 2), WIDE], ids=["narrow", "wide"])
def test_equal_basings_of_a_symmetric_diagram_are_summed_before_they_cancel(window):
    # d has |Aut| = 2, so two of its arcs give one basing; its partner's
    # basing cancels a single copy of it, and the term that is left is the
    # object path's, whichever basing enters first
    d = ArrowDiagram(2, [(0, 3, 2, 0), (2, 1, 2, 0)])
    partner = ArrowDiagram(2, [(0, 2, 2, 0), (1, 3, 2, 0)])
    assert d.aut_order() == 2
    a = LinComb([(partner, 1), (d, 1)])
    assert _outcome(boundary_d, a, window) == _outcome(boundary_d_objects, a, window)


def test_a_diagram_without_a_triple_point_completion_is_reported_alike():
    d = ArrowDiagram(2, [(0, 2, 1, 0), (3, 1, 1, 0), (4, 5, 1, 0)])
    a = LinComb.single(d, Fraction(1, 2))

    def no_matches(_d, positions=None):
        return iter(())

    _triangle_rewrite.cache_clear()
    triangle_rewrite_objects.cache_clear()
    try:
        with mock.patch.object(boundary, "r3_pair_matches", no_matches), \
                mock.patch.object(move_oracles, "r3_pair_matches", no_matches):
            fast = _outcome(boundary_d, a, WIDE)
            slow = _outcome(boundary_d_objects, a, WIDE)
    finally:
        _triangle_rewrite.cache_clear()
        triangle_rewrite_objects.cache_clear()
    assert fast == slow
    assert fast.startswith("NormalizationError: no triangle relation for DegenerateDiagram(K=2, ")


def test_the_two_fused_orders_print_and_fail_alike():
    # a different-arrow degenerate diagram and the one built from its
    # swapped word are one diagram: the same repr, word, fused endpoints
    # and printed block, and the same NormalizationError text
    rng = seeded(36)
    window = MarkingWindow({0, 1, 2}, 2)
    checked = raised = 0
    while checked < 200:
        n = rng.randint(2, 4)
        b = random_based_diagram(rng, n, 2, marks=(0, 1, 2))
        (i1, _r1), (i2, _r2) = b.boundary_endpoints()
        if i1 == i2:
            continue
        swap = {2 * n - 1: 0, 0: 2 * n - 1}
        twin = BasedDiagram.from_word(
            b.K, [(swap.get(t, t), swap.get(h, h), m, s) for t, h, m, s in b.arrows]
        )
        dd, dd2 = DegenerateDiagram(b), DegenerateDiagram(twin)
        assert dd == dd2
        assert repr(dd) == repr(dd2)
        assert dd.arrows == dd2.arrows
        assert dd.fused() == dd2.fused()
        assert textio.print_diagram(dd) == textio.print_diagram(dd2)
        outcome = _outcome(_normalized, LinComb.single(dd, 3), window)
        assert outcome == _outcome(_normalized, LinComb.single(dd2, 3), window)
        raised += isinstance(outcome, str)
        checked += 1
    assert raised > 20


_BASED6T_DIGEST = """
import hashlib
from arrowforms.relations import MarkingWindow
from move_oracles import gen_degenerate_family
insts = gen_degenerate_family("based6t", 2, MarkingWindow({1, 2, 3, 4}, 5))
blob = repr([(i.key(), list(i.vector.items())) for i in insts])
print(len(insts), hashlib.sha256(blob.encode()).hexdigest())
"""


def test_based6t_term_order_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(arrowforms.__file__))
    path = os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__))))
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", _BASED6T_DIGEST], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        )
        digests.append(out.stdout)
    assert digests[0] == digests[1]
    assert int(digests[0].split()[0]) > 0
