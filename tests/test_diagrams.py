"""Canonical forms, automorphism counts, and the based/degenerate species."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowforms.diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    DiagramError,
    GaussDiagram,
    arrows_cross,
    canonical_arrows,
)

from conftest import random_arrows, random_gauss_diagram, seeded


@st.composite
def gauss_diagrams(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    pos = draw(st.permutations(list(range(2 * n))))
    marks = draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    arrows = [(pos[2 * i], pos[2 * i + 1], marks[i], signs[i]) for i in range(n)]
    K = draw(st.integers(-2, 5))
    return GaussDiagram(K, arrows)


def full_scan_canonical(n, arrows):
    """Oracle for canonical_arrows: build the token stream of every one of
    the 2n rotations.  Returns (arrows, least minimizing rotation, number of
    rotations whose stream equals rotation 0's)."""
    if n == 0:
        return (), 0, 1
    size = 2 * n
    ends = [None] * size
    for i, (t, h, _m, _s) in enumerate(arrows):
        ends[t] = (i, 0)
        ends[h] = (i, 1)

    def stream(r):
        relabel = {}
        out = []
        for q in range(size):
            i, role = ends[(q + r) % size]
            j = relabel.setdefault(i, len(relabel))
            _t, _h, m, s = arrows[i]
            out.append((j, role, m, s))
        return tuple(out)

    streams = [stream(r) for r in range(size)]
    best_r = min(range(size), key=lambda r: (streams[r], r))
    aut = sum(1 for s in streams if s == streams[0])
    order = []
    for q in range(size):
        i, _role = ends[(q + best_r) % size]
        if i not in order:
            order.append(i)
    shift = lambda p: (p - best_r) % size
    canon = tuple((shift(t), shift(h), m, s) for (t, h, m, s) in (arrows[i] for i in order))
    return canon, best_r, aut


@st.composite
def raw_arrows(draw, signed):
    n = draw(st.integers(1, 6))
    pos = draw(st.permutations(list(range(2 * n))))
    marks = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1) if signed else (0,)), min_size=n, max_size=n))
    return [(pos[2 * i], pos[2 * i + 1], marks[i], signs[i]) for i in range(n)]


@st.composite
def symmetric_arrows(draw, signed):
    """Arrows invariant under rotation by 2n/k for a drawn order k >= 2:
    each of n0 arrow orbits pairs a tail residue with a head residue mod
    the period and is copied k times around the circle."""
    n0 = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6 // n0))
    period, size = 2 * n0, 2 * n0 * k
    res = draw(st.permutations(list(range(period))))
    arrows = []
    for i in range(n0):
        offset = period * draw(st.integers(0, k - 1))
        mark = draw(st.integers(-1, 1))
        sign = draw(st.sampled_from((1, -1))) if signed else 0
        for j in range(k):
            t = (res[2 * i] + j * period) % size
            h = (res[2 * i + 1] + offset + j * period) % size
            arrows.append((t, h, mark, sign))
    return k, arrows


@settings(max_examples=300)
@given(st.booleans().flatmap(raw_arrows))
def test_canonical_form_matches_full_scan(arrows):
    n = len(arrows)
    assert canonical_arrows(n, arrows) == full_scan_canonical(n, arrows)


@settings(max_examples=300)
@given(st.booleans().flatmap(symmetric_arrows))
def test_canonical_form_matches_full_scan_on_symmetric_diagrams(drawn):
    k, arrows = drawn
    n = len(arrows)
    canon, r, aut = canonical_arrows(n, arrows)
    assert (canon, r, aut) == full_scan_canonical(n, arrows)
    assert aut % k == 0
    cls = GaussDiagram if arrows[0][3] else ArrowDiagram
    d = cls(3, arrows)
    assert d.arrows == canon
    assert d.aut_order() == aut


@given(gauss_diagrams())
def test_canonical_idempotent(d):
    assert canonical_arrows(d.n, d.arrows)[0] == d.arrows


@given(gauss_diagrams(), st.integers(0, 7))
def test_canonical_rotation_invariant(d, r):
    size = 2 * d.n
    r %= size
    rot = [((t + r) % size, (h + r) % size, m, s) for (t, h, m, s) in d.arrows]
    assert GaussDiagram(d.K, rot) == d


@given(gauss_diagrams())
def test_aut_order_counts_fixing_rotations(d):
    size = 2 * d.n
    fixing = sum(
        1
        for r in range(size)
        if sorted(((t + r) % size, (h + r) % size, m, s) for (t, h, m, s) in d.arrows)
        == sorted(d.arrows)
    )
    assert d.aut_order() == fixing
    assert size % d.aut_order() == 0


def test_equality_is_rotation_only():
    # reflections are distinct diagrams
    a = ArrowDiagram(3, [(0, 1, 1, 0), (2, 3, 2, 0)])
    b = ArrowDiagram(3, [(1, 0, 1, 0), (3, 2, 2, 0)])
    assert a != b


def test_forget_signs_and_with_signs_round_trip():
    rng = seeded(5)
    for _ in range(100):
        g = random_gauss_diagram(rng, rng.randint(1, 4), 2)
        a = g.forget_signs()
        assert isinstance(a, ArrowDiagram)
        assert all(s == 0 for (_t, _h, _m, s) in a.arrows)
        # re-signing the canonical arrow form gives a diagram of the same shape
        g2 = a.with_signs([1] * a.n)
        assert g2.forget_signs() == a


def test_subdiagram_degrees():
    rng = seeded(6)
    for _ in range(50):
        g = random_gauss_diagram(rng, 4, 3)
        for k in range(5):
            sub = g.subdiagram(range(k))
            assert sub.n == k
            assert sub.K == g.K


def test_validation_errors():
    with pytest.raises(DiagramError):
        ArrowDiagram(2, [(0, 0, 1, 0)])
    with pytest.raises(DiagramError):
        ArrowDiagram(2, [(0, 1, 1, 0), (1, 2, 1, 0)])
    with pytest.raises(DiagramError):
        GaussDiagram(2, [(0, 1, 1, 0)])  # missing sign
    with pytest.raises(DiagramError):
        ArrowDiagram(2, [(0, 1, 1, 1)])  # unexpected sign


def test_empty_diagram_conventions():
    e = ArrowDiagram(3)
    assert e.n == 0
    assert e.aut_order() == 1
    assert e == ArrowDiagram(3, [])


def test_arrows_cross():
    assert arrows_cross((0, 2, 0, 0), (1, 3, 0, 0))
    assert not arrows_cross((0, 1, 0, 0), (2, 3, 0, 0))


def test_based_diagram_word_round_trip():
    rng = seeded(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        K = rng.randint(-1, 4)
        d = ArrowDiagram(K, random_arrows(rng, n))
        b = BasedDiagram(d, rng.randrange(2 * n))
        b2 = BasedDiagram.from_word(K, b.arrows)
        assert b2 == b
        assert ArrowDiagram(K, b2.arrows) == d


def test_degenerate_fused_order_identified():
    # when the fused endpoints belong to two different arrows the two fused
    # orders name the same degenerate diagram
    rng = seeded(8)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        b = BasedDiagram(ArrowDiagram(2, random_arrows(rng, n)), rng.randrange(2 * n))
        (i1, _r1), (i2, _r2) = b.boundary_endpoints()
        if i1 == i2:
            continue
        dd = DegenerateDiagram(b)
        size = 2 * n
        swapped = []
        for (t, h, m, s) in b.arrows:
            t2 = {size - 1: 0, 0: size - 1}.get(t, t)
            h2 = {size - 1: 0, 0: size - 1}.get(h, h)
            swapped.append((t2, h2, m, s))
        dd2 = DegenerateDiagram(BasedDiagram.from_word(b.K, swapped))
        assert dd2 == dd
        assert hash(dd2) == hash(dd)
        checked += 1
    assert checked > 100


def test_degenerate_word_is_stable():
    rng = seeded(9)
    for _ in range(100):
        n = rng.randint(2, 3)
        b = BasedDiagram(ArrowDiagram(3, random_arrows(rng, n)), rng.randrange(2 * n))
        dd = DegenerateDiagram(b)
        rebuilt = DegenerateDiagram(BasedDiagram.from_word(b.K, dd.arrows))
        assert rebuilt == dd
        assert rebuilt.arrows == dd.arrows == dd._key[2]
