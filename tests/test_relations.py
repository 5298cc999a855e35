"""Relation families, move matching, and Reidemeister rewriting."""

import pytest

from arrowforms.diagrams import DiagramError, GaussDiagram
from arrowforms.relations import (
    MarkingWindow,
    _full_matches,
    apply_R_move,
    enumerate_diagrams,
    gen_all_constraints,
    gen_family,
    move_census,
    r1_matches,
)

from conftest import random_arrow_diagram, random_gauss_diagram, seeded
from move_oracles import _full_matches_scan, available_moves


def _match_keys(matches):
    return sorted(
        (id(m.model), m.side, m.present, tuple(sorted(m.arrow_map.items())),
         tuple(m.marks_options))
        for m in matches
    )


def test_marking_window_parse():
    w = MarkingWindow.parse("1..4", 5)
    assert w == MarkingWindow({1, 2, 3, 4}, 5)
    assert MarkingWindow.parse("-2,0,3", 1) == MarkingWindow({-2, 0, 3}, 1)
    assert 2 in w and 5 not in w
    with pytest.raises(ValueError):
        MarkingWindow.parse("4..1", 5)
    with pytest.raises(ValueError):
        MarkingWindow.parse("x", 5)


def test_marking_window_complement_closed():
    assert MarkingWindow({1, 2, 3, 4}, 5).complement_closed()
    assert not MarkingWindow({1, 2}, 5).complement_closed()


def test_enumerate_diagrams_species_and_window():
    w = MarkingWindow({1, 2}, 3)
    for species in ("arrow", "gauss"):
        ds = enumerate_diagrams(species, 2, w)
        assert len(ds) == len(set(ds))
        assert ds == sorted(ds)
        for d in ds:
            assert d.n == 2
            assert all(m in w for (_t, _h, m, _s) in d.arrows)
            assert (d.signed is (species == "gauss")
                    if hasattr(d, "signed")
                    else True)
    # signed enumeration refines the sign-free one
    assert {g.forget_signs() for g in enumerate_diagrams("gauss", 2, w)} == set(
        enumerate_diagrams("arrow", 2, w)
    )


def test_degree_zero_enumeration_is_the_empty_diagram():
    w = MarkingWindow({1}, 2)
    ds = enumerate_diagrams("arrow", 0, w)
    assert len(ds) == 1 and ds[0].n == 0


def test_anchored_matcher_agrees_with_scan():
    rng = seeded(21)
    for _ in range(150):
        species = rng.choice(("arrow", "gauss"))
        n = rng.randint(2, 4)
        if species == "arrow":
            d = random_arrow_diagram(rng, n, 2)
            mode = "plain"
        else:
            d = random_gauss_diagram(rng, n, 2)
            mode = "gauss"
        for kind in ("R2", "R3"):
            fast = _match_keys(_full_matches(d, kind, mode))
            slow = _match_keys(_full_matches_scan(d, kind, mode))
            assert fast == slow


def test_instances_are_deduplicated():
    w = MarkingWindow({1, 2}, 3)
    for fam in ("ap1", "ap2", "a6t", "p1", "p2", "p2h1", "p3"):
        insts = gen_family(fam, 2, w)
        keys = [i.key() for i in insts]
        assert len(keys) == len(set(keys))


def test_host_restriction_is_a_subset():
    w = MarkingWindow({1, 2}, 3)
    full = {i.key() for i in gen_family("a6t", 2, w, closure=False)}
    hosts = enumerate_diagrams("arrow", 2, w)[:3]
    sub = {i.key() for i in gen_family("a6t", 2, w, closure=False, hosts=hosts)}
    assert sub <= full
    # every instance containing a host term is found
    hostset = set(hosts)
    for inst in gen_family("a6t", 2, w, closure=False):
        if any(k in hostset for k in inst.vector.keys()):
            assert inst.key() in sub


def test_window_closure_skips_and_counts():
    w = MarkingWindow({1}, 3)
    skipped = {}
    closed = gen_family("a6t", 2, w, skipped=skipped)
    open_ = gen_family("a6t", 2, w, closure=False)
    assert len(open_) >= len(closed)
    for inst in closed:
        assert all(
            all(a[2] in w.allowed for a in k.arrows) for k in inst.vector.keys()
        )


def test_kink_matches():
    g = GaussDiagram(3, [(1, 0, 0, 1)])  # head then tail: marking 0 kink
    assert r1_matches(g) == [(0, "ht")]
    g2 = GaussDiagram(3, [(0, 1, 3, 1)])  # tail then head: marking K kink
    assert r1_matches(g2) == [(0, "th")]
    assert r1_matches(GaussDiagram(3, [(0, 1, 1, 1)])) == []


def test_r1_insert_then_remove_round_trip():
    rng = seeded(22)
    for _ in range(50):
        g = random_gauss_diagram(rng, rng.randint(1, 3), 2)
        ins = rng.randrange(2 * g.n)
        kind = rng.choice(("ht", "th"))
        g2 = apply_R_move(g, "R1+", ins, (kind, rng.choice((1, -1))))
        assert g2.n == g.n + 1
        back = {apply_R_move(g2, "R1-", i) for (i, _k) in r1_matches(g2)}
        assert g in back


def test_r2_insert_then_remove_round_trip():
    rng = seeded(23)
    from arrowforms.moves import models

    for _ in range(50):
        g = random_gauss_diagram(rng, rng.randint(1, 3), 2)
        i1 = rng.randrange(2 * g.n)
        i2 = rng.randint(i1, 2 * g.n - 1)
        k = rng.randrange(len(models("R2")))
        g2 = apply_R_move(g, "R2+", (i1, i2), (k, rng.choice((0, 1, 2))))
        assert g2.n == g.n + 2
        back = set()
        for mv in available_moves(g2, {0, 1, 2}):
            if mv[0] == "R2-":
                back.add(apply_R_move(g2, *mv))
        assert g in back


def test_every_available_move_applies():
    rng = seeded(24)
    for _ in range(25):
        g = random_gauss_diagram(rng, rng.randint(1, 3), 2, marks=(0, 1, 2))
        for mv in available_moves(g, {0, 1, 2}, max_degree=5):
            g2 = apply_R_move(g, *mv)
            assert isinstance(g2, GaussDiagram)
            assert g2.K == g.K
    with pytest.raises(DiagramError):
        apply_R_move(GaussDiagram(2, [(0, 1, 1, 1)]), "R1-", 0)


def test_move_census_decodes_to_the_explicit_list_in_order():
    # the order pins every seeded walk: sample_move decodes one uniform
    # index per step, so a reordered census changes the walks
    rng = seeded(25)
    for _ in range(300):
        n = rng.randint(0, 4)
        g = random_gauss_diagram(rng, n, 2, marks=(0, 1, 2))
        for max_degree in (None, n, n + 1, 5):
            blocks = move_census(g, {0, 1, 2}, max_degree)
            decoded = [decode(u) for count, decode in blocks for u in range(count)]
            assert decoded == available_moves(g, {0, 1, 2}, max_degree)


def test_r3_is_an_involution():
    w = MarkingWindow({0, 1, 2}, 2)
    seen = 0
    for g in enumerate_diagrams("gauss", 3, w):
        for mv in available_moves(g, {0, 1, 2}):
            if mv[0] != "R3":
                continue
            g2 = apply_R_move(g, *mv)
            assert g2.n == g.n
            back = {
                apply_R_move(g2, *m2)
                for m2 in available_moves(g2, {0, 1, 2})
                if m2[0] == "R3"
            }
            assert g in back
            seen += 1
            break
        if seen >= 50:
            break
    assert seen >= 50


def test_constraint_catalog_families():
    w = MarkingWindow({1, 2}, 3)
    insts = gen_all_constraints(2, w)
    fams = {i.family for i in insts}
    assert fams <= {"ap1", "ap2", "a6t"}
    assert "a6t" in fams
