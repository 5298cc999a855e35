"""Relation families, move matching, and Reidemeister rewriting."""

import hashlib
import re
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrowforms import boundary, diagrams, engine, moves, relations, textio
from arrowforms.diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    DiagramError,
    GaussDiagram,
)
from arrowforms.lincomb import LinComb
from arrowforms.maps import subdiagram_expand_I
from arrowforms.moves import HEAD, TAIL, LocalModel, models
from arrowforms.ratlinalg import Echelon
from arrowforms.relations import (
    _PAIRS,
    MarkingWindow,
    _complete_marks,
    _full_anchor_table,
    _full_matches,
    _pair_descriptors,
    _shapes,
    _six_term_coeff,
    _splice,
    enumerate_diagrams,
    gen_family,
    insertion_moves,
    move_census,
    r1_matches,
    r3_pair_matches,
    r_relation_vectors,
)

import move_oracles
from conftest import echelon_of, random_arrow_diagram, random_gauss_diagram, seeded, spans
from move_oracles import (
    I_row_all_subsets,
    _build_term,
    _full_descriptors,
    _full_matches_scan,
    _gap_relation,
    _in_window,
    _mark_options,
    _normal_forms,
    _pair_entry,
    _six_term_signature,
    _solve_gaps,
    apply_R_move,
    apply_R_move_full_scan,
    available_moves,
    check_I_span_compat_objects,
    constraint_rows_all_hosts,
    constraint_rows_objects,
    enumerate_diagrams_labelled,
    family_vectors_all_copies,
    full_matches_bucket_scan,
    gen_family_objects,
    oracle_models,
    program_entry,
    r3_pair_matches_scan,
    r_relation_vectors_explicit,
    serialize_tables,
    unreduced_pair_descriptors,
    unreduced_pair_table,
)


def _model_key(model):
    """model.key with each marking's gap set as a sorted tuple: matches
    found through different tables are compared by the model they carry,
    and the keys sort as a total order."""
    kind, signs, markexpr, words = model.key
    return kind, signs, tuple(tuple(sorted(e)) for e in markexpr), words


def _match_keys(matches):
    return sorted(
        (_model_key(m.model), m.side, m.present, tuple(sorted(m.arrow_map.items())),
         tuple(m.marks.items()))
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


def _listing(ds):
    return [(type(d), d.K, d.arrows, d.aut_order()) for d in ds]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("arrow", "gauss")),
    st.integers(0, 3),
    st.sets(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(-2, 4),
)
def test_shape_class_enumeration_matches_the_labelled_oracle(species, n, marks, K):
    w = MarkingWindow(marks, K)
    assert _listing(enumerate_diagrams(species, n, w)) == _listing(
        enumerate_diagrams_labelled(species, n, w)
    )


def test_degree_four_shape_class_enumeration_matches_the_labelled_oracle():
    w = MarkingWindow({1, 2}, 3)
    got = enumerate_diagrams("arrow", 4, w)
    assert _listing(got) == _listing(enumerate_diagrams_labelled("arrow", 4, w))
    assert len(got) == 3388


def test_shape_classes_per_degree():
    assert [len(_shapes(n)) for n in (1, 2, 3, 4)] == [1, 4, 22, 218]


def test_enumeration_canonicalizes_each_shape_class_decoration_once(monkeypatch):
    # 22 shape classes x 4**3 markings, plus the 120 labelled shapes of the
    # table; the labelled enumeration makes 120 x 4**3 = 7,680 calls
    calls = []
    real = diagrams.canonical_arrows

    def counted(*args):
        calls.append(1)
        return real(*args)

    _shapes.cache_clear()
    monkeypatch.setattr(diagrams, "canonical_arrows", counted)
    monkeypatch.setattr(relations, "canonical_arrows", counted)
    ds = enumerate_diagrams("arrow", 3, MarkingWindow(range(1, 5), 5))
    assert len(ds) == 1288
    assert len(calls) <= 22 * 4 ** 3 + 120


def test_enumeration_validates_no_decoration(monkeypatch):
    # a decorated shape is a valid diagram: each distinct canonical tuple
    # becomes a diagram through the private constructor
    def refused(*args):
        raise AssertionError("_validate called")

    monkeypatch.setattr(diagrams, "_validate", refused)
    assert len(enumerate_diagrams("gauss", 3, MarkingWindow({0, 1}, 1))) > 0


def test_a_span_check_enumerates_each_degree_once(monkeypatch):
    calls = []
    real = relations.enumerate_diagrams

    def counted(species, n, window):
        calls.append((species, n))
        return real(species, n, window)

    monkeypatch.setattr(relations, "enumerate_diagrams", counted)
    rep = relations.check_I_span_compat(3, MarkingWindow({1}, 1), limit_per_kind=5)
    assert rep["checked"] > 0 and not rep["failures"]
    assert calls == [("gauss", n) for n in range(4)]


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
            fast = _match_keys(_full_matches(d, kind))
            slow = _match_keys(_full_matches_scan(d, kind, mode))
            assert fast == slow


def _insert_r3(g, model, ins, gaps, bump):
    """g with the L side of an R3 model spliced in at the ascending
    insertion indices `ins`; crossing c is marked with the sum of the slot
    gaps in its mark expression, crossing 0 then raised by `bump`."""
    marks = [sum(gaps[s] for s in e) for e in model.markexpr]
    marks[0] += bump
    arrows, _starts = _splice(
        g.endpoint_roles(),
        [a[2:] for a in g.arrows],
        [(ins[s], model.words["L"][s]) for s in range(3)],
        [(c, marks[c], model.signs[c] if g.signed else 0) for c in range(3)],
    )
    return type(g)(g.K, arrows)


@st.composite
def dense_site_diagrams(draw):
    """Gauss or arrow diagrams of up to 7 arrows, grown from a random one of
    at most 2 arrows by R2 insertions and spliced-in R3 configurations.
    The R3 gaps sum to K, so the markings pass the gap relation unless
    crossing 0 is bumped: R2 and R3 sites and their near misses abound."""
    signed = draw(st.booleans())
    K = draw(st.integers(0, 2))
    mark = st.integers(-1, 2)
    n = draw(st.integers(0, 2))
    pos = draw(st.permutations(list(range(2 * n))))
    arrows = [
        (pos[2 * i], pos[2 * i + 1], draw(mark), draw(st.sampled_from((1, -1))) if signed else 0)
        for i in range(n)
    ]
    g = GaussDiagram(K, arrows) if signed else ArrowDiagram(K, arrows)
    for _ in range(draw(st.integers(1, 3))):
        kinds = [k for k, extra in (("R2", 2), ("R3", 3)) if g.n + extra <= 7]
        if not kinds:
            break
        size = 2 * g.n
        ins = sorted(draw(st.integers(0, size)) for _ in range(3))
        if draw(st.sampled_from(kinds)) == "R2":
            k = draw(st.integers(0, len(models("R2")) - 1))
            g = apply_R_move(g, "R2+", tuple(ins[:2]), (k, draw(mark)))
        else:
            model = draw(st.sampled_from(oracle_models("R3")))
            g0, g1 = draw(mark), draw(mark)
            g = _insert_r3(g, model, ins, (g0, g1, K - g0 - g1), draw(st.sampled_from((0, 0, 1))))
    return g


def _match_layout_keys(matches):
    return sorted(
        (_model_key(m.model), m.side, m.present, tuple(sorted(m.arrow_map.items())),
         tuple(m.marks.items()), tuple(m.layout[1]), tuple(m.layout[2]))
        for m in matches
    )


@settings(max_examples=150, deadline=None)
@given(dense_site_diagrams())
def test_anchored_matcher_matches_the_scan_with_layouts(d):
    mode = "gauss" if d.signed else "plain"
    for kind in ("R2", "R3"):
        fast = _match_layout_keys(_full_matches(d, kind))
        assert fast == _match_layout_keys(_full_matches_scan(d, kind, mode))


def _ordered_match_keys(matches):
    return [
        (_model_key(m.model), m.side, m.present, tuple(sorted(m.arrow_map.items())),
         tuple(m.anchors), tuple(m.marks.items()))
        for m in matches
    ]


def test_signature_matcher_matches_the_bucket_scan_in_order():
    # every diagram over 0..1 K=1: the 164 arrow and 1,288 Gauss diagrams of
    # degree 3 and the 3,388 arrow diagrams of degree 4
    w = MarkingWindow({0, 1}, 1)
    sets = [("arrow", 3, 164), ("gauss", 3, 1288), ("arrow", 4, 3388)]
    found = {"R2": 0, "R3": 0}
    for species, n, count in sets:
        diagrams = enumerate_diagrams(species, n, w)
        assert len(diagrams) == count
        mode = "gauss" if species == "gauss" else "plain"
        for d in diagrams:
            for kind in ("R2", "R3"):
                fast = _ordered_match_keys(_full_matches(d, kind))
                assert fast == _ordered_match_keys(full_matches_bucket_scan(d, kind, mode))
                found[kind] += len(fast)
    assert found["R2"] and found["R3"]


@settings(max_examples=150, deadline=None)
@given(dense_site_diagrams(), st.data())
def test_the_one_scan_gives_the_bucket_scan_sites_and_anchored_matches(d, data):
    # the census reads both kinds from one interleaved pass, and
    # _full_matches reads one kind of it, at all positions or at some
    mode = "gauss" if d.signed else "plain"
    scans = {kind: list(full_matches_bucket_scan(d, kind, mode)) for kind in ("R2", "R3")}
    blocks = move_census(d, insertion_moves({0, 1}, None, d.signed))
    bigons = dict.fromkeys((m.arrow_map[0], m.arrow_map[1]) for m in scans["R2"])
    sites = dict.fromkeys(
        ((m.arrow_map[0], m.arrow_map[1], m.arrow_map[2]), m.anchors[0]) for m in scans["R3"]
    )
    for (count, decode), move, want in ((blocks[3], "R2-", bigons), (blocks[4], "R3", sites)):
        assert [decode(u) for u in range(count)] == [(move, site, ()) for site in want]
    positions = sorted(data.draw(st.sets(st.integers(0, 2 * d.n - 1))))
    for kind, scan in scans.items():
        want = _ordered_match_keys(m for m in scan if m.anchors[0] in positions)
        assert _ordered_match_keys(_full_matches(d, kind, positions=positions)) == want


def test_gap_relation_agrees_with_solve_gaps():
    # every model has one (16 R2, 288 R3); the matcher uses the relations
    # that the loaded descriptor tables carry
    assert len([_gap_relation(m) for kind in ("R2", "R3") for m in oracle_models(kind)]) == 304
    grid = range(-1, 3)
    entries = [
        e
        for kind in ("R2", "R3") for mode in ("gauss", "plain")
        for es in _full_anchor_table(kind, mode).values() for e in es
    ]
    assert len(entries) == 2 + 4 + 32 + 64
    for _i, model, _side, _order, y in entries:
        crossings = tuple(range(model.ncross))
        for K in grid:
            for marks in product(grid, repeat=model.ncross):
                holds = y[0] * K + sum(yc * mc for yc, mc in zip(y[1:], marks)) == 0
                solved = _solve_gaps(model, crossings, dict(enumerate(marks)), K)
                assert holds == (solved is not None)


def test_gap_relation_rejects_a_degenerate_system():
    r3 = move_oracles.models("R3")[0]
    same = frozenset({0})
    flat = LocalModel("R3", 3, 3, r3.signs, (same, same, same), r3.words)
    with pytest.raises(ValueError, match="more than one left-null vector"):
        _gap_relation(flat)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(-6, 6),
    marks=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    allowed=st.sets(st.integers(-6, 6), min_size=1, max_size=5),
)
def test_closed_form_completion_matches_the_rational_oracle(K, marks, allowed):
    # the same option dicts with the same key order as the Fraction
    # elimination, for every descriptor (12 + 96 classes, 96 + 192 shapes)
    window = MarkingWindow(allowed, K)
    entries = [
        e
        for mode in ("pairprod", "gauss")
        for table in (_pair_descriptors(mode), unreduced_pair_table(mode))
        for v in table.values() for e in v
    ]
    assert len(entries) == 12 + 96 + 96 + 192
    for model, _side, pair, third, y, _x_first in entries:
        assert third not in pair and len(set(pair)) == 2
        got = [_complete_marks(pair, third, y, marks[0], marks[1], K)]
        want = _mark_options(model, pair, dict(zip(pair, marks)), K, window)
        assert [list(o.items()) for o in got] == [list(o.items()) for o in want]


@pytest.mark.parametrize("coefficient", [0, 2])
def test_a_pair_descriptor_that_does_not_pin_its_hidden_crossing_is_rejected(coefficient):
    # the builder of the six-term tables refuses a model whose gap relation
    # leaves the hidden crossing's marking open, so no table file can hold
    # one (_complete_marks needs the coefficient +-1)
    r3 = move_oracles.models("R3")[0]
    if coefficient == 0:
        # crossings 0 and 1 mark the same gap: crossing 2's marking is free
        # once they are seen, and the gap relation is (0, -1, 1, 0)
        gaps = (frozenset({0}), frozenset({0}), frozenset({1}))
        flat = LocalModel("R3", 3, 3, r3.signs, gaps, r3.words)
        patch = mock.patch.object(move_oracles, "models", lambda _kind: [flat])
    else:
        # a relation that pins each crossing only up to a factor 2
        patch = mock.patch.object(move_oracles, "_gap_relation", lambda _m: (1, 2, 2, 2))
    builders = (move_oracles._pair_descriptors, _normal_forms)
    for mode in ("pairprod", "gauss"):
        for table in builders:
            table.cache_clear()
        try:
            with patch:
                with pytest.raises(ValueError, match="does not pin the hidden crossing"):
                    move_oracles._pair_descriptors(mode)
        finally:
            for table in builders:
                table.cache_clear()


def _rotated_key(model, rot):
    """The LocalModel.key of model with its slots rotated by rot and its
    crossings unrenamed."""
    ns = model.nslots
    words = {side: tuple(g[(s + rot) % ns] for s in range(ns)) for side, g in model.words.items()}
    markexpr = tuple(frozenset((x - rot) % ns for x in e) for e in model.markexpr)
    return (model.kind, model.signs, markexpr, tuple(sorted(words.items())))


def test_the_r3_models_are_one_per_rotation_orbit_of_the_oracle():
    # the rotations of the 96 R3 models that the move tables are built from
    # are the oracle's 288, and no orbit is shorter than 3, so each model
    # stands for three
    oracle = {m.key for m in oracle_models("R3")}
    assert len(oracle) == 288
    orbits = [{_rotated_key(m, rot) for rot in range(3)} for m in move_oracles.models("R3")]
    assert all(len(orbit) == 3 for orbit in orbits)
    assert set().union(*orbits) == oracle
    assert sum(map(len, orbits)) == 288


@pytest.mark.parametrize("table, args, digest", [
    (move_oracles._pair_descriptors, ("pairprod",), "d7791bd7c85f9bbf"),
    (move_oracles._pair_descriptors, ("gauss",), "ed7f0270db8ff46d"),
    (_full_anchor_table, ("R2", "gauss"), "8de3a40169f164cf"),
    (_full_anchor_table, ("R2", "plain"), "c381d62ea2751404"),
    (_full_anchor_table, ("R3", "gauss"), "51b3155a7447b043"),
    (_full_anchor_table, ("R3", "plain"), "a46b6fefdecb5a85"),
])
def test_descriptor_tables_are_pinned(table, args, digest):
    # the first 16 hex digits of the SHA-256 of each table, entry by entry
    # and in order, as the tables were when every build normalized each
    # model at every rotation itself; the six-term tables as built, with
    # the singles and weights that the program's entries leave out (the
    # loaded tables are the built ones without them, tested below)
    assert hashlib.sha256(repr(_plain(table(*args))).encode()).hexdigest()[:16] == digest


def _plain(x):
    """x with every local model replaced by its key and every dict by its
    item list, for comparing tables built at different times entry by
    entry, in order."""
    if isinstance(x, LocalModel):
        return x.key
    if isinstance(x, dict):
        return [(_plain(k), _plain(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _typed(x):
    """x with every local model replaced by its key, slot and crossing
    counts, keeping the type of every container, so that a list where a
    tuple belongs compares unequal."""
    if isinstance(x, LocalModel):
        return ("LocalModel", x.key, x.nslots, x.ncross)
    if isinstance(x, dict):
        return {_typed(k): _typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_typed(v) for v in x)
    return x


def _built_pair_table(mode):
    """The six-term table as built, in the program's entry format."""
    return {
        roles: [program_entry(e) for e in entries]
        for roles, entries in move_oracles._pair_descriptors(mode).items()
    }


_LOADED_AND_BUILT = (
    [(moves.models, move_oracles.models, ("R2",))]
    + [(_pair_descriptors, _built_pair_table, (mode,)) for mode in ("pairprod", "gauss")]
    + [
        (_full_anchor_table, move_oracles._full_anchor_table, (kind, mode))
        for kind in ("R2", "R3") for mode in ("plain", "gauss")
    ]
)


def test_the_committed_move_tables_are_the_builders_output():
    # every file the program loads is, byte for byte, what the builders in
    # move_oracles serialize, and the folder holds no other file
    files = serialize_tables()
    assert len(files) == 7
    assert sorted(p.name for p in moves._TABLES.iterdir()) == sorted(n + ".json" for n in files)
    for name, text in files.items():
        assert (moves._TABLES / (name + ".json")).read_bytes() == text.encode(), name


@pytest.mark.parametrize(
    "loaded, built, args", _LOADED_AND_BUILT,
    ids=["-".join([t.__name__] + list(a)) for t, _b, a in _LOADED_AND_BUILT],
)
def test_a_loaded_table_is_the_built_table(loaded, built, args):
    # each decoder gives back its builder's table: entries, their order and
    # the types of their parts
    assert _plain(loaded(*args)) == _plain(built(*args))
    assert _typed(loaded(*args)) == _typed(built(*args))


def test_every_loaded_six_term_entry_pins_its_hidden_crossing():
    # _complete_marks inverts the hidden crossing's coefficient
    for mode in ("pairprod", "gauss"):
        for entries in _pair_descriptors(mode).values():
            for _m, _side, pair, third, relation, _x in entries:
                assert third == 3 - sum(pair) and relation[third + 1] in (1, -1)


def test_a_missing_move_table_is_an_error():
    # the program has no other source of a table: there is no R3 model
    # file, and asking for it fails
    with pytest.raises(FileNotFoundError):
        moves.read_table("models_R3")


def test_the_template_hash_is_the_digest_of_the_move_tables():
    # the digest the cache paths carry, recomputed from the oracle's move
    # lists in their build order (sorted() over keys holding frozensets is
    # a partial order, so the blob depends on it), which the test above
    # ties to the program's models: a change to any model must change the
    # pin, so that no stale basis is served
    blob = repr([sorted(m.key for m in oracle_models(k)) for k in ("R1", "R2", "R3")])
    assert hashlib.sha256(blob.encode()).hexdigest() == engine._template_hash() == (
        "a6a92a1525e43e3334f103216d6dd828b13f735204962ad2403e82108edf3883"
    )


def _rewritable_shape():
    """The mark-free shape, as a one-element argument tuple (the argument
    of its rewrite template), of the first non-monotonic degenerate
    diagram of degree 2 over {1, 2}, K=3, whose triangle rewrite is
    nonzero."""
    w = MarkingWindow({1, 2}, 3)
    for d in enumerate_diagrams("arrow", 2, w):
        for arc in range(2 * d.n):
            dd = DegenerateDiagram(BasedDiagram(d, arc))
            if not dd.is_monotonic() and boundary._triangle_rewrite(dd._key):
                kind, _K, word = dd._key
                return ((kind, tuple((t, h, s) for t, h, _m, s in word)),)
    raise AssertionError("no rewritable diagram")


# the program's loaded tables, and the builders of the ones it no longer
# keeps (the R3 models, the normal forms and the full descriptor lists)
_CACHED_TABLES = (
    [(moves.models, ("R2",)), (move_oracles.models, ("R3",))]
    + [(_pair_descriptors, (mode,)) for mode in ("pairprod", "gauss")]
    + [
        (table, (kind, mode))
        for table in (_full_descriptors, _full_anchor_table)
        for kind in ("R2", "R3") for mode in ("gauss", "plain")
    ]
    + [(_normal_forms, (kind,)) for kind in ("R2", "R3")]
    + [(engine.enumerate_Un, (3,))]
    + [(boundary._rewrite_template, _rewritable_shape)]
)


@pytest.mark.parametrize(
    "table, args", _CACHED_TABLES,
    ids=[
        "-".join([t.__name__] + ([] if callable(a) else [str(x) for x in a]))
        for t, a in _CACHED_TABLES
    ],
)
def test_a_cached_table_is_built_once_and_rebuilds_equal(table, args):
    if callable(args):
        args = args()
    first = table(*args)
    assert table(*args) is first
    table.cache_clear()
    again = table(*args)
    assert again is not first
    assert _plain(again) == _plain(first)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DiagramError as e:
        return "DiagramError: %s" % e


@settings(max_examples=150, deadline=None)
@given(dense_site_diagrams())
def test_site_local_removal_matches_the_full_scan(d):
    # every census site, then R3 sites that are off by one arrow, position
    # or order, or out of range: same diagram or same error
    sites = [
        (mv, site)
        for count, decode in move_census(d, insertion_moves({0, 1}, None, d.signed))
        for u in range(count)
        for mv, site, _params in [decode(u)] if mv in ("R2-", "R3")
    ]
    size = 2 * d.n
    bad = [("R3", ((0, 1, 2), 0)), ("R3", ((0, 1, 2), size))]
    for mv, (triple, anchor) in [s for s in sites if s[0] == "R3"]:
        bad += [(mv, (triple, (anchor + 1) % size)), (mv, (triple, anchor - size)),
                (mv, (triple[::-1], anchor)), (mv, (triple[1:] + triple[:1], anchor))]
    for mv, site in sites + bad:
        want = _outcome(apply_R_move_full_scan, d, mv, site)
        assert _outcome(apply_R_move, d, mv, site) == want
    for mv, site in sites:
        assert isinstance(apply_R_move(d, mv, site), type(d))


@pytest.mark.parametrize("move", ["R3"])
@pytest.mark.parametrize("site", [5, None, (), (0,), "ab", ((0, 1), 0), (5, 0)])
def test_a_site_of_the_wrong_shape_is_a_diagram_error(move, site):
    # R3 is the one move whose site _apply_move still matches on g
    g = GaussDiagram(2, [(0, 3, 1, 1), (1, 2, 1, -1), (4, 5, 0, 1)])
    with pytest.raises(DiagramError, match=re.escape(repr(site))):
        apply_R_move(g, move, site)


@pytest.mark.parametrize("n, markings, K, limit, kinds", [
    (3, "1", 1, 20, "R1 R2 R3"), (3, "0..1", 1, 5, "R1 R2 R3"), (1, "0..2", 2, None, "R1"),
    (2, "0..2", 2, None, "R1 R2"), (3, "0..2", 2, None, "R1 R2 R3"),
])
def test_r_relation_vectors_match_the_explicit_insertion_loops(n, markings, K, limit, kinds):
    # the span benchmark's three windows and criterion 09's; K=1 over {1}
    # leaves out every head-then-tail kink (its forced marking 0)
    w = MarkingWindow.parse(markings, K)
    got = r_relation_vectors(n, w, limit)
    assert got == r_relation_vectors_explicit(n, w, limit)
    assert sorted({kind for kind, _v in got}) == kinds.split()


@pytest.mark.parametrize("n, markings, K, limit, full_calls", [
    (3, "1", 1, 20, 164), (3, "0..2", 2, None, 4332),
])
def test_r_relation_vectors_match_only_the_degree_n_diagrams(n, markings, K, limit, full_calls):
    # the insertion moves below degree n need no matching: no kink scan,
    # and every full-model match is an R3 search on a degree-n diagram
    with mock.patch.object(relations, "r1_matches", wraps=relations.r1_matches) as r1, \
            mock.patch.object(relations, "_full_matches", wraps=relations._full_matches) as full:
        r_relation_vectors(n, MarkingWindow.parse(markings, K), limit)
    assert r1.call_count == 0
    assert full.call_count == full_calls
    assert {(c.args[0].n, c.args[1]) for c in full.call_args_list} == {(n, "R3")}


def test_r2_insertion_accepts_exactly_the_integer_markings():
    # every R2 model marks both crossings with one single gap, so the gap
    # system has rank 2 and each integer marking is consistent with it; the
    # census offers R2+ insertions with exactly the marking set's markings
    rs = models("R2")
    assert len(rs) == 16
    for k, model in enumerate(rs):
        assert model.markexpr[0] == model.markexpr[1] and len(model.markexpr[0]) == 1
        for K in range(-5, 6):
            g = GaussDiagram(K, [(0, 1, 0, 1)])
            for mark in range(-5, 6):
                assert _solve_gaps(model, (0,), {0: mark}, K) is not None
                assert apply_R_move(g, "R2+", (0, 1), (k, mark)).n == 3
    g = GaussDiagram(1, [(0, 1, 0, 1)])
    for marking_set in ({0}, {-3, 2}, set(range(-5, 6))):
        count, decode = move_census(g, insertion_moves(marking_set, None, True))[2]
        offered = [decode(u) for u in range(count)]
        assert {params[1] for _mv, _site, params in offered} == marking_set
        assert count == 3 * len(models("R2")) * len(marking_set)  # 3 sites on 2 positions


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


def test_window_closure_keeps_only_window_supported_instances():
    w = MarkingWindow({1}, 3)
    closed = gen_family("a6t", 2, w)
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
            # built without validation, equal to the validated diagram
            checked = GaussDiagram(g.K, g2.arrows)
            assert (g2, g2.arrows, g2.aut_order()) == (checked, checked.arrows, checked.aut_order())


def test_move_census_decodes_to_the_explicit_list_in_order():
    # the order pins every seeded walk: sample_move decodes one uniform
    # index per step, so a reordered census changes the walks; as along a
    # walk, one insertion_moves per maximum degree serves every diagram
    rng = seeded(25)
    walks = {m: insertion_moves({0, 1, 2}, m, True) for m in (None, 0, 1, 2, 3, 4, 5)}
    for _ in range(300):
        n = rng.randint(0, 4)
        g = random_gauss_diagram(rng, n, 2, marks=(0, 1, 2))
        for max_degree in (None, n, n + 1, 5):
            blocks = move_census(g, walks[max_degree])
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


# ---------------------------------------------------------------------------
# six-term descriptor classes against the unreduced descriptor table


def test_six_term_descriptor_classes_cover_the_unreduced_table():
    # the builder's classes, with the singles and weights it keeps for
    # this test
    shape = lambda e: (e[0].key, e[1], e[2], e[3])
    for mode, size, shapes in (("pairprod", 12, 96), ("gauss", 96, 192)):
        table = move_oracles._pair_descriptors(mode)
        oracle = unreduced_pair_descriptors(mode)
        assert sum(len(v) for v in table.values()) == size
        assert sum(len(v) for v in oracle.values()) == shapes
        for roles, entries in table.items():
            sigs = [_six_term_signature(*e[:4], mode) for e in oracle[roles]]
            # representatives: the first shape of each class, in table order
            firsts = [i for i, sig in enumerate(sigs) if sig not in sigs[:i]]
            assert [shape(e) for e in entries] == [shape(oracle[roles][i]) for i in firsts]
            assert [e[4] for e in entries] == [sigs.count(sigs[i]) for i in firsts]


def _family_output(family, n, window, closure, hosts):
    insts = gen_family(family, n, window, closure, hosts)
    return [(i.key(), list(i.vector.items())) for i in insts]


@pytest.mark.parametrize("family", ["a6t", "g6t"])
def test_six_term_families_match_the_unreduced_table(family):
    # instance keys in order and vectors with their term order
    species = "arrow" if family == "a6t" else "gauss"
    cases = [
        (1, MarkingWindow({1, 2}, 3)),
        (2, MarkingWindow({1, 2}, 3)),
        (2, MarkingWindow({1}, 3)),
        (3, MarkingWindow({1}, 2)),
        (3, MarkingWindow({0, 1}, 1)),
    ]
    compared = 0
    for n, window in cases:
        every = enumerate_diagrams(species, n, window)
        host_sets = [None, every[::5]] if len(every) <= 100 else [every[::9]]
        for hosts in host_sets:
            for closure in (True, False):
                fast = _family_output(family, n, window, closure, hosts)
                with mock.patch.object(relations, "_pair_descriptors", unreduced_pair_table):
                    slow = _family_output(family, n, window, closure, hosts)
                assert fast == slow
                compared += len(fast)
    assert compared > 200


def _six_term_vectors(d, p, entry):
    """The 6-term vectors one pair descriptor builds at position p."""
    model, side = entry[0], entry[1]
    anchor = model.words[side][0]
    table = {(r1, r2): [] for r1 in (TAIL, HEAD) for r2 in (TAIL, HEAD)}
    table[(anchor[0][1], anchor[1][1])].append(program_entry(_pair_entry(*entry[:4], 1)))
    with mock.patch.object(relations, "_pair_descriptors", lambda _mode: table):
        matches = list(r3_pair_matches(d, positions=[p]))
    assert all(m.model is model for m in matches)  # the patched table reached the matcher
    return [
        LinComb(
            (_build_term(m, pair, sd), _six_term_coeff(m.model, sd, pair, d.signed))
            for sd in ("L", "R") for pair in _PAIRS
        )
        for m in matches
    ]


@st.composite
def six_term_hosts(draw):
    signed = draw(st.booleans())
    n = draw(st.integers(2, 5))
    pos = draw(st.permutations(list(range(2 * n))))
    marks = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1) if signed else (0,)), min_size=n, max_size=n))
    arrows = [(pos[2 * i], pos[2 * i + 1], marks[i], signs[i]) for i in range(n)]
    K = draw(st.integers(0, 2))
    return GaussDiagram(K, arrows) if signed else ArrowDiagram(K, arrows)


@settings(max_examples=40, deadline=None)
@given(six_term_hosts())
def test_every_descriptor_builds_its_class_representatives_terms(d):
    mode = "gauss" if d.signed else "pairprod"
    reps = {
        _six_term_signature(*e[:4], mode): e
        for entries in move_oracles._pair_descriptors(mode).values() for e in entries
    }
    for p in range(2 * d.n):
        rep_vectors = {}
        for entries in unreduced_pair_descriptors(mode).values():
            for entry in entries:
                sig = _six_term_signature(*entry, mode)
                if sig not in rep_vectors:
                    rep_vectors[sig] = _six_term_vectors(d, p, reps[sig])
                got = _six_term_vectors(d, p, entry)
                want = rep_vectors[sig]
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g in (w, -w)


def _pair_match_keys(matches):
    return [
        (_model_key(m.model), m.side, m.present, list(m.arrow_map.items()), list(m.marks.items()),
         list(m.anchors))
        for m in matches
    ]


@settings(max_examples=150, deadline=None)
@given(six_term_hosts())
def test_order_flag_matcher_matches_the_slot_scan(d):
    # the same matches in the same order, over the whole circle and at
    # every fixed position
    mode = "gauss" if d.signed else "pairprod"
    for p in [None] + list(range(2 * d.n)):
        fast = _pair_match_keys(r3_pair_matches(d, positions=None if p is None else [p]))
        assert fast == _pair_match_keys(r3_pair_matches_scan(d, mode, p))


# ---------------------------------------------------------------------------
# the tuple core (gen_family and the solver's rows) against the object path

_DIAGRAM_FAMILIES = ("p1", "p2", "p2h1", "p2h2", "p3", "g6t", "g2t", "ap1", "ap2", "a6t", "a2t")


@st.composite
def family_windows(draw):
    """(family, degree, window, closure, hosts): degrees 1-3 over small
    windows; a random subset of the hosts, or all of them where the window
    is small enough for the object path."""
    family = draw(st.sampled_from(_DIAGRAM_FAMILIES))
    n = draw(st.integers(1, 3))
    marks = draw(st.sets(st.integers(-1, 3), min_size=1, max_size=3 if n < 3 else 2))
    window = MarkingWindow(marks, draw(st.integers(0, 3)))
    closure = draw(st.booleans())
    hosts = None
    if n == 3 and len(marks) > 1 or draw(st.booleans()):
        species = "arrow" if relations.FAMILY_SPECIES[family] == "arrow" else "gauss"
        every = enumerate_diagrams(species, n, window)
        picks = draw(st.lists(st.integers(0, len(every) - 1), max_size=16))
        hosts = [every[i] for i in picks]
    return family, n, window, closure, hosts


def _instances_out(insts):
    return [(i.family, i.key(), list(i.vector.items())) for i in insts]


@settings(max_examples=150, deadline=None)
@given(family_windows())
def test_gen_family_matches_the_object_path(case):
    # keys in order and vectors with their term order
    family, n, window, closure, hosts = case
    fast = gen_family(family, n, window, closure, hosts)
    slow = gen_family_objects(family, n, window, closure, hosts)
    assert _instances_out(fast) == _instances_out(slow)


def _host_list(family, n, marks, extra, K, closure, picks):
    """(family, window, closure, hosts): the window is marks, and hosts
    are the diagrams of the wider window marks | extra at the indices
    `picks` (None: all of them in reverse order, then the first five
    again), so a host may lie outside the window, repeat, or come out of
    order."""
    wide = enumerate_diagrams(relations.FAMILY_SPECIES[family], n, MarkingWindow(marks | extra, K))
    hosts = wide[::-1] + wide[:5] if picks is None else [wide[i % len(wide)] for i in picks]
    return family, MarkingWindow(marks, K), closure, hosts


@st.composite
def host_lists(draw):
    """_host_list over degrees 1-3: every host of a small wider window,
    shuffled and with some repeated (so that instances are found from
    several hosts), or a random pick of hosts."""
    family = draw(st.sampled_from(_DIAGRAM_FAMILIES))
    n = draw(st.integers(1, 3))
    marks = draw(st.sets(st.integers(-1, 3), min_size=1, max_size=2))
    extra = draw(st.sets(st.integers(-1, 3), max_size=1))
    K = draw(st.integers(0, 3))
    closure = draw(st.booleans())
    count = len(enumerate_diagrams(relations.FAMILY_SPECIES[family], n, MarkingWindow(marks | extra, K)))
    if count <= 150 and draw(st.booleans()):
        repeats = draw(st.lists(st.integers(0, count - 1), max_size=8))
        picks = draw(st.permutations(list(range(count)) + repeats))
    else:
        picks = draw(st.lists(st.integers(0, count - 1), max_size=24))
    return _host_list(family, n, marks, extra, K, closure, picks)


@settings(max_examples=150, deadline=None)
@given(host_lists())
@example(_host_list("a6t", 2, {1}, {2}, 3, False, None))
@example(_host_list("a6t", 2, {1}, {2}, 3, True, None))
@example(_host_list("g6t", 2, {0, 1}, {2}, 1, True, None))
@example(_host_list("p3", 3, {1}, {0}, 1, False, None))
@example(_host_list("p2h1", 2, {1}, {0}, 2, True, None))
@example(_host_list("p2", 2, {0}, {1}, 1, False, None))
@example(_host_list("a2t", 3, {1}, {2}, 3, True, [40, 3, 40, 17, 0, 3, 250, 9]))
def test_least_host_generation_is_the_all_copies_generation(case):
    # the same keys in order, the same host objects and the same summed
    # terms in order as when every copy of an instance was spelled
    family, window, closure, hosts = case
    fast = relations._family_vectors(family, hosts, window.allowed, closure)
    slow = family_vectors_all_copies(family, hosts, window.allowed, closure)
    assert list(fast) == list(slow)
    assert all(fast[k][0] is slow[k][0] for k in fast)
    assert [list(v.items()) for _d, v in fast.values()] == [
        list(v.items()) for _d, v in slow.values()
    ]


def test_a_degree_three_family_spells_each_instance_from_its_least_host(monkeypatch):
    # the work of the a6t instances of degree 3 over {1..4} K=5, pinned:
    # 27,816 spliced terms with or without closure (46,240 without and
    # 40,464 with closure when every copy of an instance was spelled)
    calls = []
    real = relations._spliced

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations, "_spliced", counted)
    window = MarkingWindow(range(1, 5), 5)
    assert len(gen_family("a6t", 3, window, closure=False)) == 3440
    assert len(calls) == 27816


def _spans(rows, others):
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    return all(spans(ech, r) for r in others)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-1, 3), min_size=1, max_size=2),
    st.integers(0, 3),
)
# windows whose row space changes when the |Aut| factors are dropped (3 of
# the 180 windows of that range at degrees 1-3)
@example(2, {1, 2}, 3)
@example(2, {0, 1}, 2)
def test_solver_rows_span_the_object_rows(n, marks, K):
    window = MarkingWindow(marks, K)
    columns = enumerate_diagrams("arrow", n, window)
    index = {d: i for i, d in enumerate(columns)}
    rows = relations._constraint_rows(window, columns)
    oracle = [
        {index[k]: int(c) for k, c in row.items()}
        for row in constraint_rows_objects(n, window, columns)
    ]
    assert all(all(0 <= j < len(columns) and c for j, c in r.items()) for r in rows)
    assert _spans(rows, oracle) and _spans(oracle, rows)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-2, 4), min_size=1, max_size=3),
    st.integers(-2, 5),
)
@example(2, {1, 2}, 3)
@example(3, {0, 1, 2}, 2)
@example(3, {1, 2, 3, 4}, 5)
@example(3, {-1, 1}, 0)
@example(3, {0, 1, 2}, 3)  # rho only
@example(0, {0, 1}, 1)
@example(1, {0, 1, 2}, 2)
@example(1, {0, 1}, 0)  # rho only
def test_solver_rows_from_the_least_host_are_the_all_hosts_rows(n, marks, K):
    window = MarkingWindow(marks, K)
    columns = enumerate_diagrams("arrow", n, window)
    assert relations._constraint_rows(window, columns) == constraint_rows_all_hosts(
        window, columns
    )


def _reflected(d, K, flip):
    """The arrows of d with the circle read backwards: rho reverses each
    arrow, sigma (flip) keeps it and maps each marking m to K - m."""
    last = 2 * d.n - 1
    if flip:
        return [(last - t, last - h, K - m, s) for t, h, m, s in d.arrows]
    return [(last - h, last - t, m, s) for t, h, m, s in d.arrows]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 3),
    st.sets(st.integers(-2, 4), min_size=1, max_size=3),
    st.integers(-2, 5),
)
@example(3, {1, 2, 3, 4}, 5)
@example(2, {-2, -1, 0, 1, 2, 3}, 2)  # rho only
def test_the_solver_symmetries_are_involutions_that_fix_the_rows(n, marks, K):
    window = MarkingWindow(marks, K)
    columns = enumerate_diagrams("arrow", n, window)
    index = {d: i for i, d in enumerate(columns)}
    others = relations._symmetries(window, columns, {d.arrows: i for d, i in index.items()})
    flip = {K - x for x in marks} == set(marks)
    assert len(others) == (3 if flip else 1)
    for g, f in zip(others[:2], (False, True)):
        assert g == [index[ArrowDiagram(K, _reflected(d, K, f))] for d in columns]
        assert all(g[g[i]] == i for i in range(len(columns)))
    if flip:
        rho, sigma, both = others
        assert [rho[j] for j in sigma] == [sigma[j] for j in rho] == both
    keys = {relations._proportion_key(r) for r in constraint_rows_all_hosts(window, columns)}
    for g in others:
        assert {relations._proportion_key({g[j]: c for j, c in k}) for k in keys} == keys


def test_solver_rows_spell_each_instance_from_its_least_host_only(monkeypatch):
    # degree 3 over 1..4 K=5: one host per orbit of the symmetries (rho and
    # sigma) spells 4,309 terms for the 2,580 rows; spelling each 6-term
    # instance from every in-window host term took 23,136
    window = MarkingWindow(range(1, 5), 5)
    columns = enumerate_diagrams("arrow", 3, window)
    calls = []
    real = relations._spliced

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(relations, "_spliced", counted)
    rows = relations._constraint_rows(window, columns)
    assert len(rows) == 2580
    assert len(calls) == 4309
    monkeypatch.setattr(relations, "_spliced", real)
    assert rows == constraint_rows_all_hosts(window, columns)


def test_solver_rows_are_distinct_up_to_scale_and_shortest_first():
    window = MarkingWindow({1, 2}, 3)
    rows = relations._constraint_rows(window, enumerate_diagrams("arrow", 2, window))
    keys = [relations._proportion_key(r) for r in rows]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys, key=lambda k: (len(k), k))


@pytest.mark.parametrize("gamma,kept", [((2, 1, 2, -1), 45), ((1, 1, -1, -2), 34)])
def test_each_returned_instance_is_built_once(gamma, kept):
    f = engine.gv_formula(3, gamma)
    window = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
    support = list(f.vector.keys())
    built = []
    real = relations.RelationInstance.__init__

    def counted(self, family, vector):
        built.append(family)
        real(self, family, vector)

    with mock.patch.object(relations.RelationInstance, "__init__", counted):
        insts = gen_family("a6t", 3, window, closure=False, hosts=support)
    assert len(insts) == kept
    assert len(built) == kept


@settings(max_examples=60, deadline=None)
@given(six_term_hosts())
def test_spliced_terms_are_valid_and_the_private_constructor_is_the_public_one(d):
    # every descriptor: the unreduced six-term table and every full model
    cls = type(d)
    with mock.patch.object(relations, "_pair_descriptors", unreduced_pair_table):
        matches = list(r3_pair_matches(d))
    matches += list(_full_matches(d, "R3")) + list(_full_matches(d, "R2"))
    for m in matches:
        # the match's own term is its host (the core reuses its canonical form)
        assert relations._spliced(m, m.present, m.side) == (d.arrows, d.aut_order())
        r3 = m.model.kind == "R3"
        for side in ("L", "R") if r3 else (m.side,):
            for present in [(0, 1, 2)] + list(_PAIRS) if r3 else [(0, 1)]:
                arrows = relations._assemble_term(m, present, side)[0]
                diagrams._validate(len(arrows), arrows, d.signed)
    allowed = {a[2] for a in d.arrows}
    families = [f for f in _DIAGRAM_FAMILIES if (relations.FAMILY_SPECIES[f] == "gauss") == d.signed]
    for family in families:
        for terms in relations._host_instances(family, d, allowed):
            for _c, _inside, spell in terms:
                canon, aut = spell()
                fast = cls._canonical(d.K, canon, aut)
                public = cls(d.K, canon)
                assert fast == public and fast.arrows == public.arrows
                assert hash(fast) == hash(public)
                assert fast.aut_order() == public.aut_order()


# ---------------------------------------------------------------------------
# the Polyak span check on the tuple core against the object path


def _span_report(rep):
    return (
        rep["checked"],
        rep["skipped"],
        [(kind, list(r.items())) for kind, r in rep["failures"]],
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.sets(st.integers(-1, 3), min_size=1),
    st.integers(-2, 3),
    st.sampled_from((None, 1, 5)),
)
@example(3, {1}, 1, 20)
@example(3, {0, 1}, 1, 5)
def test_span_check_matches_the_object_path(n, marks, K, limit):
    window = MarkingWindow(marks, K)
    fast = relations.check_I_span_compat(n, window, limit)
    slow = check_I_span_compat_objects(n, window, limit)
    assert _span_report(fast) == _span_report(slow)


@st.composite
def gauss_combinations(draw):
    """A LinComb of Gauss diagrams of degrees 0-4 over one K, with small
    integer coefficients."""
    K = draw(st.integers(-2, 3))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        pos = draw(st.permutations(list(range(2 * n))))
        marks = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        arrows = [(pos[2 * i], pos[2 * i + 1], marks[i], signs[i]) for i in range(n)]
        terms.append((GaussDiagram(K, arrows), draw(st.integers(-3, 3))))
    return LinComb(terms)


@settings(max_examples=100, deadline=None)
@given(gauss_combinations())
def test_the_tuple_I_row_is_the_subdiagram_expansion(r):
    want = {k.arrows: int(c) for k, c in subdiagram_expand_I(r).items()}
    assert I_row_all_subsets(r) == want


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-1, 3), min_size=1, max_size=2),
    st.integers(-2, 3),
    st.sampled_from((None, 5, 40)),
)
@example(3, {0, 1}, 1, None)
@example(3, {1}, 1, 20)
def test_the_I_row_of_a_move_is_its_changed_subsets(n, marks, K, limit):
    # R1+ and R2+ rows hold only the subsets with a created arrow, R3 rows
    # those with two arrows of the triple; both equal the all-subsets row
    window = MarkingWindow(marks, K)
    vectors = relations._r_vectors(
        n, window, limit, lambda deg: enumerate_diagrams("gauss", deg, window)
    )
    assert [(kind, r) for kind, r, _change in vectors] == r_relation_vectors(n, window, limit)
    for _kind, r, change in vectors:
        assert relations._I_row(change) == I_row_all_subsets(r)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-1, 3), min_size=1, max_size=2),
    st.integers(-2, 3),
)
@example(3, {0, 1}, 1)
def test_the_tuple_P_rows_span_the_object_rows(n, marks, K):
    window = MarkingWindow(marks, K)
    hosts = [enumerate_diagrams("gauss", deg, window) for deg in range(n + 1)]
    rows = list(relations._p_relation_rows(hosts))
    instances = [
        inst
        for deg in range(1, n + 1)
        for family in ("p1", "p2", "p3")
        for inst in gen_family_objects(family, deg, window, closure=False)
    ]
    # no instance has a term outside the window, so closure drops none
    assert all(_in_window(inst.vector, window) for inst in instances)
    oracle = [{k.arrows: int(c) for k, c in inst.vector.items()} for inst in instances]
    fast, slow = echelon_of(rows), echelon_of(oracle)
    assert fast.rank() == slow.rank()
    assert all(spans(fast, r) for r in oracle) and all(spans(slow, r) for r in rows)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-1, 3), min_size=1, max_size=3),
    st.integers(-2, 3),
)
@example(3, {0, 1}, 1)
def test_the_span_rows_need_no_window_closure(n, marks, K):
    window = MarkingWindow(marks, K)
    hosts = [enumerate_diagrams("gauss", deg, window) for deg in range(n + 1)]
    for row in relations._p_relation_rows(hosts):
        assert all(a[2] in window.allowed for arrows in row for a in arrows)
    for deg in range(1, n + 1):
        for family in ("p1", "p2", "p3"):
            closed = relations._family_vectors(family, hosts[deg], window.allowed, True)
            open_ = relations._family_vectors(family, hosts[deg], window.allowed, False)
            assert list(closed.items()) == list(open_.items())
            # every term of every instance lies in the window
            assert all(e[2] for _d, vec in open_.values() for e in vec.values())
    assert relations.check_I_span_compat(min(n, 2), window, 5)["skipped"] == {}


def _family_keys(family, hosts, window):
    vectors = relations._family_vectors(family, hosts, window.allowed, False).values()
    return {relations._proportion_key({k: e[0] for k, e in vec.items()}) for _d, vec in vectors}


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3),
    st.sets(st.integers(-1, 3), min_size=1, max_size=2),
    st.integers(-2, 3),
)
@example(3, {1}, 1)
@example(3, {0, 1}, 1)
@example(2, {0, 1, 2}, 2)
@example(3, {0, 1, 2}, 2)
@example(3, {-1, 0, 1}, 0)  # a triple that carries two R3 configurations
@example(4, {1}, 1)
def test_the_span_rows_are_the_family_rows_up_to_scale(n, marks, K):
    # exactly the proportion keys of the p1, p2 and p3 instances, degree by
    # degree: one hit per configuration and the least-host drop lose none
    window = MarkingWindow(marks, K)
    for deg in range(1, n + 1):
        hosts = enumerate_diagrams("gauss", deg, window)
        rows = relations._p_relation_rows([()] * deg + [hosts])
        want = set().union(*(_family_keys(f, hosts, window) for f in ("p1", "p2", "p3")))
        assert {relations._proportion_key(r) for r in rows} == want


def test_span_rows_spell_each_r3_configuration_once_from_its_least_host(monkeypatch):
    # degree 3 over {0,1} K=1, 5 moves per kind: one scan per host and one
    # hit per configuration, spelled only from the lesser full term, spell
    # 384 terms and scan 1,469 times; spelling every hit from every host
    # that holds it took 1,344 and 2,813
    calls = {"_spliced": 0, "_full_hits": 0}
    for name in calls:
        real = getattr(relations, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(relations, name, counted)
    rep = relations.check_I_span_compat(3, MarkingWindow({0, 1}, 1), 5)
    assert (rep["checked"], rep["failures"]) == (49, [])
    assert calls == {"_spliced": 384, "_full_hits": 1469}


def test_withheld_p3_rows_make_the_span_check_report_R3_failures(monkeypatch):
    # the span check's P-row loop is its only scan for both kinds at once
    # (its R3 moves are matched by _full_matches(g, "R3"), a scan for R3
    # alone), so dropping that scan's R3 hits withholds every p3 row; the
    # object path builds its p3 instances through _host_instances
    real_hits, real_instances = relations._full_hits, relations._host_instances

    def r2_hits_only(d, r2, r3, positions=None):
        hits = real_hits(d, r2, r3, positions)
        return (hit for hit in hits if hit[0] == "R2") if r2 and r3 else hits

    def without_p3(family, d, allowed):
        return iter(()) if family == "p3" else real_instances(family, d, allowed)

    monkeypatch.setattr(relations, "_full_hits", r2_hits_only)
    monkeypatch.setattr(relations, "_host_instances", without_p3)
    window = MarkingWindow({1}, 1)
    rep = relations.check_I_span_compat(3, window, limit_per_kind=5)
    vectors = r_relation_vectors(3, window, 5)
    assert rep["checked"] == len(vectors)
    assert rep["failures"] and {kind for kind, _r in rep["failures"]} == {"R3"}
    for kind, r in rep["failures"]:
        assert (kind, r) in vectors
        assert textio.parse_lincomb(textio.print_lincomb(r)) == r
    assert _span_report(rep) == _span_report(check_I_span_compat_objects(3, window, 5))
