"""Formula solving, evaluation, move walks, and planar chain formulas."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrowforms import diagrams, engine, relations, textio
from arrowforms.diagrams import ArrowDiagram, DiagramError, GaussDiagram
from arrowforms.engine import (
    ChainPresentation,
    Formula,
    GammaCollection,
    check_formula,
    enumerate_Un,
    evaluate,
    gv_formula,
    homogeneous_components,
    normalization_window,
    null_pair_formula,
    sample_move,
    solve_formula_space,
    verify_invariance,
)
from arrowforms.lincomb import LinComb
from arrowforms.relations import MarkingWindow

from conftest import boundary_route, random_gauss_diagram, seeded
from move_oracles import (
    available_moves,
    check_formula_objects,
    check_pairings_all_copies,
    double_angle,
    family_vectors_all_copies,
)


def test_formula_accessors():
    f = null_pair_formula(2, 5)
    assert list(f.degrees()) == [2]
    assert set(f.markings()) == {0, 2, 3}
    assert homogeneous_components(f) == [f]
    assert f == Formula(f.vector, 5)


def test_solver_small_window():
    w = MarkingWindow({1, 2}, 3)
    basis = solve_formula_space(2, w)
    assert len(basis) == 2
    for f in basis:
        assert check_formula(f, w)["passes"]


_ROUTE_WINDOWS = [
    ({1, 2, 3, 4}, 5), ({1, 2}, 5), ({0, 1, 2, 3}, 5), ({-1, 0, 1}, 3), ({1, 2}, 3),
]
_ROUTE_CASES = [(n, a, K) for n in (1, 2) for a, K in _ROUTE_WINDOWS] + [
    (3, {0, 1, 2}, 2), (3, {1, 2}, 5), (3, {1, 2}, 3),
]


@pytest.mark.parametrize(
    "n, allowed, K",
    _ROUTE_CASES,
    ids=["d%d-%s-K%d" % (n, ",".join(map(str, sorted(a))), K) for n, a, K in _ROUTE_CASES],
)
def test_the_relation_and_boundary_routes_print_the_same_basis(n, allowed, K):
    # the reduced kernel basis depends only on the kernel and the column
    # order, so equal kernels print byte for byte the same basis file
    w = MarkingWindow(allowed, K)
    relation = textio.print_basis(solve_formula_space(n, w))
    boundary = textio.print_basis([Formula(v, K) for v in boundary_route(n, w)])
    assert relation == boundary


def test_the_solver_guard_admits_degree_four_over_four_markings(monkeypatch):
    # 53,864 columns, estimated as 218 shape classes x 4^4 markings = 55,808
    class Reached(Exception):
        pass

    def reached(*_args):
        raise Reached

    monkeypatch.setattr(engine, "enumerate_diagrams", reached)
    with pytest.raises(Reached):
        solve_formula_space(4, MarkingWindow({1, 2, 3, 4}, 5))


def test_a_solve_enumerates_its_columns_once(monkeypatch):
    calls = []
    real = relations.enumerate_diagrams

    def counted(species, n, window):
        calls.append((species, n))
        return real(species, n, window)

    monkeypatch.setattr(engine, "enumerate_diagrams", counted)
    monkeypatch.setattr(relations, "enumerate_diagrams", counted)
    assert len(solve_formula_space(2, MarkingWindow({1, 2}, 3))) == 2
    assert calls == [("arrow", 2)]


def test_solver_cache_round_trip(tmp_path):
    w = MarkingWindow({1, 2}, 3)
    first = solve_formula_space(2, w, cache_dir=str(tmp_path))
    files = list(tmp_path.rglob("*.basis"))
    assert len(files) == 1
    payload = files[0].read_bytes()
    second = solve_formula_space(2, w, cache_dir=str(tmp_path))
    assert second == first
    assert files[0].read_bytes() == payload


def test_solver_cache_path_is_pinned(tmp_path):
    # the path carries the window and the template pin: a change to either
    # orphans every cached basis, so it changes only with this test
    path = engine._cache_path(tmp_path, 2, MarkingWindow({1, 2}, 3))
    assert path.relative_to(tmp_path).as_posix() == "3/2/2dda400d7a3a34a9.basis"
    solve_formula_space(2, MarkingWindow({1, 2}, 3), cache_dir=str(tmp_path))
    assert list(tmp_path.rglob("*.basis")) == [path]


def test_solver_cache_hit_returns_what_a_miss_returns(tmp_path):
    w = MarkingWindow({1, 2}, 3)
    cold = solve_formula_space(2, w, cache_dir=str(tmp_path))
    warm = solve_formula_space(2, w, cache_dir=str(tmp_path))
    assert [(f.vector, f.K) for f in warm] == [(f.vector, f.K) for f in cold]


def _plain_report(rep):
    """A check report with its instance as (family, key, terms) and every
    family's pairing with its type, for comparing reports."""
    rep = dict(rep)
    hit = rep["first_nonzero"]
    if hit is not None:
        hit = dict(hit)
        inst = hit.pop("instance")
        hit["instance"] = (inst.family, inst.key(), list(inst.vector.items()))
    rep["first_nonzero"] = hit
    rep["families"] = [(fam, v, type(v)) for fam, v in rep["families"].items()]
    return rep


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.sampled_from((-2, -1, 1, 2, 3)), min_size=n + 1, max_size=n + 1)
    ),
    st.integers(0, 10 ** 6),
    st.sampled_from((None, 1, -1, Fraction(1, 2), Fraction(-3, 2))),
)
def test_check_report_matches_the_object_path(gamma, pick, change):
    # a gv formula, or a copy with one coefficient changed (None: unchanged,
    # and a change may cancel the term)
    f = gv_formula(len(gamma) - 1, gamma)
    if change is not None:
        terms = list(f.vector.items())
        k, c = terms[pick % len(terms)]
        terms[pick % len(terms)] = (k, c + change)
        f = Formula(LinComb(terms), f.K)
    w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
    assert _plain_report(check_formula(f, w)) == _plain_report(check_formula_objects(f, w))


def _raised(f, pick):
    """f with the coefficient of its term number pick (mod the term count)
    raised by 1."""
    terms = list(f.vector.items())
    k, c = terms[pick % len(terms)]
    terms[pick % len(terms)] = (k, c + 1)
    return Formula(LinComb(terms), f.K)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.sampled_from((-2, -1, 1, 2, 3)), min_size=n + 1, max_size=n + 1)
    ),
    st.one_of(st.none(), st.integers(0, 10 ** 6)),
)
@example([2, 1, 2, -1], None)
@example([2, 1, 2, -1], 7)
@example([1, -2, 2, -2], 0)
def test_check_pairings_from_the_least_host_are_the_all_copies_pairings(gamma, pick):
    # a gv formula, or a copy with one coefficient raised (which fails):
    # each instance is spelled from the least support term it reaches, and
    # the rows, their order, hosts and terms, and the report are those of
    # every copy spelled
    f = gv_formula(len(gamma) - 1, gamma)
    if pick is not None:
        f = _raised(f, pick)
    w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
    for fam in relations.CONSTRAINT_FAMILIES:
        hosts = list(f.vector.keys())
        least = relations._family_vectors(fam, hosts, w.allowed, False)
        every = family_vectors_all_copies(fam, hosts, w.allowed, False)
        assert [(k, d.arrows, list(v.items())) for k, (d, v) in least.items()] == [
            (k, d.arrows, list(v.items())) for k, (d, v) in every.items()
        ]
    rep = check_formula(f, w)
    hit = rep["first_nonzero"]
    if hit is not None:
        hit = (hit["family"], hit["degree"], hit["index"], list(hit["instance"].vector.items()))
    assert {"families": rep["families"], "first_nonzero": hit} == check_pairings_all_copies(f, w)
    assert rep["passes"] == (pick is None)


def test_a_degree_three_check_spells_each_instance_from_its_least_host(monkeypatch):
    # the work of one degree-3 check, pinned: 341 spliced terms (465 when
    # every copy of an instance was spelled from each support term it
    # reaches)
    f = gv_formula(3, (2, 1, 2, -1))
    w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
    calls = []
    real = relations._spliced

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations, "_spliced", counted)
    rep = check_formula(f, w)
    assert rep["passes"] and rep["consistent"]
    assert len(calls) == 341


def test_a_seeded_degree_four_planar_chain_sample_checks_and_walks():
    # four degree-4 gv formulas: each passes its static check, a copy with
    # one coefficient raised fails at a 6-term instance, and short walks
    # from its first term keep its (nonzero) value
    rng = seeded(4)
    t0 = time.perf_counter()
    for _ in range(4):
        gamma = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(5))
        f = gv_formula(4, gamma)
        w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
        rep = check_formula(f, w)
        assert rep["passes"] and rep["consistent"], gamma
        terms = list(f.vector.items())
        j = rng.randrange(len(terms))
        terms[j] = (terms[j][0], terms[j][1] + 1)
        rep = check_formula(Formula(LinComb(terms), f.K), w)
        assert not rep["passes"] and rep["consistent"], gamma
        assert rep["first_nonzero"]["family"] == "a6t" and not rep["boundary_zero"]
        first = next(iter(f.vector.keys()))
        walk = verify_invariance(f, first.with_signs([1] * 4), 3, 10, rng.randrange(1 << 30))
        assert walk["constant"] and walk["value"] != 0, gamma
    assert time.perf_counter() - t0 < 30


def test_check_formula_rejects_out_of_window_marks():
    f = null_pair_formula(2, 5)
    with pytest.raises(ValueError):
        check_formula(f, MarkingWindow({1, 2}, 5))


def test_check_formula_fails_non_invariant():
    bad = Formula(LinComb.single(ArrowDiagram(5, [(0, 1, 1, 0), (2, 3, 2, 0)])), 5)
    rep = check_formula(bad, MarkingWindow({1, 2, 3, 4}, 5))
    assert not rep["passes"]
    assert rep["consistent"]


def test_evaluate_matches_bracket_oracle():
    rng = seeded(51)
    f = gv_formula(2, (1, 1, 3))
    for _ in range(60):
        g = random_gauss_diagram(rng, rng.randint(1, 4), 5, marks=(0, 1, 2, 3, 4, 5))
        expected = sum(
            (c * double_angle(a, g) for a, c in f.vector.items()),
            Fraction(0),
        )
        assert evaluate(f, g) == expected


@st.composite
def signed_arrows(draw, n, signed=True):
    pos = draw(st.permutations(list(range(2 * n))))
    return [
        (
            pos[2 * i],
            pos[2 * i + 1],
            draw(st.integers(0, 2)),
            draw(st.sampled_from((1, -1))) if signed else 0,
        )
        for i in range(n)
    ]


@st.composite
def formula_and_knots(draw):
    """A mixed-degree formula over K=2 and a few Gauss diagrams; half the
    terms are sign-less subdiagrams of the first diagram, so matches occur."""
    knots = [
        GaussDiagram(2, draw(signed_arrows(n)))
        for n in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    ]
    return _draw_formula(draw, knots[0]), knots


def _draw_formula(draw, g):
    """A formula over K=2 with terms of degrees 0..3; about half of them
    are sign-less subdiagrams of g."""
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        if g.n and draw(st.booleans()):
            sub = draw(st.sets(st.integers(0, g.n - 1), max_size=3))
            a = g.subdiagram(sub).forget_signs()
        else:
            a = ArrowDiagram(2, draw(signed_arrows(draw(st.integers(0, 3)), signed=False)))
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms.append((a, c))
    return Formula(LinComb(terms), 2)


@st.composite
def formula_and_walk_start(draw):
    """A Gauss diagram of 0..5 arrows over K=2 and a formula drawn as in
    formula_and_knots."""
    g = GaussDiagram(2, draw(signed_arrows(draw(st.integers(0, 5)))))
    return _draw_formula(draw, g), g


def fraction_table(f):
    """{degree: {key: coefficient * |Aut|}}: the rotation-compiled table
    as Formula.table built it before its weights became integers."""
    table = {}
    for k, c in f.vector.items():
        terms = table.setdefault(k.n, {})
        size = 2 * k.n
        weight = c * k.aut_order()
        for r in range(max(1, size)):
            rotated = (((t - r) % size, (h - r) % size, m) for t, h, m, _s in k.arrows)
            terms[tuple(sorted(rotated))] = weight
    return table


def fraction_subset_value(f, arrows, touched=(), least=0):
    """The scorer before integer weights and mark filtering, the oracle of
    engine._subset_value: every subset is renumbered and looked up, and the
    value is a Fraction."""
    mine = [arrows[i] for i in touched]
    rest = [a for i, a in enumerate(arrows) if i not in touched]
    total = Fraction(0)
    for deg, terms in fraction_table(f).items():
        signed_counts = {}  # matched key -> sum of sign products, an int
        for k in range(least, min(deg, len(mine)) + 1):
            for part in combinations(mine, k):
                for others in combinations(rest, deg - k):
                    sub = part + others
                    pos = sorted(p for a in sub for p in a[:2])
                    renum = {p: q for q, p in enumerate(pos)}
                    key = tuple(sorted((renum[t], renum[h], m) for t, h, m, _s in sub))
                    if key in terms:
                        prod = 1
                        for a in sub:
                            prod *= a[3]
                        signed_counts[key] = signed_counts.get(key, 0) + prod
        for key, count in signed_counts.items():
            total += terms[key] * count
    return total


@settings(max_examples=200, deadline=None)
@given(formula_and_knots(), st.data())
def test_integer_scorer_matches_the_fraction_oracle(drawn, data):
    f, knots = drawn
    den = f.table()[0]
    for g in knots:
        touched = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=3)) if g.n else []
        least = data.draw(st.sampled_from((0, 1, 2)))
        got = engine._subset_value(f, g.arrows, touched, least)
        assert isinstance(got, int)
        assert Fraction(got, den) == fraction_subset_value(f, g.arrows, touched, least)
        assert evaluate(f, g) == fraction_subset_value(f, g.arrows)


@settings(max_examples=150, deadline=None)
@given(formula_and_knots())
def test_compiled_evaluate_matches_double_angle(drawn):
    f, knots = drawn
    for g in knots:
        expected = sum(
            (c * double_angle(a, g) for a, c in f.vector.items()),
            Fraction(0),
        )
        assert evaluate(f, g) == expected
    assert f.table() is f.table()


def test_running_value_is_the_full_value_after_every_step():
    kinds = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(formula_and_walk_start(), st.integers(0, 2**32 - 1))
    def walk(drawn, seed):
        f, g = drawn
        rng = random.Random(seed)
        den = f.table()[0]
        value = engine._subset_value(f, g.arrows)  # an int over den
        insertions = relations.insertion_moves({0, 1, 2}, g.n + 4, g.signed)
        for _step in range(12):
            mv = sample_move(g, insertions, rng)
            if mv is None:
                break
            g, value = engine._walk_step(f, g, value, mv)
            assert Fraction(value, den) == fraction_subset_value(f, g.arrows)
            kinds.add(mv[0])

    walk()
    assert kinds == {"R1+", "R1-", "R2+", "R2-", "R3"}


def test_evaluate_builds_no_canonical_form(monkeypatch):
    g = GaussDiagram(2, [(0, 3, 1, 1), (1, 4, 2, -1), (2, 5, 1, 1)])
    vector = LinComb([
        (g.forget_signs(), Fraction(1, 2)),
        (g.subdiagram([0, 1]).forget_signs(), 1),
        (g.subdiagram([2]).forget_signs(), -3),
        (ArrowDiagram(2), 2),
    ])
    expected = sum((c * double_angle(a, g) for a, c in vector.items()), Fraction(0))
    assert expected

    def refuse(*args):
        raise AssertionError("canonical_arrows called")

    monkeypatch.setattr(diagrams, "canonical_arrows", refuse)
    assert evaluate(Formula(vector, 2), g) == expected


def test_the_end_of_trial_guard_catches_a_wrong_running_value(monkeypatch):
    f = gv_formula(2, (1, 1, 1))
    g0 = GaussDiagram(3, [(0, 2, 1, 1), (1, 3, 2, -1)])
    step = engine._walk_step
    monkeypatch.setattr(
        engine, "_walk_step", lambda f, g, value, mv: (step(f, g, value, mv)[0], value + 1)
    )
    with pytest.raises(AssertionError, match="running value"):
        verify_invariance(f, g0, trials=5, walk_length=12, seed=3)


def test_seeded_walks_take_the_pinned_path(monkeypatch):
    # every move of these walks and the arrows it leads to, joined and
    # hashed: the digest of the walks as they ran when each move result was
    # validated again and every subset scored in Fractions
    log = []
    step = engine._walk_step

    def logged(f, g, value, mv):
        new, value = step(f, g, value, mv)
        log.append(repr((mv, new.arrows)))
        return new, value

    monkeypatch.setattr(engine, "_walk_step", logged)
    g0 = GaussDiagram(5, [(0, 2, 1, 1), (1, 3, 2, -1)])
    basis = solve_formula_space(2, MarkingWindow(range(1, 5), 5))
    assert len(basis) == 12
    for i, f in enumerate(basis):
        assert verify_invariance(f, g0, trials=10, walk_length=20, seed=i)["constant"]
    f = gv_formula(3, (-1, 2, 1, -1))
    g1 = GaussDiagram(1, [(0, 3, 1, 1), (1, 4, 2, -1), (2, 5, 0, 1)])
    assert verify_invariance(f, g1, trials=10, walk_length=20, seed=7)["constant"]
    assert len(log) == 2600
    assert hashlib.sha256("\n".join(log).encode()).hexdigest() == (
        "45da0fd4720128a518aaa5fc02ccd760feccd1b47f9c4e691ab1a46576a936f3"
    )


def test_evaluate_requires_matching_global_marking():
    f = gv_formula(2, (1, 1, 1))
    with pytest.raises(DiagramError):
        evaluate(f, GaussDiagram(2, [(0, 2, 1, 1), (1, 3, 1, 1)]))
    with pytest.raises(DiagramError):
        evaluate(f, ArrowDiagram(3, [(0, 2, 1, 0), (1, 3, 1, 0)]))


def test_sampled_moves_cover_the_available_set():
    rng = seeded(52)
    for _ in range(12):
        g = random_gauss_diagram(rng, rng.randint(1, 3), 2, marks=(0, 1, 2))
        avail = set(available_moves(g, {0, 1, 2}, max_degree=5))
        insertions = relations.insertion_moves({0, 1, 2}, 5, g.signed)
        drawn = set()
        for _k in range(60 * max(1, len(avail))):
            mv = sample_move(g, insertions, rng)
            drawn.add(mv)
            if drawn == avail:
                break
        assert drawn == avail


def test_invariance_walks_stay_constant():
    f = gv_formula(2, (1, 1, 1))
    g0 = GaussDiagram(3, [(0, 2, 1, 1), (1, 3, 2, -1)])
    rep = verify_invariance(f, g0, trials=5, walk_length=12, seed=3)
    assert rep["constant"]
    assert rep["value"] == evaluate(f, g0)


def test_invariance_walk_detects_a_fake():
    # counting mark-0 arrows is not invariant: a kink insertion changes it
    bad = Formula(LinComb.single(ArrowDiagram(3, [(0, 1, 0, 0)])), 3)
    g0 = GaussDiagram(3, [(0, 2, 1, 1), (1, 3, 2, -1)])
    rep = verify_invariance(bad, g0, trials=20, walk_length=12, seed=3)
    assert not rep["constant"]
    assert rep["violation"] is not None


def test_chain_presentation_counts():
    assert [len(enumerate_Un(n)) for n in range(5)] == [1, 1, 3, 20, 210]
    assert len(set(enumerate_Un(3))) == len(enumerate_Un(3))


def test_chain_presentation_is_rotation_invariant():
    for cp in enumerate_Un(3):
        size = 2 * cp.n
        for r in range(size):
            arrows = [((t + r) % size, (h + r) % size) for t, h in cp.arrows]
            nums = [cp.arc_numbers[(i - r) % size] for i in range(size)]
            rotated = ChainPresentation(arrows, nums)
            assert rotated == cp
            assert (rotated.arrows, rotated.arc_numbers) == (cp.arrows, cp.arc_numbers)


def test_chain_presentation_validation():
    # crossing chords are not a chain presentation
    with pytest.raises(ValueError):
        ChainPresentation(((2, 0), (3, 1)), (1, 2, 1, 2))
    # numbering must decrease from tail side to head side
    good = enumerate_Un(2)[0]
    with pytest.raises(ValueError):
        ChainPresentation(good.arrows, tuple(reversed(good.arc_numbers)))


def test_gamma_collection_validation():
    assert GammaCollection((1, -2, 3)).K == 2
    with pytest.raises(ValueError):
        GammaCollection((1, 0, 2))
    with pytest.raises(ValueError):
        gv_formula(2, (1, 1))


def test_phi_gamma_mark_decoding():
    # weights 1/10/100 make the left-region sums readable in decimal: each
    # term's marks reveal which region numbers lie left of each arrow
    f = gv_formula(2, (1, 10, 100))
    assert f.K == 111
    mark_sets = sorted(
        tuple(sorted(a[2] for a in d.arrows)) for d in f.vector.keys()
    )
    assert mark_sets == [(1, 10), (1, 11), (11, 101)]


def test_gv_formula_passes_static_checks():
    for gamma in ((1, 1, 1), (1, 1, 3), (2, -1, 1)):
        f = gv_formula(2, gamma)
        w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
        assert check_formula(f, w)["passes"]


def test_null_pair_formula_term_counts():
    assert len(null_pair_formula(2, 5).vector) == 5
    assert len(null_pair_formula(5, 5).vector) == 3
    f = null_pair_formula(1, 3)
    w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
    assert check_formula(f, w)["passes"]


def test_normalization_window_is_generous():
    w = MarkingWindow({1, 2, 3, 4}, 5)
    wide = normalization_window(w)
    vals = set(wide.values())
    for a in w.values():
        for b in w.values():
            assert a + b - w.K in vals
            assert a + b in vals
