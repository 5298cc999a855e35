"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every check is exact (rational arithmetic); the randomized parts
are seeded and deterministic.
"""

import os
import time
from fractions import Fraction
from itertools import product

from arrowforms import engine, textio
from arrowforms.boundary import boundary_d
from arrowforms.diagrams import (
    ArrowDiagram,
    DegenerateDiagram,
    GaussDiagram,
    canonical_arrows,
)
from arrowforms.lincomb import LinComb
from arrowforms.maps import pair_norm, sign_expand_S, subdiagram_expand_I
from arrowforms.ratlinalg import DiagramIndexedMatrix
from arrowforms.relations import (
    MarkingWindow,
    check_I_span_compat,
    gen_family,
)

from conftest import (
    boundary_route,
    echelon_of,
    kernel,
    random_arrow_diagram,
    random_based_diagram,
    random_gauss_diagram,
    seeded,
    spans,
)
from move_oracles import double_angle, double_paren, pair_ortho

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _report(num, ok, desc):
    print("criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_bracket_identity():
    rng = seeded(101)
    t0 = time.time()
    ok = True
    for _ in range(1000):
        a = random_arrow_diagram(rng, rng.randint(1, 3), 2)
        g = random_gauss_diagram(rng, rng.randint(1, 4), 2)
        if double_angle(a, g) != pair_norm(sign_expand_S(a), subdiagram_expand_I(g)):
            ok = False
            break
    # witness: |Aut(A)| = 2 and the unnormalized pairings disagree
    a = ArrowDiagram(2, [(0, 1, 1, 0), (2, 3, 1, 0)])
    g = GaussDiagram(2, [(0, 1, 1, 1), (2, 3, 1, -1)])
    witness = a.aut_order() == 2 and double_paren(a, g) != pair_ortho(
        sign_expand_S(a), subdiagram_expand_I(g)
    )
    elapsed = time.time() - t0
    _report(
        1,
        ok and witness and elapsed < 60,
        "normalized bracket identity on 1000 random pairs, plus an order-2 "
        "symmetry witness where the unnormalized pairings differ "
        "(%.1fs)" % elapsed,
    )


def test_criterion_02_expansion_image_round_trip():
    rng = seeded(102)
    w = MarkingWindow(range(-2, 4), 2)
    ok = True
    for _ in range(200):
        a = LinComb(
            [
                (
                    random_arrow_diagram(rng, rng.randint(1, 3), 2),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                )
                for _ in range(rng.randint(1, 3))
            ]
        )
        big = sign_expand_S(a)
        hosts = list(big.keys())
        for deg in sorted({k.n for k in big.keys()}):
            for inst in gen_family("p2h1", deg, w, closure=False, hosts=hosts):
                if pair_norm(big, inst.vector) != 0:
                    ok = False
        support = sorted({k.forget_signs() for k in big.keys()})
        rec = LinComb(
            (A, pair_ortho(big, LinComb.single(A.with_signs((1,) * A.n))))
            for A in support
        )
        if rec != a or sign_expand_S(rec) != big:
            ok = False
    _report(
        2,
        ok,
        "200 random expansions annihilate the sign-flip relations and are "
        "reconstructed exactly from their all-positive coefficients",
    )


def test_criterion_03_two_term_in_six_term_span():
    t0 = time.time()
    w = MarkingWindow({1, 2, 3, 4}, 5)
    assert all(w.K - x in w for x in w.allowed) and len(w.values()) >= 4
    rows = [i.vector for i in gen_family("a6t", 3, w)]
    rows += [i.vector for i in gen_family("ap2", 3, w)]
    ech = echelon_of(rows)
    a2t = gen_family("a2t", 3, w)
    ok = bool(a2t) and all(spans(ech, i.vector) for i in a2t)
    elapsed = time.time() - t0
    _report(
        3,
        ok and elapsed < 300,
        "all %d two-term instances at degree 3 lie in the span of the "
        "six-term and bigon instances (%.1fs)" % (len(a2t), elapsed),
    )


def test_criterion_04_kernel_equality_and_walks():
    t0 = time.time()
    w = MarkingWindow({1, 2, 3, 4}, 5)
    basis = engine.solve_formula_space(2, w)
    dker = boundary_route(2, w)

    e_rel = echelon_of([f.vector for f in basis])
    e_d = echelon_of(dker)
    equal = (
        len(basis) == len(dker)
        and all(spans(e_rel, v) for v in dker)
        and all(spans(e_d, f.vector) for f in basis)
    )

    g0 = GaussDiagram(5, [(0, 2, 1, 1), (1, 3, 2, -1)])
    walks_ok = True
    for i, f in enumerate(basis):
        rep = engine.verify_invariance(f, g0, trials=1000, walk_length=20, seed=i)
        if not rep["constant"]:
            walks_ok = False
            break
    elapsed = time.time() - t0
    _report(
        4,
        equal and walks_ok,
        "relation kernel and boundary kernel coincide (dimension %d) and "
        "every basis element is constant along 1000 random move walks of "
        "length 20 (%.0fs)" % (len(basis), elapsed),
    )


def test_criterion_05_duality():
    from move_oracles import based_6T_pairing_check

    rng = seeded(105)
    wide = engine.normalization_window(MarkingWindow(range(-2, 4), 2))
    checked = 0
    ok = True
    while checked < 500:
        n = rng.randint(2, 3)
        b = random_based_diagram(rng, n, 2, marks=(0, 1, 2))
        dd = DegenerateDiagram(random_based_diagram(rng, n, 2, marks=(0, 1, 2)))
        if not dd.is_monotonic():
            continue
        if not based_6T_pairing_check(b, dd, wide):
            ok = False
            break
        checked += 1
    _report(
        5,
        ok,
        "boundary/six-term duality pairing agrees exactly on 500 random "
        "(based, monotonic) pairs at degrees 2 and 3",
    )


def test_criterion_06_planar_chain_formulas():
    t0 = time.time()
    entries = (-2, -1, 1, 2)
    ok = len(engine.enumerate_Un(2)) == 3
    for n in (2, 3):
        for gamma in product(entries, repeat=n + 1):
            f = engine.gv_formula(n, gamma)
            w = MarkingWindow(set(f.markings()) | {0, f.K}, f.K)
            if not engine.check_formula(f, w)["passes"]:
                ok = False
    elapsed = time.time() - t0
    _report(
        6,
        ok and elapsed < 600,
        "all %d planar chain formulas at degrees 2 and 3 pass the static "
        "checks, including repeated classes; 3 degree-2 presentations "
        "(%.0fs)" % (len(entries) ** 3 + len(entries) ** 4, elapsed),
    )


def _counterexample(m, K):
    D = lambda arrows: ArrowDiagram(K, arrows)
    return LinComb(
        [
            (D([(0, 1, m, 0), (2, 3, m, 0)]), 1),
            (D([(0, 1, m, 0), (3, 2, m, 0)]), 2),
            (D([(0, 2, m, 0), (1, 3, m, 0)]), 2),
            (D([(0, 3, m, 0), (2, 1, m, 0)]), 1),
        ]
    )


def test_criterion_07_five_term_formula_and_counterexample():
    K = 5
    ok = True
    for a in (1, 2, K):
        f = engine.null_pair_formula(a, K)
        w = MarkingWindow(set(f.markings()) | {0, K, a, K - a}, K)
        if not engine.check_formula(f, w)["passes"]:
            ok = False
    three = len(engine.null_pair_formula(K, K).vector) == 3
    five = len(engine.null_pair_formula(2, K).vector) == 5

    # an element with vanishing boundary that still fails a bigon pairing
    cex_ok = True
    w = MarkingWindow({1, 2, 3, 4}, K)
    wide = engine.normalization_window(w)
    for m in (1, 2, 3):
        v = _counterexample(m, K)
        if boundary_d(v, wide):
            cex_ok = False
        worst = Fraction(0)
        for inst in gen_family("ap2", 2, w, closure=False, hosts=list(v.keys())):
            pairing = sum(
                (v.coeff(k) * c * k.aut_order() for k, c in inst.vector.items()),
                Fraction(0),
            )
            worst = max(worst, abs(pairing))
        if worst == 0:
            cex_ok = False
    _report(
        7,
        ok and three and five and cex_ok,
        "the degree-2 null-pair formula passes for shifts 1, 2, K and "
        "collapses to 3 terms at the global marking; the boundary-kernel "
        "counterexample fails a bigon pairing",
    )


def test_criterion_08_fixture_values():
    f = engine.null_pair_formula(2, 2)
    values = {}
    walks_ok = True
    for name, expected in (("k3", 2), ("k5", 6)):
        with open(os.path.join(FIXTURES, name + ".gd")) as fh:
            g = textio.parse_diagram(fh.read())
        values[name] = engine.evaluate(f, g)
        rep = engine.verify_invariance(f, g, trials=25, walk_length=15, seed=8)
        walks_ok = walks_ok and rep["constant"]
    ok = values == {"k3": 2, "k5": 6}
    _report(
        8,
        ok and walks_ok,
        "the 3-term invariant takes values 2 and 6 on the torus-pattern "
        "fixtures and stays constant along move walks from both",
    )


def test_criterion_09_subdiagram_expansion_compatibility():
    t0 = time.time()
    w = MarkingWindow({0, 1, 2}, 2)
    ok = True
    checked = 0
    for n in (1, 2, 3):
        rep = check_I_span_compat(n, w)
        checked += rep["checked"]
        if rep["failures"]:
            ok = False
    elapsed = time.time() - t0
    _report(
        9,
        ok,
        "subdiagram expansion of all %d move-difference vectors at degrees "
        "1-3 lies in the span of the signed relation instances (%.0fs)"
        % (checked, elapsed),
    )


def _dense_rank(rows, ncols):
    mat = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                fct = mat[i][c] / mat[r][c]
                mat[i] = [x - fct * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def test_criterion_10_infrastructure():
    rng = seeded(110)
    canon_ok = True
    for _ in range(10000):
        d = random_gauss_diagram(rng, rng.randint(1, 4), rng.randint(-2, 4))
        if canonical_arrows(d.n, d.arrows)[0] != d.arrows:
            canon_ok = False
            break
        size = 2 * d.n
        r = rng.randrange(size)
        rot = [((t + r) % size, (h + r) % size, m, s) for (t, h, m, s) in d.arrows]
        if GaussDiagram(d.K, rot) != d:
            canon_ok = False
            break

    algebra_ok = True
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        cols = list(range(ncols))
        vecs = [LinComb((c, v) for c, v in zip(cols, rr) if v) for rr in rows]
        expected = _dense_rank(rows, ncols)
        if echelon_of(vecs).rank() != expected:
            algebra_ok = False
            break
        basis = kernel(DiagramIndexedMatrix(cols, vecs))
        if len(basis) != ncols - expected:
            algebra_ok = False
            break
        if any(
            sum(rv.coeff(c) * bv.coeff(c) for c in cols) != 0
            for rv in vecs
            for bv in basis
        ):
            algebra_ok = False
            break

    files_ok = True
    for _ in range(200):
        d = random_gauss_diagram(rng, rng.randint(1, 4), 2)
        text = textio.print_diagram(d)
        if textio.print_diagram(textio.parse_diagram(text)) != text:
            files_ok = False
            break
    f = engine.gv_formula(2, (1, 2, -1))
    text = textio.print_formula(f)
    files_ok = files_ok and textio.print_formula(textio.parse_formula(text)) == text

    _report(
        10,
        canon_ok and algebra_ok and files_ok,
        "canonical forms stable on 10000 random diagrams; kernel and rank "
        "agree with a dense elimination oracle; text files round-trip byte "
        "for byte",
    )


def test_criterion_11_planar_chain_formulas_in_the_degree_3_span():
    t0 = time.time()
    w = MarkingWindow({1, 2, 3, 4}, 5)
    basis = engine.solve_formula_space(3, w)
    span = echelon_of([f.vector for f in basis])
    classes = [c for c in range(-5, 6) if c]
    fitting = []
    ok = len(basis) == 12
    for gamma in product(classes, repeat=4):
        if sum(gamma) != 5:
            continue
        f = engine.gv_formula(3, gamma)
        if all(m in w for m in f.markings()):
            fitting.append(gamma)
            ok = ok and spans(span, f.vector)
    ok = ok and fitting == [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)]
    elapsed = time.time() - t0
    _report(
        11,
        ok,
        "the %d degree-3 planar chain formulas with classes in -5..5 summing "
        "to 5 and markings in 1..4 lie in the 12-dimensional solved span "
        "over 1..4 (%.1fs)" % (len(fitting), elapsed),
    )
