"""Expansion maps, pairings, and the bracket identity."""

from fractions import Fraction

from arrowforms.diagrams import ArrowDiagram, GaussDiagram
from arrowforms.lincomb import LinComb
from arrowforms.maps import pair_norm, sign_expand_S, subdiagram_expand_I
from arrowforms.relations import MarkingWindow, gen_family

from conftest import random_arrow_diagram, random_gauss_diagram, seeded
from move_oracles import base_expand, double_angle, double_paren, pair_ortho


def test_sign_expansion_is_odd_per_arrow():
    a = ArrowDiagram(2, [(0, 2, 1, 0), (1, 3, 2, 0)])
    s = sign_expand_S(a)
    # 2^n signed diagrams, with the parity of minus signs as coefficient sign
    assert sum(abs(c) for _k, c in s.items()) == 4
    for k, c in s.items():
        minus = sum(1 for (_t, _h, _m, sg) in k.arrows if sg < 0)
        assert c == (-1) ** minus


def test_subdiagram_expansion_counts_subsets():
    g = GaussDiagram(2, [(0, 2, 1, 1), (1, 3, 1, -1)])
    i = subdiagram_expand_I(g)
    assert sum(i.items() and c for _k, c in i.items()) == 4  # 2^n subsets


def test_projections():
    g = GaussDiagram(2, [(0, 2, 1, 1), (1, 3, 1, -1)])
    i = subdiagram_expand_I(g)
    parts = [i.filtered(lambda k, n=n: k.n == n) for n in range(3)]
    assert parts[2] == LinComb.single(g)
    assert parts[0] + parts[1] + parts[2] == i


def test_bracket_identity_random_pairs():
    rng = seeded(11)
    for _ in range(300):
        a = random_arrow_diagram(rng, rng.randint(1, 3), 2)
        g = random_gauss_diagram(rng, rng.randint(1, 4), 2)
        assert double_angle(a, g) == pair_norm(
            sign_expand_S(a), subdiagram_expand_I(g)
        )


def test_unnormalized_brackets_differ_on_symmetric_diagram():
    # |Aut(A)| = 2; the unnormalized pairings disagree because the mixed-sign
    # expansion key has a smaller automorphism group than A itself
    a = ArrowDiagram(2, [(0, 1, 1, 0), (2, 3, 1, 0)])
    g = GaussDiagram(2, [(0, 1, 1, 1), (2, 3, 1, -1)])
    assert a.aut_order() == 2
    lhs = double_paren(a, g)
    rhs = pair_ortho(sign_expand_S(a), subdiagram_expand_I(g))
    assert lhs != rhs
    assert double_angle(a, g) == pair_norm(sign_expand_S(a), subdiagram_expand_I(g))


def test_sign_flip_relations_annihilated_by_expansion_image():
    rng = seeded(12)
    w = MarkingWindow(range(-2, 4), 2)
    for _ in range(40):
        a = LinComb(
            [
                (random_arrow_diagram(rng, rng.randint(1, 3), 2),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
        )
        big = sign_expand_S(a)
        hosts = list(big.keys())
        for deg in sorted({k.n for k in big.keys()}):
            for inst in gen_family("p2h1", deg, w, closure=False, hosts=hosts):
                assert pair_norm(big, inst.vector) == 0


def test_expansion_image_reconstruction():
    rng = seeded(13)
    for _ in range(40):
        a = LinComb(
            [
                (random_arrow_diagram(rng, rng.randint(1, 3), 2),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
        )
        big = sign_expand_S(a)
        support = sorted({k.forget_signs() for k in big.keys()})
        rec = LinComb(
            (A, pair_ortho(big, LinComb.single(A.with_signs((1,) * A.n))))
            for A in support
        )
        assert rec == a
        assert sign_expand_S(rec) == big


def test_base_expand_counts_arcs():
    a = ArrowDiagram(2, [(0, 2, 1, 0), (1, 3, 2, 0)])
    b = base_expand(a)
    assert sum(c for _k, c in b.items()) == 2 * a.n
    assert base_expand(ArrowDiagram(2, [])) == LinComb.zero()
