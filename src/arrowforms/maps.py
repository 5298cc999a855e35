"""Structural maps between diagram spaces and the pairings the program reads.

The maps: S (signed expansion of an arrow diagram), I (subdiagram sum of a
Gauss diagram), the automorphism-normalized pairing < , >, and the
subset-counting brackets (( , )) and << , >>.  The degree projections are
LinComb.filtered (engine.homogeneous_components).  The selftest's bracket
identity (cli) reads all of them.  The paper's orthonormal pairing ( , ),
which < , > rescales by |Aut|, is pair_ortho in tests/move_oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .lincomb import LinComb, as_lincomb


def sign_expand_S(x):
    """S(A) = sum over sign assignments s of sign(s) * A^s, extended linearly."""
    x = as_lincomb(x)

    def expand(a, c):
        out = []
        for signs in product((1, -1), repeat=a.n):
            prod = 1
            for s in signs:
                prod *= s
            out.append((a.with_signs(signs), c * prod))
        return LinComb(out)

    return x.map_terms(expand)


def subdiagram_expand_I(x):
    """I(G) = formal sum of all subdiagrams of G, extended linearly."""
    x = as_lincomb(x)

    def expand(g, c):
        out = []
        idx = range(g.n)
        for k in range(g.n + 1):
            for sub in combinations(idx, k):
                out.append((g.subdiagram(sub), c))
        return LinComb(out)

    return x.map_terms(expand)


def pair_norm(x, y):
    """< , >: ( , ) rescaled by |Aut| of the diagram."""
    x, y = as_lincomb(x), as_lincomb(y)
    if len(y) < len(x):
        x, y = y, x
    total = Fraction(0)
    for k, c in x.items():
        cy = y.coeff(k)
        if cy:
            total += c * cy * k.aut_order()
    return total


def double_paren(a, g):
    """((A, G)): over subdiagrams of G matching A after forgetting signs,
    sum the products of signs.  Zero when deg A > deg G."""
    k = a.n
    if k > g.n:
        return 0
    total = 0
    for sub in combinations(range(g.n), k):
        d = g.subdiagram(sub)
        if d.forget_signs() == a:
            prod = 1
            for i in sub:
                prod *= g.arrows[i][3]
            total += prod
    return total


def double_angle(a, g):
    """<<A, G>> = |Aut(A)| * ((A, G)), extended bilinearly."""
    a, g = as_lincomb(a), as_lincomb(g)
    total = Fraction(0)
    for ka, ca in a.items():
        aut = ka.aut_order()
        for kg, cg in g.items():
            total += ca * cg * aut * double_paren(ka, kg)
    return total

