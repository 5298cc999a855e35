"""Structural maps between diagram spaces and the pairing the program reads.

The maps: S (signed expansion of an arrow diagram), I (subdiagram sum of a
Gauss diagram) and the automorphism-normalized pairing < , >.  The degree
projections are LinComb.filtered (engine.homogeneous_components).  The
selftest (cli) checks engine.evaluate, the program's bracket << , >>,
against < S(A), I(G) >.  The paper's pairing ( , ), which < , > rescales
by |Aut|, and the object brackets (( , )) and << , >> (evaluate's oracle)
are pair_ortho, double_paren and double_angle in tests/move_oracles.py.
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
