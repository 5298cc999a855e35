"""Top-level pipelines.

Four user-facing jobs live here:

  * solve_formula_space: basis of the space of degree-n arrow combinations
    (markings in a finite window) annihilating the kink, bigon, and 6-term
    constraint families; such a combination evaluates to a virtual knot
    invariant through the subset-counting bracket.  Its constraint rows are
    integer rows keyed by column index, built on the tuple core of
    relation generation: a term outside the window is never canonicalized,
    and no diagram object is built for a term or an instance.
  * check_formula / verify_invariance: static and randomized validation of
    a candidate formula.
  * evaluate: the invariant's value on a decorated Gauss diagram.
  * enumerate_Un / phi_gamma / gv_formula: the planar-chain construction of
    invariants from a collection of nonzero homology classes.

The Formula class is defined in lincomb; engine imports it, so
engine.Formula names the same class.

Evaluation reads one rotation-compiled integer table (Formula.table):
every rotation of every term is stored under its sorted (tail, head, mark)
tuple with an int weight over the formula's common denominator, so a
subset of a diagram, renumbered from wherever, finds its term with one dict
lookup and no canonical form.  The table also holds each degree's marks
and sorted mark multisets, so a subset whose marks are no term's is
dropped before it is renumbered.  evaluate divides the integer sum by the
denominator once.  Walks (verify_invariance) keep a running value, an int
over that denominator: after each move only the subsets that hold a
changed arrow are scored, and at the end of each trial the running value
is checked against a full evaluation.  The moves themselves come from
relations.move_census and are applied by relations._apply_move, whose
results are canonicalized but not validated again.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from pathlib import Path

from . import textio
from .boundary import boundary_d
from .diagrams import ArrowDiagram, DiagramError, GaussDiagram, arrows_cross, canonical_arrows
from .lincomb import Formula, LinComb
from .ratlinalg import index_kernel
from .relations import (
    CONSTRAINT_FAMILIES,
    MarkingWindow,
    _apply_move,
    _chord_matchings,
    _constraint_rows,
    _family_instances,
    _family_vectors,
    _shapes,
    enumerate_diagrams,
    insertion_moves,
    move_census,
)


def homogeneous_components(f):
    """Split a formula by degree; the zero formula has no components."""
    return [
        Formula(f.vector.filtered(lambda k: k.n == d), f.K)
        for d in f.degrees()
    ]


# ---------------------------------------------------------------------------
# formula-space solver


def _template_hash():
    """Digest of the local move tables, part of every cache path, so that a
    table change invalidates cached bases.

    It is pinned: the SHA-256 of repr([sorted(m.key for m in models(k))
    for k in ("R1", "R2", "R3")]) over the kink models, the bigons and
    every placement of the three R3 lines (288 models), which the tests
    build from the planar pictures of the moves (oracle_models in
    tests/move_oracles.py).  They recompute the pin from them, build the
    committed move tables (moves.read_table) from the same pictures, and
    require the files to be that output byte for byte, so a changed table
    must change the pin.  Naming a cache file reads no move table."""
    return "a6a92a1525e43e3334f103216d6dd828b13f735204962ad2403e82108edf3883"


def _cache_path(cache_dir, n, window):
    tag = "window=%s;templates=%s" % (sorted(window.allowed), _template_hash())
    h = hashlib.sha256(tag.encode()).hexdigest()[:16]
    return Path(cache_dir) / str(window.K) / str(n) / ("%s.basis" % h)


MAX_SOLVER_COLUMNS = 200000


class SolverTooLarge(ValueError):
    """The requested formula space or enumeration exceeds the solver guard."""


def guard_enumeration(species, n, window):
    """Refuse (SolverTooLarge) the degree-n diagrams of `species` over the
    window, a solve's columns or an enumerate's list, when they may number
    more than MAX_SOLVER_COLUMNS.  Labelled decorations over their 2n
    rotations bound the count below in O(1), before _shapes(n) is built;
    past that, one decoration per shape class and choice of markings (and
    signs) bounds it above (_shapes is cached for the enumeration)."""
    choices = len(window.allowed) * (2 if species == "gauss" else 1)
    count = math.prod(range(1, 2 * n, 2)) * (2 * choices) ** n // max(2 * n, 1)
    if count <= MAX_SOLVER_COLUMNS:
        count = len(_shapes(n)) * choices ** n
    if count > MAX_SOLVER_COLUMNS:
        raise SolverTooLarge(
            "estimated count %d of degree-%d %s diagrams exceeds the solver guard (%d)"
            % (count, n, species, MAX_SOLVER_COLUMNS)
        )


def _read_cached(path):
    """The basis stored at `path`, or None when it is missing, unreadable or
    shorter than its header says (a truncated write)."""
    try:
        return textio.parse_basis(path.read_text())
    except (OSError, ValueError):
        return None


def _write_cached(path, text):
    """Write through a temporary file and rename, so a reader never sees a
    partial basis file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def solve_formula_space(n, window, cache_dir=None):
    """Basis of the degree-n formula space over the marking window.

    Constraint rows pair diagrams with the automorphism-rescaled product, so
    the kernel consists exactly of the window-supported combinations
    annihilating every kink, bigon, and 6-term instance.  Instances with
    terms outside the window are restricted to the window columns: that
    restriction is the exact pairing against window-supported vectors.
    The rows are integer rows keyed by column index
    (relations._constraint_rows), eliminated by ratlinalg.index_kernel."""
    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, n, window)
        basis = _read_cached(path)
        if basis is not None:
            return basis
    guard_enumeration("arrow", n, window)
    columns = enumerate_diagrams("arrow", n, window)
    rows = _constraint_rows(window, columns)
    basis = [
        Formula(LinComb((columns[i], c) for i, c in v.items()), window.K)
        for v in index_kernel(rows, len(columns))
    ]
    if path is not None:
        _write_cached(path, textio.print_basis(basis))
    return basis


# ---------------------------------------------------------------------------
# static checking


def normalization_window(window):
    """A window wide enough to normalize triangle rewrites of diagrams
    supported in `window`: rewrite targets carry markings that are signed
    sums of two window markings, shifted by at most the global marking."""
    vals = set(window.allowed) | {0, window.K}
    lo, hi = min(vals), max(vals)
    pad = (hi - lo) + abs(window.K) + 1
    return MarkingWindow(range(lo - pad, hi + pad + 1), window.K)


def check_formula(f, window):
    """Static report on one formula: the three constraint-family pairings,
    the first instance pairing nonzero with f (family, degree, index into
    gen_family's list, instance; None when all vanish), the boundary
    vanishing flag, and a cross-consistency verdict.

    The 6-term pairings and the boundary vanishing are two renderings of the
    same condition, so (given the kink and bigon checks pass) they must
    agree; a disagreement means one of the two machineries is broken.

    The pairings run on the tuple core: each instance is a summed row of
    relations._family_vectors without closure, {canonical arrows:
    [coefficient, |Aut|, inside]}, spelled from the least of f's support
    terms that it reaches,
    and its pairing < f, instance > is the sum of f's coefficient times
    coefficient times |Aut| over the row.  Objects are built only for the
    first (family, degree) with a nonzero pairing, to report the instance
    and its index in gen_family's sorted list."""
    for m in f.markings():
        if m not in window:
            raise ValueError("formula marking %d outside the window" % m)
    families = {}
    first = None
    coeffs = {k.arrows: c for k, c in f.vector.items()}  # one K
    for fam in CONSTRAINT_FAMILIES:
        worst = Fraction(0)
        for deg in f.degrees():
            # only instances meeting f's support can pair nonzero, so
            # anchoring the generator there is exhaustive for this check
            hosts = [k for k in f.vector.keys() if k.n == deg]
            vectors = _family_vectors(fam, hosts, window.allowed, False)
            pairings = [
                sum(coeffs.get(arrows, 0) * c * aut for arrows, (c, aut, _in) in vec.items())
                for _d, vec in vectors.values()
            ]
            if first is None and any(pairings):
                instances = _family_instances(fam, vectors)
                order = sorted(range(len(instances)), key=lambda j: instances[j].key())
                i = next(i for i, j in enumerate(order) if pairings[j])
                first = {"family": fam, "degree": deg, "index": i, "instance": instances[order[i]]}
            worst = max([worst] + [abs(p) for p in pairings])
        families[fam] = worst
    d = boundary_d(f.vector, normalization_window(window))
    zero_d = not d
    ap_ok = families["ap1"] == 0 and families["ap2"] == 0
    a6t_zero = families["a6t"] == 0
    consistent = (not ap_ok) or (a6t_zero == zero_d)
    return {
        "families": families,
        "first_nonzero": first,
        "boundary_zero": zero_d,
        "consistent": consistent,
        "passes": ap_ok and a6t_zero and zero_d,
    }


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f, g):
    """Value of the formula on a Gauss diagram.

    Computed as the sum over subdiagrams of g: a subdiagram whose sign-less
    reduction is a term A of f contributes coeff(A) * |Aut(A)| * (product of
    its signs).  One subset scan per degree, no sign expansion and no
    canonical form: each subset, renumbered onto 0..2deg-1, is looked up in
    the rotation-compiled integer table `f.table()`, and the integer sum is
    divided by the table's denominator once."""
    if not isinstance(g, GaussDiagram):
        raise DiagramError("evaluate expects a Gauss diagram")
    if f.K != g.K:
        raise DiagramError(
            "global marking mismatch: formula K=%d, diagram K=%d" % (f.K, g.K)
        )
    return Fraction(_subset_value(f, g.arrows), f.table()[0])


def _subset_value(f, arrows, touched=(), least=0):
    """The summed contributions (see evaluate) of the subsets of `arrows`
    that hold at least `least` of the arrow indices in `touched`, as an
    int over the denominator of `f.table()`.  A subset whose marks are no
    term's is dropped before it is renumbered."""
    total = 0
    for deg, (marks, marksets, terms) in f.table()[1].items():
        # an arrow carrying a mark that no term carries is in no match
        mine = [arrows[i] for i in touched if arrows[i][2] in marks]
        if len(mine) < least:
            continue
        rest = [a for i, a in enumerate(arrows) if i not in touched and a[2] in marks]
        for k in range(least, min(deg, len(mine)) + 1):
            for part in combinations(mine, k):
                for others in combinations(rest, deg - k):
                    sub = part + others
                    if tuple(sorted([a[2] for a in sub])) not in marksets:
                        continue
                    pos = sorted([p for a in sub for p in a[:2]])
                    renum = {p: q for q, p in enumerate(pos)}
                    weight = terms.get(tuple(sorted([(renum[t], renum[h], m) for t, h, m, _s in sub])))
                    if weight:
                        for a in sub:
                            weight *= a[3]
                        total += weight
    return total


# ---------------------------------------------------------------------------
# randomized move-invariance checking


def sample_move(g, insertions, rng):
    """One move drawn uniformly from relations.move_census, with the walk's
    insertion blocks `insertions` (relations.insertion_moves), or None when
    no move applies: one rng.randrange over the total, decoded in its
    block."""
    blocks = move_census(g, insertions)
    total = sum(count for count, _decode in blocks)
    if total == 0:
        return None
    u = rng.randrange(total)
    for count, decode in blocks:
        if u < count:
            return decode(u)
        u -= count
    raise AssertionError("unreachable")


def _walk_step(f, g, value, mv):
    """(g after the move mv, the value of f there), updated from `value`,
    the value of f on g, by scoring only the subsets that see the change.
    Values are ints over the denominator of f.table() (see _subset_value).

    A subset's contribution depends only on the cyclic order of its
    endpoints and on its arrows' marks and signs: with the rotation-compiled
    table, its key may differ by a rotation but never its term.
      * R1+ and R2+ insert endpoints and leave the old arrows in their
        cyclic order, so the new value adds the subsets of the new diagram
        holding a created arrow.
      * R1- and R2- delete, so the new value drops the subsets of the old
        diagram holding a removed arrow.
      * R3 swaps the subsets holding at least two of the triple: it removes
        the triple and creates its reversed copy.  Every R3 model of the
        move tables has each side-R slot group the reverse of its side-L
        group (r3_models in tests/move_oracles.py builds them so), so every
        crossing keeps its role, mark and sign, and only the two adjacent
        endpoints inside each slot group change places.  Both endpoints of
        a slot group belong to the triple.  A subset holding at most one
        arrow of the triple sees at most one endpoint of each group, and
        the host arrows keep their places, so the cyclic order of its
        endpoints, hence its contribution, is unchanged."""
    new, arrows, created, removed = _apply_move(g, *mv)
    least = 2 if mv[0] == "R3" else 1
    value += _subset_value(f, arrows, created, least) - _subset_value(f, g.arrows, removed, least)
    return new, value


def _guard_running_value(f, g, value):
    """The end-of-trial guard: the running value, an int over the
    denominator of f.table(), must be the full one."""
    value = Fraction(value, f.table()[0])
    full = evaluate(f, g)
    if value != full:
        raise AssertionError(
            "running value %s differs from the full evaluation %s on %r" % (value, full, g)
        )


def verify_invariance(f, g0, trials, walk_length, seed, marking_set=None):
    """Random move walks from g0, asserting the evaluation never changes.

    Each trial is an independent walk of `walk_length` uniform moves.  New
    bigon markings are drawn from `marking_set` (default: the formula's
    markings plus 0 and K); kink markings are forced by the move itself.
    Degree is capped at g0's plus the formula's top degree plus 4, to keep
    walks from drifting into ever larger diagrams.  Returns a report; a
    violation records the first offending move.

    The R1+ and R2+ blocks of every census are counted by one
    relations.insertion_moves, made once per call.  g0 is evaluated
    once.  Along a walk the value is kept as a running
    value, an int over the denominator of f.table(), updated after each
    move from the subsets that hold an arrow the move changed (see
    _walk_step).  When a trial ends, at its last step or at a violation,
    the running value is compared with a full evaluation of the diagram
    reached, and a difference raises AssertionError."""
    if f.K != g0.K:
        raise DiagramError(
            "global marking mismatch: formula K=%d, diagram K=%d" % (f.K, g0.K)
        )
    if marking_set is None:
        marking_set = set(f.markings()) | {0, f.K}
    max_degree = g0.n + max(f.degrees(), default=0) + 4
    insertions = insertion_moves(marking_set, max_degree, g0.signed)
    rng = random.Random(seed)
    value0 = evaluate(f, g0)
    base = int(value0 * f.table()[0])
    report = {
        "trials": trials,
        "walk_length": walk_length,
        "value": value0,
        "constant": True,
        "violation": None,
    }
    for t in range(trials):
        g, value = g0, base
        for step in range(walk_length):
            mv = sample_move(g, insertions, rng)
            if mv is None:
                break
            g, value = _walk_step(f, g, value, mv)
            if value != base:
                _guard_running_value(f, g, value)
                report["constant"] = False
                report["violation"] = {"trial": t, "step": step, "move": mv}
                return report
        _guard_running_value(f, g, value)
    return report


# ---------------------------------------------------------------------------
# planar chains


class GammaCollection(tuple):
    """Ordered collection of nonzero integers (homology classes)."""

    def __new__(cls, values):
        vals = tuple(int(v) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("homology classes must be nonzero")
        return super().__new__(cls, vals)

    @property
    def K(self):
        return sum(self)


def _arc_regions(chords, size):
    """Region id of every circle arc (arc i lies between endpoints i, i+1).

    Two arcs share a region iff they sit on the same side of every chord;
    with non-crossing chords this yields exactly n+1 regions."""
    spans = [tuple(sorted(c)) for c in chords]
    ids = {}
    out = []
    for i in range(size):
        sig = tuple(p <= i < q for (p, q) in spans)
        out.append(ids.setdefault(sig, len(ids)))
    return out


def _left_arcs(t, h, size):
    """Arcs on the left of the arrow t -> h (the side swept from h to t)."""
    return [(h + j) % size for j in range((t - h) % size)]


class ChainPresentation:
    """Planar (non-crossing) oriented chord diagram with its n+1 regions
    numbered 1..n+1, increasing across every arrow from its left side to its
    right side.  Canonical up to rotation; reflections are distinct.

    The rotation is the canonical one (diagrams.canonical_arrows) of the
    chord diagram whose arrow t -> h is marked with the numbers of the
    regions on its left and right, (arc_numbers[h], arc_numbers[t]).  Arc p
    follows endpoint p, so these marks fix every arc's number."""

    __slots__ = ("n", "arrows", "arc_numbers", "_key", "_hash")

    def __init__(self, arrows, arc_numbers):
        arrows = tuple((int(t), int(h)) for (t, h) in arrows)
        n = len(arrows)
        size = 2 * n
        arc_numbers = tuple(int(x) for x in arc_numbers)
        if len(arc_numbers) != size:
            raise DiagramError("expected one region number per arc")
        full = [(t, h, 0, 0) for (t, h) in arrows]
        for i in range(n):
            for j in range(i + 1, n):
                if arrows_cross(full[i], full[j]):
                    raise DiagramError("chords %d and %d intersect" % (i, j))
        regions = _arc_regions(arrows, size) if n else []
        by_region = {}
        for arc, r in enumerate(regions):
            num = arc_numbers[arc]
            if by_region.setdefault(r, num) != num:
                raise DiagramError("inconsistent numbers within one region")
        # the empty diagram has one region but no arc to carry its number
        if n and sorted(by_region.values()) != list(range(1, n + 2)):
            raise DiagramError("region numbers must be a bijection onto 1..n+1")
        for t, h in arrows:
            if arc_numbers[h] >= arc_numbers[t]:
                raise DiagramError(
                    "numbering must increase from the left of an arrow to its right"
                )
        marked = [(t, h, (arc_numbers[h], arc_numbers[t]), 0) for t, h in arrows]
        canon, r, _aut = canonical_arrows(n, marked)
        key = (
            tuple((t, h) for t, h, _m, _s in canon),
            tuple(arc_numbers[(i + r) % size] for i in range(size)),
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", key[0])
        object.__setattr__(self, "arc_numbers", key[1])
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *a):
        raise AttributeError("chain presentations are immutable")

    def __eq__(self, other):
        return isinstance(other, ChainPresentation) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ChainPresentation(%r, %r)" % (list(self.arrows), list(self.arc_numbers))

    def left_numbers(self, i):
        """Region numbers on the left of arrow i."""
        t, h = self.arrows[i]
        return sorted({self.arc_numbers[a] for a in _left_arcs(t, h, 2 * self.n)})


@cache
def enumerate_Un(n):
    """All chain presentations of degree n, sorted canonically."""
    if n == 0:
        return (ChainPresentation((), ()),)
    size = 2 * n
    out = {}
    for matching in _chord_matchings(list(range(size))):
        if any(arrows_cross(a, b) for a, b in combinations(matching, 2)):
            continue
        for bits in product((0, 1), repeat=n):
            arrows = tuple((p[b], p[1 - b]) for p, b in zip(matching, bits))
            regions = _arc_regions(arrows, size)
            nreg = max(regions) + 1
            for perm in permutations(range(1, n + 2), nreg):
                nums = tuple(perm[r] for r in regions)
                if all(nums[h] < nums[t] for (t, h) in arrows):
                    cp = ChainPresentation(arrows, nums)
                    out[cp._key] = cp
    return tuple(sorted(out.values()))


def phi_gamma(cp, gamma):
    """Arrow diagram of one chain presentation: arrow i is marked with the
    sum of the classes indexed by the region numbers on its left, and the
    circle carries the total sum."""
    gamma = GammaCollection(gamma)
    if len(gamma) != cp.n + 1:
        raise ValueError(
            "expected %d homology classes, got %d" % (cp.n + 1, len(gamma))
        )
    arrows = [
        (t, h, sum(gamma[j - 1] for j in cp.left_numbers(i)), 0)
        for i, (t, h) in enumerate(cp.arrows)
    ]
    return ArrowDiagram(gamma.K, arrows)


def gv_formula(n, gamma):
    """The planar-chain formula: the sum of phi_gamma over all degree-n
    chain presentations.  Coinciding terms merge with their multiplicity."""
    gamma = GammaCollection(gamma)
    if len(gamma) != n + 1:
        raise ValueError("expected %d homology classes, got %d" % (n + 1, len(gamma)))
    vec = LinComb((phi_gamma(cp, gamma), 1) for cp in enumerate_Un(n))
    return Formula(vec, gamma.K)


def null_pair_formula(a, K):
    """Degree-2 formula built from pairs involving a null-marked arrow.

    Four positive terms pair a mark-0 arrow with a mark-a arrow in the four
    relative positions that share no endpoint ordering, minus one correction
    term pairing marks a and K - a.  Generically the formula has five terms;
    at a = K the two terms with mark multiset {0, K} coincide and cancel,
    leaving three.  Passes check_formula over any window containing the
    marks {0, a, K - a, K}.
    """
    D = lambda arrows: ArrowDiagram(K, arrows)
    vec = LinComb([
        (D([(0, 1, 0, 0), (2, 3, a, 0)]), 1),
        (D([(0, 1, 0, 0), (3, 2, a, 0)]), 1),
        (D([(0, 2, 0, 0), (1, 3, a, 0)]), 1),
        (D([(0, 2, 0, 0), (3, 1, a, 0)]), 1),
        (D([(0, 1, a, 0), (2, 3, K - a, 0)]), -1),
    ])
    return Formula(vec, K)
