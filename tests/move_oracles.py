"""Brute-force move oracles: the explicit move list, the explicit
insertion loops of the R-relation vectors, the unanchored full-model
matcher, the descriptor-bucket scan, the six-term slot scan, the unreduced
two-crossing descriptor table, the full-scan removal of R2/R3 sites, the
rational marking completion and the labelled diagram enumeration, against
which the program's counted move census (whose insertion blocks are also
behind r_relation_vectors), signature-keyed matcher, order-flag six-term
matcher, six-term descriptor classes, site-local R3 match of _apply_move,
integer gap relations and shape-class enumeration are tested.  The object path of
relation generation, which built a diagram, a LinComb and a
RelationInstance for every instance found, is the oracle of the tuple core
behind gen_family and the solver's rows; the object path of the Polyak
span check, which spanned I(r) over those instances as LinCombs, is the
oracle of its tuple rows.  The solver's row loop that spelled each
instance from every in-window host is the oracle of its rows spelled from
the least host, the generation loop that spelled every copy of an
instance (family_vectors_all_copies) that of gen_family's loop, which
spells each instance from its least host, and the I(r) row over every
subset that of the span check's rows over the subsets a move changes.  The object path of the
boundary map, which built a BasedDiagram for every basing and every
spliced triangle term, a DegenerateDiagram for every shrink and a Fraction
LinComb for every rewrite, is the oracle of boundary's based-word core,
and the object path of check_formula, which paired f with gen_family's
RelationInstances, the oracle of its pairings on summed rows; its
pairings from every copy of an instance are the oracle of those from
each instance's least support term.  The
paper-level statements about the boundary (epsilon of a based diagram, the
triangle and based 6-term families, the duality between d and based 6T)
are checked on that object path.

The move table builders are the oracle of the committed move tables
(src/arrowforms/tables, which moves.read_table loads): models builds the
move models from their planar pictures, _normal_forms reads every slot
rotation of them, and _pair_descriptors, _full_descriptors and
_full_anchor_table group those into the descriptor tables; serialize_tables
writes the files, and running this module (src/ on the path) rewrites
them.  oracle_models are the move models as the template pin
(engine._template_hash) hashes them: the kink models, which the program
hand-codes, the bigons and every placement of the three R3 lines, of which
models("R3") keeps one per rotation orbit.  The unreduced six-term table
and the gap-relation test read them.  pair_ortho is the paper's
orthonormal pairing ( , ), which only the tests of its statements read.
double_paren and double_angle are the subset-counting brackets (( , ))
and << , >> on diagram objects, one subdiagram at a time: the oracle of
engine.evaluate, which scores subsets on a rotation-compiled table.

apply_R_move is one move on g through relations._apply_move, for tests that
want only the new diagram.

_cyclic_ordered and _other_pos, the slot-order test and endpoint lookup
these scans share, live here: the program's matchers read the slot order
off the other endpoints of the anchor arrows instead."""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd
from pathlib import Path
from typing import NamedTuple

from arrowforms import moves
from arrowforms.boundary import NormalizationError
from arrowforms.diagrams import (
    ArrowDiagram,
    BasedDiagram,
    DegenerateDiagram,
    DiagramError,
    GaussDiagram,
    _induced,
    arrows_cross,
    canonical_arrows,
)
from arrowforms.engine import normalization_window
from arrowforms.lincomb import LinComb, _add_into, as_lincomb
from arrowforms.maps import pair_norm, subdiagram_expand_I
from arrowforms.moves import HEAD, TAIL, LocalModel
from arrowforms.relations import (
    _PAIRS,
    _SIDE_SIGN,
    CONSTRAINT_FAMILIES,
    FAMILY_SPECIES,
    Match,
    RelationInstance,
    _assemble_term,
    _chord_matchings,
    _complete_marks,
    _family_instances,
    _full_matches,
    _host_instances,
    _proportion_key,
    _r_vectors,
    _six_term_coeff,
    _spelled,
    _summed,
    _apply_move,
    enumerate_diagrams,
    gen_family,
    r1_matches,
    r3_pair_matches,
)

from conftest import echelon_of, spans


def _cyclic_ordered(anchors, size):
    """True iff the anchor positions occur in slot order around the circle."""
    a0 = anchors[0]
    rel = [(a - a0) % size for a in anchors]
    return all(rel[i] < rel[i + 1] for i in range(1, len(rel) - 1)) and all(r > 0 for r in rel[1:])


def _other_pos(d, arrow, role):
    a = d.arrows[arrow]
    return a[0] if role == TAIL else a[1]


# ---------------------------------------------------------------------------
# the move models: the kink models, which the program hand-codes, the
# bigons and every placement of the three R3 lines, as the template pin
# (engine._template_hash) hashes them (oracle_models), and the models the
# move tables are built from (models), where R3 keeps one per rotation orbit


def _gap_interval(s_from, s_to, nslots):
    """Gaps swept going forward from slot s_from to slot s_to."""
    out = []
    s = s_from
    while s != s_to:
        out.append(s)
        s = (s + 1) % nslots
    return frozenset(out)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sign(x):
    return 1 if x > 0 else -1


def r1_models():
    """Kink insertion/removal.  Two adjacency types: head-then-tail with
    marking 0, tail-then-head with marking K (the little loop must be
    nullhomologous); either sign."""
    out = []
    for word, expr in ((((0, HEAD), (0, TAIL)), frozenset()), (((0, TAIL), (0, HEAD)), frozenset({0}))):
        for s in (1, -1):
            out.append(
                LocalModel("R1", 1, 1, (s,), (expr,), {"L": (word,), "R": ((),)})
            )
    return out


def r2_models():
    """Bigon insertion/removal: two strands crossing twice, one strand over
    at both crossings; the two crossings carry opposite signs and equal
    markings."""
    # geometry: crossings 0 (left) and 1 (right); line 1 straight, line 2 bumped.
    tangents = {1: {0: (1, 0), 1: (1, 0)}, 2: {0: (1, 1), 1: (1, -1)}}
    models = {}
    for perm in permutations((1, 2)):  # slot s hosts line perm[s]
        slot_of = {perm[s]: s for s in range(2)}
        for o1, o2 in product((1, -1), repeat=2):
            o = {1: o1, 2: o2}
            for over in (1, 2):
                under = 2 if over == 1 else 1
                signs = []
                for c in (0, 1):
                    du = tuple(o[over] * x for x in tangents[over][c])
                    dv = tuple(o[under] * x for x in tangents[under][c])
                    signs.append(_sign(_cross(du, dv)))
                expr = _gap_interval(slot_of[under], slot_of[over], 2)
                groups = []
                for s in range(2):
                    ln = perm[s]
                    order = (0, 1) if o[ln] > 0 else (1, 0)
                    role = TAIL if over == ln else HEAD
                    groups.append(tuple((c, role) for c in order))
                m = LocalModel(
                    "R2", 2, 2, signs, (expr, expr), {"L": tuple(groups), "R": ((), ())}
                )
                models[m.key] = m
    return list(models.values())


def r3_models(orbits=False):
    """Triple-point move: three lines forming a triangle, one line entirely
    over or under the other two.  Both sides of the move are kept; the move
    reverses the order of the two crossings along every strand.

    Every placement of the lines in the slots, or with `orbits` only those
    with line 1 in slot 0, which come first: the other placements are the
    slot rotations of these models, which the descriptor tables read off
    each model (_normal_forms), so one model per rotation orbit."""
    # crossing ids: 0 between lines 1,2; 1 between lines 1,3; 2 between lines 2,3
    lines_of = {0: (1, 2), 1: (1, 3), 2: (2, 3)}
    # geometric order of each line's crossings along its positive direction
    line_cross = {1: (0, 1), 2: (0, 2), 3: (2, 1)}
    base_dir = {1: (1, 0), 2: (0, 1), 3: (1, -1)}
    models = {}
    for perm in permutations((1, 2, 3)):  # slot s hosts line perm[s]
        if orbits and perm[0] != 1:
            continue
        slot_of = {perm[s]: s for s in range(3)}
        for o1, o2, o3 in product((1, -1), repeat=3):
            o = {1: o1, 2: o2, 3: o3}
            for over_bits in product((0, 1), repeat=3):
                over = {c: lines_of[c][b] for c, b in zip((0, 1, 2), over_bits)}
                # admissible iff the 'over' relation is not a 3-cycle
                beats = {ln: 0 for ln in (1, 2, 3)}
                for c in (0, 1, 2):
                    beats[over[c]] += 1
                if sorted(beats.values()) != [0, 1, 2]:
                    continue
                signs = []
                markexpr = []
                for c in (0, 1, 2):
                    a, b = lines_of[c]
                    ov = over[c]
                    un = b if ov == a else a
                    du = tuple(o[ov] * x for x in base_dir[ov])
                    dv = tuple(o[un] * x for x in base_dir[un])
                    signs.append(_sign(_cross(du, dv)))
                    markexpr.append(_gap_interval(slot_of[un], slot_of[ov], 3))
                groups_L, groups_R = [], []
                for s in range(3):
                    ln = perm[s]
                    order = line_cross[ln] if o[ln] > 0 else tuple(reversed(line_cross[ln]))
                    grp = tuple((c, TAIL if over[c] == ln else HEAD) for c in order)
                    groups_L.append(grp)
                    groups_R.append(tuple(reversed(grp)))
                m = LocalModel(
                    "R3", 3, 3, signs, markexpr, {"L": tuple(groups_L), "R": tuple(groups_R)}
                )
                models[m.key] = m
    return list(models.values())


@cache
def oracle_models(kind):
    """The kink, bigon or R3 models, all 4 + 16 + 288 of them, in the order
    in which the template pin hashes them."""
    return {"R1": r1_models, "R2": r2_models, "R3": r3_models}[kind]()


@cache
def models(kind):
    """The models the move tables are built from, in build order: the 16
    R2 models, both members of each slot-rotation orbit (the models_R2
    table, whose order the R2+ moves of the seeded walks are decoded by),
    and the 96 R3 models, one per rotation orbit."""
    return r2_models() if kind == "R2" else r3_models(orbits=True)


# ---------------------------------------------------------------------------
# the move table builders: the program loads their output, serialized by
# serialize_tables, from src/arrowforms/tables (moves.read_table), and
# test_relations.py holds the committed files to it byte for byte


def _det(rows):
    """Determinant of a small square integer matrix (Laplace expansion)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def _gap_relation(model):
    """The integer relation between K and the markings of a model.

    The marking of crossing c is the sum of the gaps (between consecutive
    slots) in model.markexpr[c], and all gaps sum to K.  With every
    crossing visible this gap system has one row more than unknowns and
    full column rank, so it has exactly one left-null vector y, up to
    scale: the signed maximal minors.  The system is then consistent iff
    y[0]*K + sum(y[c+1]*mark_c) == 0, which is how matches are checked and
    how six-term matches complete their hidden crossing (_complete_marks).
    Raises ValueError for a model whose system is not of that shape.

    The system depends on the slot count and markexpr only, so y is
    computed once per such pair (_gap_minors) for all the models and
    descriptors that share it."""
    ns = model.nslots
    if len(model.markexpr) != ns:
        raise ValueError(
            "gap system of %r has %d rows for %d gaps" % (model, len(model.markexpr) + 1, ns)
        )
    y = _gap_minors(ns, model.markexpr)
    if not any(y):
        raise ValueError("gap system of %r has more than one left-null vector" % (model,))
    return y


@cache
def _gap_minors(ns, markexpr):
    """The signed maximal minors of the square-plus-one gap system of
    _gap_relation, divided by their gcd (all zero when they all vanish)."""
    rows = [[1] * ns] + [[int(s in e) for s in range(ns)] for e in markexpr]
    y = [(-1) ** i * _det(rows[:i] + rows[i + 1:]) for i in range(ns + 1)]
    g = gcd(*y) or 1
    return tuple(v // g for v in y)


class _NormalForm(NamedTuple):
    """A slot-rotated model with its crossings renamed canonically: the
    parts of a LocalModel that descriptors read.  sorted_words is the
    model's words as sorted (side, slot groups) items, the first part of
    every signature."""

    sorted_words: tuple
    markexpr: tuple
    signs: tuple

    @property
    def words(self):
        return dict(self.sorted_words)


@cache
def _shared(x):
    """The first object equal to x that was passed here: the normal forms
    repeat a few small tuples and sets many times, and keep one copy."""
    return x


def _normalize_model(model, rot):
    """The normal form (_NormalForm) of a model at slot rotation rot: the
    slot-rotated model with crossings renamed by the slots they occupy.

    Two descriptors whose normal forms agree (under a sign mode, see
    _signature) match the same sites and build the same instance terms, so
    one representative suffices."""
    ns = model.nslots
    words = {
        side: tuple(model.words[side][(s + rot) % ns] for s in range(ns))
        for side in model.words
    }
    markexpr = tuple(frozenset((x - rot) % ns for x in e) for e in model.markexpr)
    slots_of = {}
    for s in range(ns):
        for c, _r in words["L"][s]:
            slots_of.setdefault(c, []).append(s)
    order = sorted(slots_of, key=lambda c: tuple(slots_of[c]))
    rename = {c: i for i, c in enumerate(order)}
    new_words = {
        side: _shared(tuple(_shared(tuple((rename[c], r) for c, r in g)) for g in words[side]))
        for side in words
    }
    return _NormalForm(
        _shared(tuple(sorted(new_words.items()))),
        _shared(tuple(markexpr[c] for c in order)),
        _shared(tuple(model.signs[c] for c in order)),
    )


@cache
def _normal_forms(kind):
    """Per model of models(kind), in order: its normal forms at slot
    rotations 0..nslots-1 (96 R3 models x 3 and 16 R2 models x 2, 320
    normalizations in all).  The rotations stand for the models a rotation
    of the slots gives, which models("R3") does not list."""
    return tuple(
        tuple(_normalize_model(model, rot) for rot in range(model.nslots))
        for model in models(kind)
    )


def _signature(form, mode):
    """What two normal forms must share to give one descriptor.  Modes:
    'gauss' keeps signs (they constrain the match), 'pairprod' keeps only
    products of sign pairs (all that the sign-forgotten 6-term
    coefficients use), 'plain' drops signs."""
    signs = form.signs
    if mode == "pairprod":
        signs = tuple(signs[i] * signs[j] for i, j in ((0, 1), (0, 2), (1, 2)))
    elif mode == "plain":
        signs = ()
    return form.sorted_words, form.markexpr, signs


def _form_model(model, form):
    """The LocalModel of a normal form of `model`, built only for a shape
    that a descriptor table keeps."""
    return LocalModel(model.kind, model.nslots, model.ncross, form.signs, form.markexpr, form.words)


def _six_term_signature(model, side, pair, singles, mode):
    """Everything a pair descriptor matches on and builds, with its crossings
    relabelled: present pair -> 0, 1, third crossing -> 2.

    (matching data, six terms): the anchor role pair, singles, markexpr and,
    in 'gauss' mode, the pair's signs; then the multiset of the six
    (coefficient, per-slot words restricted to the term's pair [, its
    signs]), taken up to one global sign."""
    order = pair + (3 - sum(pair),)
    label = {c: i for i, c in enumerate(order)}
    gauss = mode == "gauss"
    anchor = model.words[side][0]
    matching = (
        (anchor[0][1], anchor[1][1]),
        tuple((label[c], s, r) for c, s, r in singles),
        tuple(model.markexpr[c] for c in order),
        tuple(model.signs[c] for c in pair) if gauss else (),
    )
    terms = []
    for sd in ("L", "R"):
        for p in _PAIRS:
            words = tuple(tuple((label[c], r) for c, r in g if c in p) for g in model.words[sd])
            signs = tuple(sorted((label[c], model.signs[c]) for c in p)) if gauss else ()
            terms.append((_six_term_coeff(model, sd, p, gauss), words, signs))
    six = min(sorted(terms), sorted((-c, w, sg) for c, w, sg in terms))
    return matching, tuple(six)


def _pair_entry(model, side, pair, singles, weight):
    """The table entry of one pair descriptor:
    (model, side, pair, singles, weight, third, relation, x_first), where
    third is the crossing the descriptor does not see, relation the
    model's _gap_relation and x_first whether slot 1 holds the other
    endpoint of pair[0] (slot 2 then holds that of pair[1]).  The relation
    must have coefficient +-1 on the third crossing, so that every pair of
    visible markings completes to exactly one integer marking of it (see
    _complete_marks).  Raises ValueError otherwise."""
    third = 3 - sum(pair)
    relation = _gap_relation(model)
    if relation[third + 1] not in (1, -1):
        raise ValueError(
            "gap relation %r of %r does not pin the hidden crossing %d"
            % (relation, model, third)
        )
    x_first = any(c == pair[0] and s == 1 for c, s, _r in singles)
    return (model, side, pair, singles, weight, third, relation, x_first)


def program_entry(entry):
    """A pair descriptor entry (_pair_entry) as the program's table holds
    it, without the singles and the weight, which only the builders and
    their tests read: (model, side, pair, third, relation, x_first)."""
    model, side, pair, _singles, _weight, third, relation, x_first = entry
    return (model, side, pair, third, relation, x_first)


@cache
def _pair_descriptors(mode):
    """Two-crossing R3 term shapes, indexed by the role pair of the shared
    adjacent endpoints.  Entries (see _pair_entry):
    (model, side, pair, singles, weight, third, relation, x_first) with the shared
    strand normalized to slot 0 and
    singles = ((crossing, slot, role), (crossing, slot, role)).

    The shapes are the (side, normal form) classes of every R3 model, side
    and choice of shared strand: the shared strand is the slot that a
    rotation moves to slot 0, so the forms are read from _normal_forms (one
    per model and slot rotation).  A LocalModel is built only for the first
    shape of each group, the one kept.  Many of the shapes build the same
    6-term instance: at one host position, L/R twin models and the placements of
    the absent third crossing give the same six (diagram, coefficient)
    pairs up to one global sign.  So the shapes are grouped by
    _six_term_signature and only the first of each group, in shape order,
    is kept; weight counts the shapes of its group.  Equal signatures match
    at the same positions, complete the same markings and splice the same
    terms, so the grouping is exact.  Keeping the first keeps every
    instance's first occurrence, hence the kept instances and their term
    order: only later copies of an instance go.  ('pairprod': 96 shapes in
    12 groups; 'gauss': 192 in 96.)"""
    shapes = set()
    groups = {}  # signature -> [first shape, number of shapes]
    for model, forms in zip(models("R3"), _normal_forms("R3")):
        for side in ("L", "R"):
            for form in forms:
                base_sig = _signature(form, mode)
                if (side, base_sig) in shapes:
                    continue
                shapes.add((side, base_sig))
                word = form.words[side]
                pair = (word[0][0][0], word[0][1][0])
                singles = tuple((cc, s, rr) for s in (1, 2) for cc, rr in word[s] if cc in pair)
                sig = _six_term_signature(form, side, pair, singles, mode)
                group = groups.get(sig)
                if group is None:
                    group = groups[sig] = [(_form_model(model, form), side, pair, singles), 0]
                group[1] += 1
    out = {(TAIL, TAIL): [], (TAIL, HEAD): [], (HEAD, TAIL): [], (HEAD, HEAD): []}
    for (matching, _six), (desc, weight) in groups.items():
        out[matching[0]].append(_pair_entry(*desc, weight))
    return out


@cache
def _full_descriptors(kind, mode):
    """Deduplicated complete local model shapes: list of (model, side).
    Each model stands for its least normal form (see _normal_forms) under
    the mode's signature; a LocalModel is built only for a kept shape.  The
    second R2 model of each rotation orbit has the first one's forms,
    rotated, so it adds no shape."""
    table = {}
    sides = ("L", "R") if kind == "R3" else ("L",)
    for model, forms in zip(models(kind), _normal_forms(kind)):
        # the first form whose signature no later one undercuts by `<`
        best = min(forms, key=lambda form: _signature(form, mode))
        sig = _signature(best, mode)
        if (sides[0], sig) not in table:
            nm = _form_model(model, best)
            for side in sides:
                table[side, sig] = (nm, side)
    return list(table.values())


@cache
def _full_anchor_table(kind, mode):
    """Full descriptors keyed by their slot signature.

    The signature of a descriptor is its slot word with the crossings
    relabelled 0, 1, ... by first appearance, each with its role, plus, in
    'gauss' mode, the crossings' signs in label order.  Entry: (index in
    _full_descriptors, model, side, crossings in label order, relation),
    where relation is the model's integer gap relation (_gap_relation).
    Each list keeps descriptor order."""
    table = {}
    for i, (model, side) in enumerate(_full_descriptors(kind, mode)):
        word = model.words[side]
        order = tuple(dict.fromkeys(c for grp in word for c, _r in grp))
        label = {c: j for j, c in enumerate(order)}
        sig = tuple(tuple((label[c], r) for c, r in grp) for grp in word)
        signs = tuple(model.signs[c] for c in order) if mode == "gauss" else ()
        table.setdefault((sig, signs), []).append(
            (i, model, side, order, _gap_relation(model))
        )
    return table


# ---------------------------------------------------------------------------
# the table files


def _json(x):
    return json.dumps(x, separators=(",", ":"))


class _ModelRows:
    """The "models" list of one table file: each model once, by key, in the
    order first named; index(model) is the model's position there."""

    def __init__(self):
        self.rows = []
        self._at = {}

    def index(self, model):
        at = self._at.get(model.key)
        if at is None:
            at = self._at[model.key] = len(self.rows)
            self.rows.append(
                [model.signs, [sorted(e) for e in model.markexpr], model.words["L"], model.words["R"]]
            )
        return at


def _table_text(rows, entries=None):
    """One table file: a JSON object of the model rows and, when given, the
    entries, one per line."""
    parts = ['"models":[\n' + ",\n".join(map(_json, rows)) + "\n]"]
    if entries is not None:
        parts.append('"entries":[\n' + ",\n".join(map(_json, entries)) + "\n]")
    return "{" + ",\n".join(parts) + "}\n"


def serialize_tables():
    """{name: text} of every move table file that moves.read_table loads,
    in the format its docstring gives:

      * models_R2: models("R2"), in order.
      * pair_<mode>: _pair_descriptors(mode), one entry per descriptor
        in the program's format (program_entry), table key first:
        [anchor role, anchor role, model, side, pair, third, relation,
        x_first].
      * full_<kind>_<mode>: _full_anchor_table(kind, mode), one entry per
        descriptor in descriptor order, so an entry's index is its line:
        [slot signature, signs, model, side, crossing order, relation].

    Written with `python tests/move_oracles.py` (src/ on the path)."""
    out = {}
    models_r2 = _ModelRows()
    for m in models("R2"):
        models_r2.index(m)
    out["models_R2"] = _table_text(models_r2.rows)
    for mode in ("pairprod", "gauss"):
        rows, entries = _ModelRows(), []
        for roles, descs in _pair_descriptors(mode).items():
            for desc in descs:
                model, *rest = program_entry(desc)
                entries.append([*roles, rows.index(model), *rest])
        out["pair_" + mode] = _table_text(rows.rows, entries)
    for kind in ("R2", "R3"):
        for mode in ("plain", "gauss"):
            flat = sorted(
                (
                    (i, sig, signs, model, side, order, relation)
                    for (sig, signs), descs in _full_anchor_table(kind, mode).items()
                    for i, model, side, order, relation in descs
                ),
                key=lambda e: e[0],
            )
            assert [e[0] for e in flat] == list(range(len(flat)))
            rows = _ModelRows()
            entries = [
                [sig, signs, rows.index(model), side, order, relation]
                for _i, sig, signs, model, side, order, relation in flat
            ]
            out["full_%s_%s" % (kind, mode)] = _table_text(rows.rows, entries)
    return out


def pair_ortho(x, y):
    """( , ): orthonormal with respect to the diagram basis."""
    x, y = as_lincomb(x), as_lincomb(y)
    if len(y) < len(x):
        x, y = y, x
    total = Fraction(0)
    for k, c in x.items():
        total += c * y.coeff(k)
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


# ---------------------------------------------------------------------------
# rational marking completion: the program's closed forms (_gap_relation,
# _complete_marks) replaced it


def _solve_gaps(model, present, marks, K):
    """Solve the gap classes from the markings of the present crossings.

    Returns None when inconsistent, else (particular, kernel_basis) over the
    rationals.  The constraint matrices have the consecutive-ones property,
    so rational consistency with integer data implies integer solutions.
    """
    ns = model.nslots
    rows = [([Fraction(1)] * ns, Fraction(K))]
    for c in present:
        coeffs = [Fraction(1) if s in model.markexpr[c] else Fraction(0) for s in range(ns)]
        rows.append((coeffs, Fraction(marks[c])))
    # gaussian elimination on at most 3 unknowns
    mat = [list(co) + [r] for co, r in rows]
    pivots = []
    rix = 0
    for col in range(ns):
        piv = next((i for i in range(rix, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rix], mat[piv] = mat[piv], mat[rix]
        mat[rix] = [x / mat[rix][col] for x in mat[rix]]
        for i in range(len(mat)):
            if i != rix and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rix])]
        pivots.append(col)
        rix += 1
    for i in range(rix, len(mat)):
        if mat[i][ns]:
            return None
    part = [Fraction(0)] * ns
    for r, col in enumerate(pivots):
        part[col] = mat[r][ns]
    free = [c for c in range(ns) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ns
        v[f] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -mat[r][f]
        basis.append(v)
    return part, basis


def _expr_values(model, c, solution, window):
    """Possible markings of crossing c on the solution space, window-filtered:
    a single-element list when the marking is pinned by the visible ones,
    else all window values.
    """
    part, basis = solution
    expr = model.markexpr[c]
    v0 = sum(part[s] for s in expr)
    if all(sum(b[s] for s in expr) == 0 for b in basis):
        return [int(v0)] if v0.denominator == 1 else []
    return sorted(window.allowed)


_MARK_CACHE = {}


def _mark_options(model, present, marks, K, window):
    """Window-filtered completions of the visible marking assignment to all
    crossings of the model; cached, since the same (model, markings) pair
    recurs across many host diagrams."""
    key = (model.key, present, tuple(sorted(marks.items())), K, window)
    hit = _MARK_CACHE.get(key)
    if hit is not None:
        return hit
    sol = _solve_gaps(model, present, marks, K)
    options = []
    if sol is not None:
        absent = [c for c in range(model.ncross) if c not in present]
        if not absent:
            options = [dict(marks)]
        else:
            c = absent[0]
            for mv in _expr_values(model, c, sol, window):
                full = dict(marks)
                full[c] = mv
                if _solve_gaps(model, tuple(range(model.ncross)), full, K) is not None:
                    options.append(full)
    _MARK_CACHE[key] = options
    return options


def _full_matches_scan(d, kind, mode):
    """Brute-force version of _full_matches (kept as a testing oracle)."""
    descs = _full_descriptors(kind, mode)
    ncross = descs[0][0].ncross
    if d.n < ncross:
        return
    size = 2 * d.n
    for arrows in permutations(range(d.n), ncross):
        for model, side in descs:
            if mode == "gauss" and any(
                d.arrows[a][3] != model.signs[c] for c, a in enumerate(arrows)
            ):
                continue
            word = model.words[side]
            anchors = []
            ok = True
            for s in range(model.nslots):
                grp = word[s]
                positions = [_other_pos(d, arrows[c], rr) for (c, rr) in grp]
                for j in range(1, len(positions)):
                    if positions[j] != (positions[0] + j) % size:
                        ok = False
                anchors.append(positions[0])
            if not ok or not _cyclic_ordered(anchors, size):
                continue
            marks = {c: d.arrows[arrows[c]][2] for c in range(ncross)}
            if _solve_gaps(model, tuple(range(ncross)), marks, d.K) is None:
                continue
            arrow_map = dict(enumerate(arrows))
            yield Match(model, side, tuple(range(ncross)), arrow_map, marks, d, anchors)


@cache
def _bucket_table(kind, mode):
    """Full descriptors indexed by the role pair of their first slot group.

    Entry: (model, side, pair, rest, relation) where pair maps the anchored
    group's two crossings, rest lists the remaining groups as (slot, group)
    and relation is the model's integer gap relation (_gap_relation)."""
    table = {}
    for model, side in _full_descriptors(kind, mode):
        word = model.words[side]
        (c1, r1), (c2, r2) = word[0]
        rest = tuple((s, word[s]) for s in range(1, model.nslots))
        table.setdefault((r1, r2), []).append(
            (model, side, (c1, c2), rest, _gap_relation(model))
        )
    return table


def full_matches_bucket_scan(d, kind, mode, positions=None):
    """The descriptor-bucket scan that relations._full_matches replaced,
    kept as its oracle.  Matches of a complete local model (all crossings
    visible) inside d.

    Anchored search: every slot group occupies consecutive positions, so
    fixing the first group on an adjacent endpoint pair (p, p+1 mod 2n)
    determines the rest.  Matches come in the order of p, over all of
    0..2n-1 or, when `positions` is given, over those positions only.

    Two exact shortcuts leave the matches and their order unchanged:
      * adjacency prefilter: every slot group is two consecutive endpoints
        of two different crossings.  So an R2 match needs the anchor arrows
        u, v adjacent (endpoints at q, q+1) at least twice, and an R3 match
        needs a third arrow adjacent to both; other p are skipped.
      * integer gap relation: the gap system of a full model is consistent
        iff its _gap_relation vanishes on (K, markings), which replaces the
        rational elimination of _solve_gaps.

    The matches' layouts are built lazily (see Match)."""
    table = _bucket_table(kind, mode)
    ncross = 2 if kind == "R2" else 3
    if d.n < ncross:
        return
    size = 2 * d.n
    ends = d.endpoint_roles()
    nbrs = [[] for _ in range(d.n)]  # arrow adjacency multigraph
    for q in range(size):
        a, b = ends[q][0], ends[(q + 1) % size][0]
        if a != b:
            nbrs[a].append(b)
            nbrs[b].append(a)
    for p in range(size) if positions is None else positions:
        (u, ru), (v, rv) = ends[p], ends[(p + 1) % size]
        if u == v:
            continue
        if kind == "R2":
            if nbrs[u].count(v) < 2:
                continue
        elif set(nbrs[u]).isdisjoint(nbrs[v]):
            continue
        for model, side, pair, rest, relation in table.get((ru, rv), ()):
            if mode == "gauss" and (
                d.arrows[u][3] != model.signs[pair[0]]
                or d.arrows[v][3] != model.signs[pair[1]]
            ):
                continue
            arrow_map = {pair[0]: u, pair[1]: v}
            anchors = [p] + [None] * (model.nslots - 1)
            ok = True
            for s, grp in rest:
                base = next(
                    (j for j, (c, _r) in enumerate(grp) if c in arrow_map), None
                )
                if base is None:
                    ok = False
                    break
                bc, br = grp[base]
                q0 = (_other_pos(d, arrow_map[bc], br) - base) % size
                for j, (c, r) in enumerate(grp):
                    a, ar = ends[(q0 + j) % size]
                    if ar != r or arrow_map.setdefault(c, a) != a:
                        ok = False
                        break
                if not ok:
                    break
                anchors[s] = q0
            if not ok or len(set(arrow_map.values())) != ncross:
                continue
            if mode == "gauss" and any(
                d.arrows[arrow_map[c]][3] != model.signs[c] for c in range(ncross)
            ):
                continue
            if not _cyclic_ordered(anchors, size):
                continue
            marks = {c: d.arrows[arrow_map[c]][2] for c in range(ncross)}
            if relation[0] * d.K + sum(relation[c + 1] * marks[c] for c in range(ncross)):
                continue
            yield Match(model, side, tuple(range(ncross)), arrow_map, marks, d, anchors)


def r3_pair_matches_scan(d, mode, fixed_positions=None):
    """The slot scan that relations.r3_pair_matches replaced, kept as its
    oracle: each descriptor of the six-term table (as built, with its
    singles) places its singles by endpoint lookup and keeps the shapes
    whose slot anchors are cyclically ordered.  Reads the table's x_first
    flag not at all, and takes the sign mode as given rather than from the
    host."""
    n = d.n
    if n < 2:
        return
    ends = d.endpoint_roles()
    size = 2 * n
    table = _pair_descriptors(mode)
    pos_range = [fixed_positions] if fixed_positions is not None else list(range(size))
    for p in pos_range:
        q = (p + 1) % size
        (u, ru), (v, rv) = ends[p], ends[q]
        if u == v:
            continue
        for model, side, pair, singles, _weight, third, relation, _x_first in table[(ru, rv)]:
            c1, c2 = pair
            arrow_map = {c1: u, c2: v}
            if mode == "gauss" and (
                d.arrows[u][3] != model.signs[c1] or d.arrows[v][3] != model.signs[c2]
            ):
                continue
            anchors = [p, None, None]
            for cc, s, rr in singles:
                anchors[s] = _other_pos(d, arrow_map[cc], rr)
            if not _cyclic_ordered(anchors, size):
                continue
            marks = _complete_marks(pair, third, relation, d.arrows[u][2], d.arrows[v][2], d.K)
            yield Match(model, side, pair, arrow_map, marks, d, anchors)


@cache
def unreduced_pair_descriptors(mode):
    """Deduplicated two-crossing R3 term shapes, indexed by the role pair of
    the shared adjacent endpoints, read off all 288 R3 models
    (oracle_models) at every rotation.  Entries: (model, side, pair, singles)
    with the shared strand normalized to slot 0 and
    singles = ((crossing, slot, role), (crossing, slot, role))."""
    table = {(TAIL, TAIL): {}, (TAIL, HEAD): {}, (HEAD, TAIL): {}, (HEAD, HEAD): {}}
    for model in oracle_models("R3"):
        for side in ("L", "R"):
            for shared in range(3):
                form = _normalize_model(model, shared)
                nm, base_sig = _form_model(model, form), _signature(form, mode)
                word = nm.words[side]
                (c1, r1), (c2, r2) = word[0]
                pair = (c1, c2)
                singles = []
                for s in (1, 2):
                    for cc, rr in word[s]:
                        if cc in pair:
                            singles.append((cc, s, rr))
                table[(r1, r2)].setdefault((side, base_sig), (nm, side, pair, tuple(singles)))
    return {k: list(v.values()) for k, v in table.items()}


def unreduced_pair_table(mode):
    """unreduced_pair_descriptors in the program's entry format
    (program_entry): every shape kept."""
    return {
        k: [program_entry(_pair_entry(*e, 1)) for e in v]
        for k, v in unreduced_pair_descriptors(mode).items()
    }


def available_moves(g, marking_set, max_degree=None):
    """Deterministic list of (move, site, params) applicable to g.

    R1 markings come from {0, K}; R2 markings from `marking_set`."""
    out = []
    grow = max_degree is None or g.n < max_degree
    if grow:
        for ins in range(max(1, 2 * g.n)):
            for kind in ("ht", "th"):
                for sign in ((1, -1) if g.signed else (0,)):
                    out.append(("R1+", ins, (kind, sign)))
    for i, kind in r1_matches(g):
        out.append(("R1-", i, ()))
    if grow and g.n + 2 <= (max_degree if max_degree is not None else g.n + 2):
        nmod = len(models("R2"))
        for ins1 in range(max(1, 2 * g.n)):
            for ins2 in range(ins1, max(1, 2 * g.n)):
                for k in range(nmod):
                    for m in sorted(marking_set):
                        out.append(("R2+", (ins1, ins2), (k, m)))
    seen_pairs = set()
    for m in _full_matches(g, "R2"):
        pair = (m.arrow_map[0], m.arrow_map[1])
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            out.append(("R2-", pair, ()))
    seen_r3 = set()
    for m in _full_matches(g, "R3"):
        word = m.model.words[m.side][0]
        first = m.arrow_map[word[0][0]]
        pos = _other_pos(g, first, word[0][1])
        key = (tuple(m.arrow_map[c] for c in (0, 1, 2)), pos)
        if key not in seen_r3:
            seen_r3.add(key)
            out.append(("R3", key, ()))
    return out


def apply_R_move(g, move, site, params=()):
    """The diagram after one Reidemeister move (see relations._apply_move)."""
    return _apply_move(g, move, site, params)[0]


def apply_R_move_full_scan(g, move, site):
    """apply_R_move for 'R2-' and 'R3', re-matching over the whole circle."""
    if move == "R2-":
        for m in _full_matches(g, "R2"):
            if (m.arrow_map[0], m.arrow_map[1]) == tuple(site):
                drop = set(site)
                return g.subdiagram([i for i in range(g.n) if i not in drop])
        raise DiagramError("arrows %r do not form a removable bigon" % (site,))
    triple, anchor = site
    for m in _full_matches(g, "R3"):
        word = m.model.words[m.side][0]
        pos = _other_pos(g, m.arrow_map[word[0][0]], word[0][1])
        if (tuple(m.arrow_map[c] for c in (0, 1, 2)), pos) != (tuple(triple), anchor):
            continue
        return _build_term(m, (0, 1, 2), "R" if m.side == "L" else "L")
    raise DiagramError("no R3 site at %r" % (site,))


def _in_window(vec, window):
    """True iff every term of the combination vec has all its markings in
    the window."""
    return all(
        all(a[2] in window.allowed for a in k.arrows) for k in vec.keys()
    )


def r_relation_vectors_explicit(n, window, limit_per_kind=None):
    """relations.r_relation_vectors with its R1+/R2+ moves listed by explicit
    insertion loops, as before it read them off move_census; kept as its
    oracle.  Differences g_after - g_before for moves within degree <= n,
    window-internal, enumerated deterministically."""
    out = []
    counts = {"R1": 0, "R2": 0, "R3": 0}
    for deg in range(0, n):
        for g in enumerate_diagrams("gauss", deg, window):
            if deg + 1 <= n and (limit_per_kind is None or counts["R1"] < limit_per_kind):
                for ins in range(max(1, 2 * g.n)):
                    for kind in ("ht", "th"):
                        mark = 0 if kind == "ht" else window.K
                        if mark not in window.allowed:
                            continue
                        for sign in (1, -1):
                            g2 = apply_R_move(g, "R1+", ins, (kind, sign))
                            out.append(("R1", LinComb.single(g2) - LinComb.single(g)))
                            counts["R1"] += 1
            if deg + 2 <= n and (limit_per_kind is None or counts["R2"] < limit_per_kind):
                for ins1 in range(max(1, 2 * g.n)):
                    for ins2 in range(ins1, max(1, 2 * g.n)):
                        for k in range(len(models("R2"))):
                            for m in window.values():
                                g2 = apply_R_move(g, "R2+", (ins1, ins2), (k, m))
                                out.append(("R2", LinComb.single(g2) - LinComb.single(g)))
                                counts["R2"] += 1
    for g in enumerate_diagrams("gauss", n, window) if n >= 3 else ():
        if limit_per_kind is not None and counts["R3"] >= limit_per_kind:
            break
        for m in _full_matches(g, "R3"):
            g2 = _build_term(m, (0, 1, 2), "R" if m.side == "L" else "L")
            vec = LinComb.single(g2) - LinComb.single(g)
            if vec and _in_window(vec, window):
                out.append(("R3", vec))
                counts["R3"] += 1
                break
    return out


# ---------------------------------------------------------------------------
# labelled enumeration: enumerate_diagrams decorates one shape per rotation
# class instead


def enumerate_diagrams_labelled(species, n, window):
    """Sorted list of all canonical diagrams of one degree over the window,
    canonicalizing every labelled decorated diagram."""
    cls = GaussDiagram if species == "gauss" else ArrowDiagram
    if n == 0:
        return [cls(window.K)]
    marks = window.values()
    signs = ((1,), (-1,)) if species == "gauss" else ((0,),)
    out = set()
    for matching in _chord_matchings(list(range(2 * n))):
        for orient in product((0, 1), repeat=n):
            ends = [(p[o], p[1 - o]) for p, o in zip(matching, orient)]
            for ms in product(marks, repeat=n):
                for ss in product(signs, repeat=n):
                    out.add(cls(window.K, [(t, h, m, s[0]) for (t, h), m, s in zip(ends, ms, ss)]))
    return sorted(out)


# ---------------------------------------------------------------------------
# object-path relation generation: gen_family and the solver's rows run on
# the tuple core (relations._host_instances) instead


def _build_term(m, present, side):
    arrows, _anchor = _assemble_term(m, present, side)
    return type(m.host)(m.host.K, arrows)


def _flip_sign(d, i):
    arrows = list(d.arrows)
    t, h, m, s = arrows[i]
    arrows[i] = (t, h, m, -s)
    return GaussDiagram(d.K, arrows)


def gen_family_objects(family, n, window, closure=True, hosts=None):
    """relations.gen_family for the families matched in diagrams, building
    every term as a diagram object and every instance found as a
    RelationInstance, then keeping the first of each key."""
    species = FAMILY_SPECIES[family]
    seen = {}

    def emit(vec):
        if not vec or closure and not _in_window(vec, window):
            return
        inst = RelationInstance(family, vec)
        seen.setdefault(inst.key(), inst)

    if hosts is None:
        hosts = enumerate_diagrams(species, n, window)
    else:
        hosts = [d for d in hosts if d.n == n]
    for d in hosts:
        if family in ("p1", "ap1"):
            for _i, _kind in r1_matches(d):
                emit(LinComb.single(d))
        elif family in ("p2h2", "ap2"):
            for _m in _full_matches(d, "R2"):
                emit(LinComb.single(d))
        elif family == "p2h1":
            for i in range(d.n):
                emit(LinComb([(d, 1), (_flip_sign(d, i), 1)]))
        elif family == "p2":
            for m in _full_matches(d, "R2"):
                i, j = m.arrow_map[0], m.arrow_map[1]
                keep_i = d.subdiagram([k for k in range(d.n) if k != j])
                keep_j = d.subdiagram([k for k in range(d.n) if k != i])
                emit(LinComb([(d, 1), (keep_i, 1), (keep_j, 1)]))
        elif family in ("p3", "g2t", "a2t"):
            presents = ((0, 1, 2),) + (_PAIRS if family == "p3" else ())
            for m in _full_matches(d, "R3"):
                emit(LinComb(
                    (_build_term(m, present, side), _SIDE_SIGN[side])
                    for side in ("L", "R") for present in presents
                ))
        elif family in ("g6t", "a6t"):
            for m in r3_pair_matches(d):
                emit(LinComb(
                    (_build_term(m, pair, side), _six_term_coeff(m.model, side, pair, d.signed))
                    for side in ("L", "R") for pair in _PAIRS
                ))
        else:
            raise ValueError("unknown family tag %r" % family)
    return sorted(seen.values(), key=lambda r: r.key())


def family_vectors_all_copies(family, hosts, allowed, closure):
    """relations._family_vectors as it spelled every copy of an instance,
    once from each host that finds it, and kept the first copy of each
    key: with closure, an instance is left out unless its terms outside
    the window cancel, and only then are its terms inside spelled.  The
    program spells each instance from its least host only."""
    first = {}
    for d in hosts:
        for terms in _host_instances(family, d, allowed):
            if closure:
                if _summed(_spelled(t for t in terms if not t[1])):
                    continue
                vec = _summed(_spelled(t for t in terms if t[1]))
            else:
                vec = _summed(_spelled(terms))
            if vec:
                key = (d.K, _proportion_key({k: e[0] for k, e in vec.items()}))
                first.setdefault(key, (d, vec))
    return first


def constraint_rows_objects(n, window, columns):
    """The solver's rows as it built them from gen_family's instances: each
    ap1, ap2 and a6t instance restricted to the columns, every coefficient
    times the |Aut| of its diagram, in family then instance-key order."""
    colset = set(columns)
    rows = []
    for family in ("ap1", "ap2", "a6t"):
        for inst in gen_family_objects(family, n, window, closure=False, hosts=columns):
            row = {k: c * k.aut_order() for k, c in inst.vector.items() if k in colset}
            if row:
                rows.append(row)
    return rows


def constraint_rows_all_hosts(window, columns):
    """relations._constraint_rows as it spelled every instance from every
    in-window host term: each copy of an instance is spelled again and
    merged into the row set.  The solver now emits each instance from its
    least in-window host only."""
    index = {d.arrows: i for i, d in enumerate(columns)}
    allowed = window.allowed
    rows = set()
    for family in CONSTRAINT_FAMILIES:
        for d in columns:
            for terms in _host_instances(family, d, allowed):
                row = {}
                for c, inside, spell in terms:
                    if inside:
                        arrows, aut = spell()
                        j = index[arrows]
                        v = row.pop(j, 0) + c * aut
                        if v:
                            row[j] = v
                if row:
                    rows.add(_proportion_key(row))
    return [dict(k) for k in sorted(rows, key=lambda k: (len(k), k))]


# ---------------------------------------------------------------------------
# the object path of the Polyak span check


def I_row_all_subsets(r):
    """relations._I_row as it expanded a move difference r: every subset of
    every diagram's arrows, induced and canonicalized as a tuple, as an
    integer row {canonical arrows: int}.  The coefficients of r, a move
    difference, are integers.  The program induces only the subsets that
    the move changes."""
    row = {}
    for g, c in r.items():
        c = int(c)
        for k in range(g.n + 1):
            for sub in combinations(range(g.n), k):
                arrows = canonical_arrows(k, _induced(g.arrows, sub))[0]
                v = row.pop(arrows, 0) + c
                if v:
                    row[arrows] = v
    return row


def check_I_span_compat_objects(n, window, limit_per_kind=None):
    """relations.check_I_span_compat as it ran on objects: the P-relation
    instances of gen_family and every I(r) of maps.subdiagram_expand_I as
    LinCombs over diagrams, spanned by an Echelon keyed by diagrams.  The
    instances are generated without window closure; those that keep a
    term outside the window are counted per family in "skipped" and left
    out, as closure leaves them out."""
    # each degree's Gauss diagrams, enumerated once for the P-relation
    # hosts and the R-relation moves
    diagrams = [enumerate_diagrams("gauss", deg, window) for deg in range(n + 1)]
    rows = []
    skipped = {}
    for deg in range(1, n + 1):
        for family in ("p1", "p2", "p3"):
            for inst in gen_family(family, deg, window, closure=False, hosts=diagrams[deg]):
                if _in_window(inst.vector, window):
                    rows.append(inst.vector)
                else:
                    skipped[family] = skipped.get(family, 0) + 1
    ech = echelon_of(rows)
    failures = []
    checked = 0
    for kind, r, _change in _r_vectors(n, window, limit_per_kind, diagrams.__getitem__):
        vec = subdiagram_expand_I(r)
        checked += 1
        if not spans(ech, vec):
            failures.append((kind, r))
    return {"checked": checked, "failures": failures, "skipped": skipped}


# ---------------------------------------------------------------------------
# the object path of the boundary map and of check_formula


def base_expand(a):
    """The sum of all based diagrams obtained by choosing a base arc.

    The empty diagram has no arcs, so it maps to 0.  Extended linearly."""
    a = as_lincomb(a)

    def expand(d, c):
        return LinComb((BasedDiagram(d, arc), c) for arc in range(2 * d.n))

    return a.map_terms(expand)


def is_nice(b):
    """True iff the endpoints bounding the base arc belong to two arrows."""
    (i1, _r1), (i2, _r2) = b.boundary_endpoints()
    return i1 != i2


def eta(b):
    """+1 if the two arrows bounding the base arc cross, else -1."""
    (i1, _r1), (i2, _r2) = b.boundary_endpoints()
    if i1 == i2:
        raise DiagramError("eta is defined for nice based diagrams only")
    return 1 if arrows_cross(b.arrows[i1], b.arrows[i2]) else -1


def head_count(b):
    """How many of the two base-arc boundary endpoints are arrowheads."""
    (_i1, r1), (_i2, r2) = b.boundary_endpoints()
    return (r1 == HEAD) + (r2 == HEAD)


def epsilon(b):
    return eta(b) * (-1) ** head_count(b)


def d_based(b):
    """epsilon(b) times the shrunk diagram; 0 when the basing is not nice."""
    if not is_nice(b):
        return LinComb.zero()
    return LinComb.single(DegenerateDiagram(b), epsilon(b))


def _based_term(m, pair, side):
    """The based diagram of one two-crossing term of match m, based at the
    shared arc."""
    shared = next(
        s for s in range(3)
        if sum(1 for (c, _r) in m.model.words[side][s] if c in pair) == 2
    )
    arrows, anchor = _assemble_term(m, pair, side)
    # a based diagram has no rotation freedom: rotate the assembled word so
    # the shared arc sits between positions 2n-1 and 0, no canonical form
    size = 2 * len(arrows)
    shift = lambda p: (p - anchor[shared] - 1) % size
    return BasedDiagram.from_word(
        m.host.K, [(shift(t), shift(h), mark, s) for (t, h, mark, s) in arrows]
    )


def _pair_is_monotonic(model, pair):
    """True iff the pair's endpoints on the shared strand are a head and a
    tail (side-independent: the two sides only reverse the order)."""
    for s in range(3):
        grp = [(c, r) for (c, r) in model.words["L"][s] if c in pair]
        if len(grp) == 2:
            return grp[0][1] != grp[1][1]
    raise AssertionError("pair shares no strand")


def _parents_at(D, arc):
    """Parent triple-point instances whose collision at `arc` matches.

    Yields (parent_key, based_terms, mu) where based_terms maps
    (pair, side) -> (BasedDiagram, transport coefficient) and mu normalizes
    the relation so a direct basing of the monotonic shrink carries its
    epsilon."""
    b0 = BasedDiagram(D, arc)
    for m in r3_pair_matches(D, positions=[arc]):
        terms = {}
        for pair in _PAIRS:
            for side in ("L", "R"):
                bt = _based_term(m, pair, side)
                terms[(pair, side)] = (bt, _six_term_coeff(m.model, side, pair, D.signed))
        direct = (tuple(sorted(m.present)), m.side)
        if terms[direct][0] != b0:
            raise AssertionError("matched term does not rebuild its own basing")
        mono = next(p for p in _PAIRS if _pair_is_monotonic(m.model, p))
        bL, cL = terms[(mono, "L")]
        bR, cR = terms[(mono, "R")]
        mu = Fraction(epsilon(bL), cL)
        if mu != Fraction(epsilon(bR), cR):
            raise AssertionError("inconsistent normalization across move sides")
        if DegenerateDiagram(bL) != DegenerateDiagram(bR):
            raise AssertionError("the two monotonic basings shrink differently")
        key = frozenset((bt, mu * c) for bt, c in terms.values())
        yield key, terms, mu, mono, direct


def _shrink_arcs(dd):
    """Arcs of the underlying diagram whose shrinking gives dd."""
    D = ArrowDiagram(dd.K, dd.arrows)
    return D, [
        arc for arc in range(2 * D.n) if DegenerateDiagram(BasedDiagram(D, arc)) == dd
    ]


def a6t_based_objects(dd):
    """The based 6-term combination attached to a monotonic diagram."""
    if not dd.is_monotonic():
        raise DiagramError("based 6-term combinations attach to monotonic diagrams")
    D, arcs = _shrink_arcs(dd)
    vectors = set()
    for arc in arcs:
        for key, _terms, _mu, _mono, _direct in _parents_at(D, arc):
            vectors.add(key)
    if not vectors:
        raise NormalizationError(
            "no triple-point completion for %r" % (dd,)
        )
    if len(vectors) > 1:
        raise AssertionError("monotonic diagram with several parent instances")
    # a frozenset iterates in hash order, which varies between runs
    return LinComb(sorted(vectors.pop()))


def triangle_relation_objects(dd):
    """The unique relation containing the non-monotonic diagram dd, as a
    vector with coefficient 1 on dd.  Fused endpoints of a single arrow give
    the one-term relation dd = 0."""
    if dd.is_monotonic():
        raise DiagramError("monotonic diagrams are basis elements, not rewritable")
    (bi, _br), (ai, _ar) = dd.fused()
    if bi == ai:
        return LinComb.single(dd)
    D, arcs = _shrink_arcs(dd)
    rewrites = {}
    for arc in arcs:
        b = BasedDiagram(D, arc)
        eps = epsilon(b)
        for key, terms, mu, mono, direct in _parents_at(D, arc):
            target = DegenerateDiagram(terms[(mono, "L")][0])
            _bt, c = terms[direct]
            u = Fraction(mu * c, eps)
            if key in rewrites:
                if rewrites[key] != (target, u):
                    raise AssertionError("parent relation disagrees between basings")
            else:
                rewrites[key] = (target, u)
    if not rewrites:
        raise NormalizationError(
            "no triangle relation for %r" % (dd,)
        )
    out = {dd: Fraction(1)}
    for target, u in rewrites.values():
        _add_into(out, {target: -u})
    return LinComb._of(out)


@cache
def triangle_rewrite_objects(dd, window):
    """dd (non-monotonic) as a combination of monotonic diagrams."""
    out = {dd: Fraction(1)}
    _add_into(out, triangle_relation_objects(dd).scale(-1).terms)
    out = LinComb._of(out)
    if not _in_window(out, window):
        raise NormalizationError(
            "rewriting %r needs a marking outside the window" % (dd,)
        )
    for k in out.keys():
        if not k.is_monotonic():
            raise AssertionError("triangle rewrite produced a non-monotonic diagram")
    return out


def normalize_triangle_objects(x, window):
    """Rewrite every non-monotonic key into the monotonic basis.

    Out-of-window rewrites raise NormalizationError rather than dropping
    terms.  Keys are processed in canonical order for reproducibility."""
    x = as_lincomb(x)
    out = {}
    for dd in sorted(x.keys()):
        c = x.coeff(dd)
        if dd.is_monotonic():
            _add_into(out, {dd: c})
        else:
            _add_into(out, triangle_rewrite_objects(dd, window).scale(c).terms)
    return LinComb._of(out)


def based_6T_pairing_check(b, dd, window):
    """Duality check (d(b), dd) = (b, based-6T(dd)) for monotonic dd."""
    lhs = pair_ortho(normalize_triangle_objects(d_based(b), window), LinComb.single(dd))
    try:
        rel = a6t_based_objects(dd)
    except NormalizationError:
        rel = LinComb.zero()
    return lhs == rel.coeff(b)


def gen_degenerate_family(family, n, window):
    """The triangle or based6t relation instances over the degree-n arrow
    diagrams of the window, from every basing: the triangle relation of each
    non-monotonic shrink whose relation stays in the window, the based
    6-term combination of each nice monotonic one.  A shrink without a
    triple-point completion gives none."""
    seen = {}
    for D in enumerate_diagrams("arrow", n, window):
        for arc in range(2 * D.n):
            b = BasedDiagram(D, arc)
            dd = DegenerateDiagram(b)
            try:
                if family == "triangle":
                    if dd.is_monotonic():
                        continue
                    vec = triangle_relation_objects(dd)
                    if not _in_window(vec, window):
                        continue
                elif family == "based6t":
                    if not is_nice(b) or not dd.is_monotonic():
                        continue
                    vec = a6t_based_objects(dd)
                else:
                    raise ValueError("unknown family tag %r" % family)
            except NormalizationError:
                continue
            inst = RelationInstance(family, vec)
            seen.setdefault(inst.key(), inst)
    return sorted(seen.values(), key=lambda r: r.key())


def boundary_d_objects(a, window):
    """d on arrow combinations: all nice basings, shrunk with epsilon, in
    the monotonic basis."""
    raw = base_expand(a).map_terms(lambda b, c: d_based(b).scale(c))
    return normalize_triangle_objects(raw, window)


def check_formula_objects(f, window):
    """Static report on one formula: the three constraint-family pairings,
    the first instance pairing nonzero with f (family, degree, index into
    gen_family's list, instance; None when all vanish), the boundary
    vanishing flag, and a cross-consistency verdict.

    The 6-term pairings and the boundary vanishing are two renderings of the
    same condition, so (given the kink and bigon checks pass) they must
    agree; a disagreement means one of the two machineries is broken."""
    for m in f.markings():
        if m not in window:
            raise ValueError("formula marking %d outside the window" % m)
    families = {}
    first = None
    support = list(f.vector.keys())
    for fam in CONSTRAINT_FAMILIES:
        worst = Fraction(0)
        for deg in f.degrees():
            # only instances meeting f's support can pair nonzero, so
            # anchoring the generator there is exhaustive for this check
            instances = gen_family(fam, deg, window, closure=False, hosts=support)
            for i, inst in enumerate(instances):
                pairing = pair_norm(f.vector, inst.vector)
                if pairing and first is None:
                    first = {"family": fam, "degree": deg, "index": i, "instance": inst}
                worst = max(worst, abs(pairing))
        families[fam] = worst
    d = boundary_d_objects(f.vector, normalization_window(window))
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


def check_pairings_all_copies(f, window):
    """check_formula's pairings as it computed them when it spelled every
    copy of an instance, once from each of f's support terms it reaches
    (family_vectors_all_copies without closure): {"families": the largest
    |pairing| per family, "first_nonzero": (family, degree, index into
    gen_family's list, the instance's terms) or None}.  The program
    spells each instance from its least support term only
    (relations._family_vectors)."""
    families = {}
    first = None
    coeffs = {k.arrows: c for k, c in f.vector.items()}
    for fam in CONSTRAINT_FAMILIES:
        worst = Fraction(0)
        for deg in f.degrees():
            hosts = [k for k in f.vector.keys() if k.n == deg]
            vectors = family_vectors_all_copies(fam, hosts, window.allowed, False)
            pairings = [
                sum(coeffs.get(arrows, 0) * c * aut for arrows, (c, aut, _in) in vec.items())
                for _d, vec in vectors.values()
            ]
            if first is None and any(pairings):
                instances = _family_instances(fam, vectors)
                order = sorted(range(len(instances)), key=lambda j: instances[j].key())
                i = next(i for i, j in enumerate(order) if pairings[j])
                terms = list(instances[order[i]].vector.items())
                first = (fam, deg, i, terms)
            worst = max([worst] + [abs(p) for p in pairings])
        families[fam] = worst
    return {"families": families, "first_nonzero": first}


if __name__ == "__main__":
    folder = Path(moves.__file__).with_name("tables")
    folder.mkdir(exist_ok=True)
    for name, text in serialize_tables().items():
        (folder / (name + ".json")).write_text(text)
