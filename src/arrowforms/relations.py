"""Relation families over a finite marking window.

Every relation instance is produced by matching a local move model
(module `moves`) inside a concrete diagram and splicing the other terms of
the model into the same host.  The host is everything the local picture
does not see: its arrows keep their decorations across all terms of an
instance.  A match (Match) carries its host diagram, so the term builders
take the match, and both they and the matchers read the diagram class, K
and whether crossings carry signs off that host: only the descriptor
tables name a sign mode.  The matchers read the models through those
tables (_pair_descriptors, _full_anchor_table), which are decoded from the
committed move tables (moves.read_table) on first use; their builders are
the oracles in tests/move_oracles.py.

Families (the tags gen_family takes):

  p1, p2, p2h1, p2h2, p3      relations among Gauss diagrams
  g6t, g2t                    homogeneous projections of p3
  ap1, ap2, a6t, a2t          arrow-diagram counterparts

Generation runs on one tuple core (_host_instances).  For each host and
match it yields every term as an int coefficient and a function spelling
the term's canonical arrow tuple and |Aut|, plus whether the term lies in
the window, decided from the markings alone before anything is
canonicalized.  The core builds no diagram object, LinComb or Fraction.
_family_vectors sums and deduplicates instances as tuples, spelling each
instance from its least host only; gen_family and check_formula read it,
and gen_family builds diagrams and RelationInstances only for the
instances it returns.
The solver's rows (_constraint_rows) key each term's |Aut|-rescaled
coefficient by its column index, never spell a term outside the window,
and spell each orbit of instances under the window's symmetries from one
host only.  The Polyak span check (check_I_span_compat) spans its
P-relation rows and subdiagram expansions as integer rows keyed by
canonical arrow tuples, and builds objects only for the move vectors it
checks; its P-relation rows (_p_relation_rows) come from one circle scan
per host, with each R3 configuration spelled from one host only.

The same matching machinery drives the move census (move_census) that
random invariance walks draw from, and Reidemeister rewriting (_apply_move)
of the moves it names and of the insertion moves of the span check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product

from .diagrams import ArrowDiagram, DiagramError, GaussDiagram, _induced, canonical_arrows
from .lincomb import LinComb
from .moves import HEAD, TAIL, models, read_models, read_table
from .ratlinalg import Echelon, primitive


class MarkingWindow:
    """Finite set of allowed arrow markings plus the global marking K."""

    __slots__ = ("allowed", "K")

    def __init__(self, allowed, K):
        self.allowed = frozenset(int(x) for x in allowed)
        self.K = int(K)
        if not self.allowed:
            raise ValueError("empty marking window")

    @classmethod
    def parse(cls, text, K):
        text = text.strip()
        if ".." in text:
            lo, hi = text.split("..", 1)
            return cls(range(int(lo), int(hi) + 1), K)
        return cls((int(t) for t in text.split(",") if t.strip()), K)

    def __contains__(self, m):
        return m in self.allowed

    def __eq__(self, other):
        return (
            isinstance(other, MarkingWindow)
            and self.allowed == other.allowed
            and self.K == other.K
        )

    def __hash__(self):
        return hash((self.allowed, self.K))

    def __repr__(self):
        return "MarkingWindow(%s, K=%d)" % (sorted(self.allowed), self.K)

    def values(self):
        return tuple(sorted(self.allowed))


FAMILY_SPECIES = {
    "p1": "gauss", "p2": "gauss", "p2h1": "gauss", "p2h2": "gauss",
    "p3": "gauss", "g6t": "gauss", "g2t": "gauss",
    "ap1": "arrow", "ap2": "arrow", "a6t": "arrow", "a2t": "arrow",
}

# the kink, bigon and 6-term families whose arrow instances a formula must
# annihilate (solve_formula_space, check_formula)
CONSTRAINT_FAMILIES = ("ap1", "ap2", "a6t")


class RelationInstance:
    """One concrete relation vector, deduplicated up to a global scalar."""

    __slots__ = ("family", "vector", "_key")

    def __init__(self, family, vector):
        if not vector:
            raise ValueError("relation instance must be a nonzero vector")
        self.family = family
        self.vector = vector
        norm = vector.normalized()
        self._key = tuple(sorted(norm.terms.items(), key=lambda t: t[0]))

    def key(self):
        return self._key

    def __repr__(self):
        return "RelationInstance(%s, %r)" % (self.family, self.vector)


# ---------------------------------------------------------------------------
# diagram enumeration


def _chord_matchings(points):
    """All perfect matchings of the list `points` as tuples of pairs."""
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        b = points[i]
        rest = points[1:i] + points[i + 1:]
        for sub in _chord_matchings(rest):
            yield ((a, b),) + sub


@cache
def _shapes(n):
    """One canonical undecorated oriented chord diagram of degree n per
    rotation class, as (tail, head) pairs, sorted: 1, 4, 22 and 218 classes
    for n = 1..4, out of 2, 12, 120 and 1,680 labelled shapes."""
    out = set()
    for matching in _chord_matchings(list(range(2 * n))):
        for orient in product((0, 1), repeat=n):
            arrows = [(p[o], p[1 - o], 0, 0) for p, o in zip(matching, orient)]
            out.add(tuple(a[:2] for a in canonical_arrows(n, arrows)[0]))
    return sorted(out)


def enumerate_diagrams(species, n, window):
    """Sorted list of all canonical diagrams of one degree over the window.

    Only the representative of each shape class (_shapes) is decorated:
    every labelled decorated diagram is a rotation of a decoration of its
    shape's representative, so it has the same canonical form.  Each
    decoration is canonicalized as an arrow tuple, which merges the
    decorations that a rotation fixing the shape identifies, and each
    distinct tuple becomes one diagram, neither validated nor searched
    again (a decorated shape is a valid diagram).  K is fixed, so the
    tuples sort as the diagrams do."""
    cls = GaussDiagram if species == "gauss" else ArrowDiagram
    if n == 0:
        return [cls(window.K)]
    marks = window.values()
    signs = (1, -1) if species == "gauss" else (0,)
    auts = {}  # canonical arrows -> |Aut|
    for ends in _shapes(n):
        for ms in product(marks, repeat=n):
            for ss in product(signs, repeat=n):
                arrows = [(t, h, m, s) for (t, h), m, s in zip(ends, ms, ss)]
                canon, _r, aut = canonical_arrows(n, arrows)
                auts[canon] = aut
    return [cls._canonical(window.K, canon, auts[canon]) for canon in sorted(auts)]


# ---------------------------------------------------------------------------
# matching


class Match:
    """A local model term located inside a concrete diagram.

    host: the diagram matched in.  The term builders (_assemble_term,
    _spliced, boundary._based_term) take the match and read the diagram
    class, K and whether crossings carry signs off the host.

    anchors[s]: position in `host` of the first endpoint of slot group s.
    The layout (see _extract_layout) is built from them on first access,
    since the R3 site match (_apply_move) reads only arrow_map and the
    anchors of the matches it passes over.

    marks: the marking of every crossing of the model, visible or not.  A
    full match reads them off the host; a six-term match completes its
    hidden crossing by the model's integer gap relation (_complete_marks),
    which always has exactly one integer solution."""

    __slots__ = ("model", "side", "present", "arrow_map", "marks", "host", "anchors", "_layout")

    def __init__(self, model, side, present, arrow_map, marks, host, anchors):
        self.model = model
        self.side = side
        self.present = present
        self.arrow_map = arrow_map
        self.marks = marks
        self.host = host
        self.anchors = anchors
        self._layout = None

    @property
    def layout(self):
        if self._layout is None:
            self._layout = _extract_layout(self.host, self.arrow_map, self.anchors)
        return self._layout


def _extract_layout(d, arrow_map, anchors):
    """Cut the matched arrows out of d, remembering the attachment slots.

    Returns the host data shared by all terms of one instance: (the
    invisible arrows as (mark, sign), their cyclic word, where each model
    slot attaches to it)."""
    visible = set(arrow_map.values())
    ends = d.endpoint_roles()
    host_idx = {}
    host_arrows = []
    for i, a in enumerate(d.arrows):
        if i not in visible:
            host_idx[i] = len(host_arrows)
            host_arrows.append((a[2], a[3]))
    host_pos = []
    host_word = []
    for p in range(2 * d.n):
        i, role = ends[p]
        if i not in visible:
            host_pos.append(p)
            host_word.append((host_idx[i], role))
    slot_ranks = []
    for p_s in anchors:
        ins = sum(1 for q in host_pos if q < p_s)
        slot_ranks.append((ins, p_s))
    return host_arrows, host_word, slot_ranks


def _splice(host_word, host_arrows, groups, new_arrows):
    """Splice endpoint groups into a host's cyclic word; rebuild the arrows.

    host_word lists the host endpoints (arrow, role) in circle order and
    host_arrows[i] = (mark, sign) of host arrow i.  groups: list of
    (index, [(tag, role), ...]) in ascending index order; a group goes in
    front of host_word[index] (after the last endpoint when index ==
    len(host_word)), groups at one index in list order.  new_arrows:
    (tag, mark, sign) in output order.

    Returns (arrows, starts): the host arrows, then the new ones, as
    (tail, head, mark, sign) over the spliced word; starts[j] = position of
    the first endpoint of group j (None when the group is empty)."""
    host_pos = {}  # (arrow, role) -> position
    new_pos = {}  # (tag, role) -> position
    starts = []
    p = 0
    done = 0
    for index, grp in groups:
        for end in host_word[done:index]:
            host_pos[end] = p
            p += 1
        done = index
        starts.append(p if grp else None)
        for end in grp:
            new_pos[end] = p
            p += 1
    for end in host_word[done:]:
        host_pos[end] = p
        p += 1
    arrows = [
        (host_pos[i, TAIL], host_pos[i, HEAD], m, s) for i, (m, s) in enumerate(host_arrows)
    ]
    arrows += [(new_pos[tag, TAIL], new_pos[tag, HEAD], m, s) for tag, m, s in new_arrows]
    return arrows, starts


@cache
def _term_words(model, side, present):
    """Per slot, the endpoints of the present crossings in the model's
    word for `side`."""
    return tuple(tuple((c, r) for c, r in grp if c in present) for grp in model.words[side])


def _assemble_term(m, present, side):
    """Splice the model term for (present, side) of match m into its host.

    Returns (arrows, slot_anchor): arrows in an un-rotated word whose
    positions are meaningful, slot_anchor[s] = position of the first spliced
    endpoint of slot s (None when the slot's group is empty)."""
    host_arrows, host_word, slot_ranks = m.layout
    model = m.model
    words = _term_words(model, side, present)
    order = sorted(range(model.nslots), key=slot_ranks.__getitem__)
    groups = [(slot_ranks[s][0], words[s]) for s in order]
    signed = m.host.signed
    new = [(c, m.marks[c], model.signs[c] if signed else 0) for c in sorted(present)]
    arrows, starts = _splice(host_word, host_arrows, groups, new)
    return arrows, dict(zip(order, starts))


_PAIRS = ((0, 1), (0, 2), (1, 2))
_SIDE_SIGN = {"L": 1, "R": -1}


def _six_term_coeff(model, side, pair, signed):
    """Coefficient of the (side, pair) term of a 6-term relation; on
    unsigned hosts the sign product of the pair enters it."""
    c = _SIDE_SIGN[side]
    if not signed:
        c *= model.signs[pair[0]] * model.signs[pair[1]]
    return c


def _complete_marks(pair, third, y, m1, m2, K):
    """The markings of all three crossings of a pair descriptor's model,
    given the markings m1, m2 of its visible pair and its gap relation y:
    the hidden third crossing gets the one value on which y vanishes, as a
    dict keyed in the order pair[0], pair[1], third.  Exact in integers,
    since y[third + 1] is +-1 and so its own inverse."""
    c1, c2 = pair
    return {c1: m1, c2: m2, third: -(y[0] * K + y[c1 + 1] * m1 + y[c2 + 1] * m2) * y[third + 1]}


@cache
def _pair_descriptors(mode):
    """The two-crossing R3 term shapes of sign mode `mode` ('pairprod' or
    'gauss'), indexed by the role pair of the shared adjacent endpoints,
    decoded from tables/pair_<mode>.json (moves.read_table).  Entries:
    (model, side, pair, third, relation, x_first), with the shared strand
    normalized to slot 0; third is the crossing the descriptor does not
    see, relation the model's integer gap relation y, on which (K,
    markings) vanish exactly when the markings are consistent with the
    model, with y[third + 1] = +-1 (_complete_marks), and x_first whether
    slot 1 holds the other endpoint of pair[0] (slot 2 then holds that of
    pair[1]).

    A shape is a (side, slot-rotated model) class under the mode's sign
    signature: 'gauss' keeps signs, 'pairprod' only the products of sign
    pairs, all that the sign-forgotten 6-term coefficients use.  Shapes
    that build the same 6-term instance at one host position, up to one
    global sign, form one entry, the first of them in shape order; so only
    later copies of an instance go.  ('pairprod': 96 shapes in 12 entries;
    'gauss': 192 in 96.)  The builder is _pair_descriptors in
    tests/move_oracles.py."""
    data = read_table("pair_" + mode)
    shapes = read_models("R3", data["models"])
    out = {(TAIL, TAIL): [], (TAIL, HEAD): [], (HEAD, TAIL): [], (HEAD, HEAD): []}
    for ru, rv, k, side, pair, third, relation, x_first in data["entries"]:
        out[ru, rv].append((shapes[k], side, tuple(pair), third, tuple(relation), x_first))
    return out


def r3_pair_matches(d, positions=None):
    """Matches of a two-crossing term of an R3 model inside d.

    The two visible crossings share a strand; their endpoints there form an
    adjacent pair (p, p+1 mod 2n) of arrows u != v, which anchors the
    search, over all p or, when `positions` is given, over those only.
    The other endpoints x of u and y of v start slots 1 and 2 in the order
    in which they follow p, so a descriptor (read from the table for d's
    sign mode) matches iff its x_first flag (see _pair_descriptors) agrees with
    that order and, on a signed host, with the pair's signs.  The hidden
    third crossing is marked by the model's integer gap relation
    (_complete_marks), so every located shape is a match."""
    n = d.n
    if n < 2:
        return
    size = 2 * n
    arrows = d.arrows
    ends = d.endpoint_roles()
    table = _pair_descriptors("gauss" if d.signed else "pairprod")
    for p in range(size) if positions is None else positions:
        (u, ru), (v, rv) = ends[p], ends[(p + 1) % size]
        if u == v:
            continue
        x, y = arrows[u][1 - ru], arrows[v][1 - rv]  # the other endpoints
        x_first = (x - p) % size < (y - p) % size
        anchors = [p, x, y] if x_first else [p, y, x]  # shared by this p's matches
        for model, side, pair, third, relation, flag in table[(ru, rv)]:
            c1, c2 = pair
            if flag != x_first or d.signed and (
                arrows[u][3] != model.signs[c1] or arrows[v][3] != model.signs[c2]
            ):
                continue
            marks = _complete_marks(pair, third, relation, arrows[u][2], arrows[v][2], d.K)
            yield Match(model, side, pair, {c1: u, c2: v}, marks, d, anchors)


@cache
def _full_anchor_table(kind, mode):
    """The complete local model shapes of `kind` in sign mode `mode`
    ('plain' or 'gauss'), keyed by their slot signature, decoded from
    tables/full_<kind>_<mode>.json (moves.read_table).

    The signature of a descriptor is its slot word with the crossings
    relabelled 0, 1, ... by first appearance, each with its role, plus, in
    'gauss' mode, the crossings' signs in label order.  Entry: (index in
    descriptor order, model, side, crossings in label order, relation),
    where relation is the model's integer gap relation y: a full match
    holds iff y[0]*K + sum(y[c+1]*mark_c) == 0.  Each list keeps
    descriptor order, which is the order of the file's entries.  Each
    model stands for its least slot rotation under the mode's signature,
    and the second R2 model of each rotation orbit adds no shape.  The
    builder is _full_anchor_table in tests/move_oracles.py."""
    data = read_table("full_%s_%s" % (kind, mode))
    shapes = read_models(kind, data["models"])
    table = {}
    for i, (sig, signs, k, side, order, relation) in enumerate(data["entries"]):
        key = (tuple(tuple(map(tuple, grp)) for grp in sig), tuple(signs))
        table.setdefault(key, []).append((i, shapes[k], side, tuple(order), tuple(relation)))
    return table


def _full_hits(d, r2, r3, positions=None):
    """The one circle scan for complete local models (all crossings
    visible) inside d: the R2 hits when r2 and the R3 hits when r3, as
    plain tuples (kind, model, side, arrow map, anchors), where the arrow
    map sends each model crossing to its host arrow and anchors[s] is the
    position of the first endpoint of slot group s.

    Anchored search: every slot group is two consecutive endpoints of two
    different crossings, and the first group sits on an adjacent endpoint
    pair (p, p+1 mod 2n) of arrows u != v.  The arrow, role and partner
    position of each endpoint are read into arrays once, and p walks them
    once, over all of 0..2n-1 or, when `positions` is given, over those
    only.  At each p come the R2 hits, then the R3 hits, each kind in
    descriptor order; so a consumer that reads one kind, or drops repeats
    per kind keeping the first, sees what one scan per kind would show.

    At p the few configurations that can hold a hit are read off the
    circle, and each is looked up by its slot signature (see
    _full_anchor_table):
      * R2: the other endpoints x of u and y of v must be adjacent; they
        form the second group, (x, y) or (y, x).
      * R3: the other endpoint x of u shares a group with a neighbour,
        x-1 or x+1, that belongs to a third arrow w; the other endpoint of
        w must neighbour the other endpoint y of v, forming the last group.
        The two groups follow the first in the order of their starts after
        p, as the slots of a model do.
    The configuration's word relabels u, v, w as 0, 1, 2, which is the
    first-appearance labelling, so equal signatures mean equal slot words,
    roles and, on a signed host ('gauss' mode), signs.  A hit then holds
    iff the model's integer gap relation (see _full_anchor_table) vanishes on
    (K, markings)."""
    n = d.n
    if n < 2:
        return
    mode = "gauss" if d.signed else "plain"
    table2 = _full_anchor_table("R2", mode) if r2 else None
    table3 = _full_anchor_table("R3", mode) if r3 and n >= 3 else None
    size, K, arrows = 2 * n, d.K, d.arrows
    at, role, other = [0] * size, [0] * size, [0] * size
    for i, (t, h, _m, _s) in enumerate(arrows):
        at[t] = at[h] = i
        role[h] = 1
        other[t], other[h] = h, t
    for p in range(size) if positions is None else positions:
        p1 = (p + 1) % size
        u, v = at[p], at[p1]
        if u == v:
            continue
        ru, rv, x, y = role[p], role[p1], other[p], other[p1]
        first = ((0, ru), (1, rv))
        if table2 is not None and (y == (x + 1) % size or x == (y + 1) % size):
            if y == (x + 1) % size:
                q0, grp = x, ((0, 1 - ru), (1, 1 - rv))
            else:
                q0, grp = y, ((1, 1 - rv), (0, 1 - ru))
            signs = (arrows[u][3], arrows[v][3]) if d.signed else ()
            for _i, model, side, order, rel in table2.get(((first, grp), signs), ()):
                amap = dict(zip(order, (u, v)))
                if not rel[0] * K + rel[1] * arrows[amap[0]][2] + rel[2] * arrows[amap[1]][2]:
                    yield "R2", model, side, amap, [p, q0]
        if table3 is None:
            continue
        hits = []
        for nx in ((x - 1) % size, (x + 1) % size):
            w = at[nx]
            if w == u or w == v:
                continue
            rw, ny = role[nx], other[nx]
            # each group as (start, word over the labels u=0, v=1, w=2)
            if ny == (y - 1) % size:
                gy = (ny, ((2, 1 - rw), (1, 1 - rv)))
            elif ny == (y + 1) % size:
                gy = (y, ((1, 1 - rv), (2, 1 - rw)))
            else:
                continue
            if nx == (x - 1) % size:
                gx = (nx, ((2, rw), (0, 1 - ru)))
            else:
                gx = (x, ((0, 1 - ru), (2, rw)))
            if (gx[0] - p) % size > (gy[0] - p) % size:
                gx, gy = gy, gx
            signs = (arrows[u][3], arrows[v][3], arrows[w][3]) if d.signed else ()
            for i, model, side, order, rel in table3.get(((first, gx[1], gy[1]), signs), ()):
                amap = dict(zip(order, (u, v, w)))
                gap = rel[0] * K + rel[1] * arrows[amap[0]][2] + rel[2] * arrows[amap[1]][2]
                if not gap + rel[3] * arrows[amap[2]][2]:
                    hits.append((i, ("R3", model, side, amap, [p, gx[0], gy[0]])))
        if hits:
            hits.sort(key=lambda h: h[0])
            for _i, hit in hits:
                yield hit


def _full_matches(d, kind, positions=None):
    """Matches of a complete local model of `kind` inside d: the one scan's
    hits of that kind alone (_full_hits), in its order, as Match objects
    with marks keyed 0..k-1.  The layouts are built lazily (see Match)."""
    r3 = kind == "R3"
    for _kind, *hit in _full_hits(d, not r3, r3, positions):
        yield _hit_match(d, *hit)


def _hit_match(d, model, side, amap, anchors):
    """The Match of one hit of _full_hits inside d."""
    present = tuple(range(len(amap)))
    marks = {c: d.arrows[amap[c]][2] for c in present}
    return Match(model, side, present, amap, marks, d, anchors)


def r1_matches(d):
    """Isolated arrows carrying the kink markings."""
    out = []
    size = 2 * d.n
    for i, (t, h, m, _s) in enumerate(d.arrows):
        if t == (h + 1) % size and m == 0:
            out.append((i, "ht"))
        elif h == (t + 1) % size and m == d.K:
            out.append((i, "th"))
    return out


# ---------------------------------------------------------------------------
# family generators


def _canonical_pair(arrows):
    """(canonical arrows, |Aut|) of a valid arrow list."""
    canon, _r, aut = canonical_arrows(len(arrows), arrows)
    return canon, aut


def _spliced(m, present, side):
    return _canonical_pair(_assemble_term(m, present, side)[0])


def _flipped(d, i):
    arrows = list(d.arrows)
    t, h, mark, s = arrows[i]
    arrows[i] = (t, h, mark, -s)
    return _canonical_pair(arrows)


def _dropped(d, j):
    return _canonical_pair(_induced(d.arrows, [k for k in range(d.n) if k != j]))


def _host_instances(family, d, allowed):
    """The tuple core of relation generation: every instance that `family`
    anchors at host d, one per match, as its list of terms.

    The terms come in order as (coefficient, inside, spell): an int
    coefficient; whether every marking of the term lies in `allowed`, read
    off the host and the match before anything is built; and a function
    of no arguments that splices (or cuts) the term and canonicalizes it,
    returning (canonical arrows, |Aut|).  No diagram object, LinComb or
    Fraction is built here.  `family` is a tag of FAMILY_SPECIES
    (gen_family checks it); any other tag yields nothing."""
    outside = [i for i, a in enumerate(d.arrows) if a[2] not in allowed]
    whole = (d.arrows, d.aut_order())

    def spell_host():
        return whole

    same = (1, not outside, spell_host)
    if family in ("p1", "ap1"):
        for _i, _kind in r1_matches(d):
            yield [same]
    elif family in ("p2h2", "ap2"):
        for _m in _full_matches(d, "R2"):
            yield [same]
    elif family == "p2h1":
        for i in range(d.n):
            yield [same, (1, not outside, partial(_flipped, d, i))]
    elif family == "p2":
        for m in _full_matches(d, "R2"):
            i, j = m.arrow_map[0], m.arrow_map[1]
            yield [
                same,
                (1, all(k == j for k in outside), partial(_dropped, d, j)),
                (1, all(k == i for k in outside), partial(_dropped, d, i)),
            ]
    elif family in ("p3", "g2t", "a2t", "g6t", "a6t"):
        six = family in ("g6t", "a6t")
        if six:
            presents, matches = _PAIRS, r3_pair_matches(d)
        else:
            presents = ((0, 1, 2),) + (_PAIRS if family == "p3" else ())
            matches = _full_matches(d, "R3")
        for m in matches:
            visible = m.arrow_map.values()
            host_in = all(k in visible for k in outside)
            # the match's own term is its host, whose canonical form is known
            own = (m.side, tuple(sorted(m.present)))
            yield [
                (
                    _six_term_coeff(m.model, side, present, d.signed) if six else _SIDE_SIGN[side],
                    host_in and all(m.marks[c] in allowed for c in present),
                    spell_host if (side, present) == own else partial(_spliced, m, present, side),
                )
                for side in ("L", "R") for present in presents
            ]


def _spelled(terms):
    """The terms of _host_instances spelled, as (coefficient, inside,
    canonical arrows, |Aut|)."""
    return ((c, inside, *spell()) for c, inside, spell in terms)


def _summed(terms):
    """Spelled terms (_spelled) summed as LinComb sums them, a key whose
    coefficient cancels leaving (and re-entering last if it comes back):
    {canonical arrows: [coefficient, |Aut|, inside]}."""
    acc = {}
    for c, inside, arrows, aut in terms:
        entry = acc.get(arrows)
        if entry is None:
            acc[arrows] = [c, aut, inside]
        else:
            entry[0] += c
            if not entry[0]:
                del acc[arrows]
    return acc


def _proportion_key(row):
    """Key shared by exactly the nonzero integer rows {key: int} that are
    proportional: the sorted items of the primitive row."""
    return tuple(sorted(primitive(row).items()))


def _family_vectors(family, hosts, allowed, closure):
    """Every instance of `family` anchored at `hosts` (diagrams of one
    degree and one K), summed and deduplicated on the tuple core:
    {(K, proportion key): (host, summed terms)}, the summed terms
    ({canonical arrows: [coefficient, |Aut|, inside]}, see _summed) of
    each instance, in the order first found.  With closure, an instance is
    left out unless its terms outside the window cancel.

    Hosts run in order, and an instance is dropped at its first term that
    is an earlier host (by its last index in `hosts`), so each is spelled
    from its least host only.  That host found it first, with the same
    terms up to sign, so the copy kept is the first one: every term of the
    hosts' degree is a host that finds the instance.  A p2h1 instance is
    found from its flipped term, a p3, g2t or a2t one from its far full
    term, whose R3 move gives back the host, and a g6t or a6t one from
    each term (see _constraint_rows); the other families have one such
    term, the host."""
    rank = {d.arrows: i for i, d in enumerate(hosts)}
    first = {}
    for i, d in enumerate(hosts):
        for terms in _host_instances(family, d, allowed):
            spelled = []
            for term in _spelled(terms):
                if rank.get(term[2], i) < i:
                    break  # found first from that host
                spelled.append(term)
            else:
                vec = _summed(spelled)
                if vec and (not closure or all(e[2] for e in vec.values())):
                    key = (d.K, _proportion_key({k: e[0] for k, e in vec.items()}))
                    first.setdefault(key, (d, vec))
    return first


def gen_family(family, n, window, closure=True, hosts=None):
    """All inequivalent instances of one relation family at one degree.

    With closure, an instance whose terms outside the window do not cancel
    is left out; with closure=False it is kept, since its restriction to
    window-supported vectors is an exact constraint.

    `hosts` restricts the anchor diagrams: only instances containing one of
    the given diagrams as a term are produced.  Pairing a fixed vector v
    against a family needs only the instances meeting v's support, so
    hosts=support(v) is exhaustive for that purpose and much cheaper than
    enumerating the whole window.

    Generation runs over the tuple core (_family_vectors), and objects
    are built only for the instances returned (_family_instances)."""
    if family not in FAMILY_SPECIES:
        raise ValueError("unknown family tag %r" % family)
    if hosts is None:
        hosts = enumerate_diagrams(FAMILY_SPECIES[family], n, window)
    else:
        hosts = [d for d in hosts if d.n == n]
    first = _family_vectors(family, hosts, window.allowed, closure)
    return sorted(_family_instances(family, first), key=RelationInstance.key)


def _family_instances(family, first):
    """The RelationInstances of _family_vectors' result `first`, in its
    order, with the diagrams that several instances share built once."""
    diagrams = {}  # (K, canonical arrows) -> diagram
    out = []
    for (K, _key), (d, vec) in first.items():
        terms = {}
        for arrows, (c, aut, _inside) in vec.items():
            k = diagrams.get((K, arrows))
            if k is None:
                k = diagrams[K, arrows] = type(d)._canonical(K, arrows, aut)
            terms[k] = Fraction(c)
        out.append(RelationInstance(family, LinComb._of(terms)))
    return out


def _symmetries(window, columns, index):
    """The elements other than 1 of the group G that rho: (t, h, m) ->
    (2n-1-h, 2n-1-t, m) and, when x -> K-x maps the window onto itself,
    sigma: (t, h, m) -> (2n-1-t, 2n-1-h, K-m) generate on `columns` (the
    arrow diagrams of one degree over the window; `index` maps their
    arrows to their indices): rho, then sigma and rho sigma, each as the
    permutation of column indices it induces."""
    n = columns[0].n
    last = 2 * n - 1

    def perm(image):
        return [index[canonical_arrows(n, [image(*a) for a in d.arrows])[0]] for d in columns]

    rho = perm(lambda t, h, m, s: (last - h, last - t, m, s))
    K = window.K
    if {K - x for x in window.allowed} != window.allowed:
        return [rho]
    sigma = perm(lambda t, h, m, s: (last - t, last - h, K - m, s))
    return [rho, sigma, [rho[j] for j in sigma]]


def _constraint_rows(window, columns):
    """The formula-space constraints as the solver eliminates them: every
    kink, bigon and 6-term instance anchored at one of `columns` (the
    arrow diagrams of one degree over the window), restricted to the
    columns and rescaled by |Aut|, as an integer row {column index: int}.

    A term outside the window has no column, so it is never spelled.  Rows
    that are proportional are one row; the rows come shortest first (then
    by their proportion key), an order that keeps the fill of exact
    elimination low.

    Each G-orbit of instances (G: _symmetries) is spelled from one host.
    Only a column i that is the least index of its G-orbit anchors; an
    instance is dropped at its first in-window term j whose orbit's least
    index rep[j] is less than i; every kept row is added with its images
    under G.  The own term (the host) costs nothing.  Every in-window term
    of an instance is a host from which it is found: an ap1 or ap2
    instance has one term, its host.  Every in-window term of an a6t
    instance is a column, and the pair descriptors cover every (model,
    side, pair) shape, up to a grouping that keeps matches and terms
    (_pair_descriptors).  Any two crossings of an R3 model share a strand,
    on which their endpoints are adjacent, so r3_pair_matches anchors
    there and finds the instance from every one of its terms.  So if
    m = rep[j] is least over the in-window terms j of an instance and g
    maps j to m, the instance's image under g is found from host m and is
    not dropped there.  G maps the instances, and so the row set, onto
    themselves (the tests check the rows against the all-hosts oracle), so
    the images add no other row; with G = {1} this is the least-host
    rule."""
    index = {d.arrows: i for i, d in enumerate(columns)}
    others = _symmetries(window, columns, index)
    rep = [min(i, *(g[i] for g in others)) for i in range(len(columns))]
    allowed = window.allowed
    rows = set()
    for family in CONSTRAINT_FAMILIES:
        for i, d in enumerate(columns):
            if rep[i] < i:
                continue
            for terms in _host_instances(family, d, allowed):
                row = {}
                for c, inside, spell in terms:
                    if inside:
                        arrows, aut = spell()
                        j = index[arrows]
                        if rep[j] < i:
                            break  # its image is spelled from host rep[j]
                        v = row.pop(j, 0) + c * aut
                        if v:
                            row[j] = v
                else:
                    if row:
                        rows.add(_proportion_key(row))
                        for g in others:
                            rows.add(_proportion_key({g[j]: c for j, c in row.items()}))
    return [dict(k) for k in sorted(rows, key=lambda k: (len(k), k))]


# ---------------------------------------------------------------------------
# Reidemeister rewriting


def _r3_site(arrow_map, anchors):
    """The R3 site of a hit or match: (arrow triple, position of the first
    endpoint of the first strand, which is the hit's anchor)."""
    return (arrow_map[0], arrow_map[1], arrow_map[2]), anchors[0]


def _diagram_like(g, arrows):
    """The diagram of g's class and K over a valid arrow list: canonicalized,
    not validated again."""
    return type(g)._canonical(g.K, *_canonical_pair(arrows))


def _r3_result(m):
    """The R3 move at the full match m, as _apply_move returns it: the host
    with the other side of m's model spliced in, its arrows in an
    un-rotated word where the three created crossings come last, their
    indices, and the triple of m's arrows it removes."""
    arrows = _assemble_term(m, (0, 1, 2), "R" if m.side == "L" else "L")[0]
    created = tuple(range(len(arrows) - 3, len(arrows)))
    return _diagram_like(m.host, arrows), arrows, created, _r3_site(m.arrow_map, m.anchors)[0]


def _apply_move(g, move, site, params=()):
    """Rewrite g by one Reidemeister move, returning what the move changed:
    (new diagram, its arrows before canonicalization, indices in those
    arrows of the arrows the move created, indices in g of the arrows it
    removed).  An R3 move removes the site's triple and creates its
    reversed copy; the created arrows are always the last ones.

    move/site/params, as move_census decodes them:
      'R1+'  site = insertion index 0..2n-1 (0 for the empty diagram);
             params = (kind 'ht'|'th', sign)
      'R1-'  site = arrow index of a kink (r1_matches)
      'R2+'  site = (ins1, ins2) insertion indices, ins1 <= ins2;
             params = (model index into moves.models('R2'), integer marking)
      'R2-'  site = (arrow_i, arrow_j) forming a bigon
      'R3'   site = (arrow triple, anchor position of the first strand)

    The callers pass only the moves that the census decodes (walks) or the
    insertion blocks decode (_r_vectors), so sites and parameters are not
    checked again.  An R3 move needs its match for the splice: the match is
    found anchored at the site's position, and a site that is no R3
    configuration of g, whatever its shape, raises DiagramError.  Splicing endpoints into a valid
    diagram, or cutting arrows out of it, gives a valid one, so the result
    is canonicalized but not validated again."""

    def insert(groups, new_arrows):
        host = [a[2:] for a in g.arrows]
        arrows, _starts = _splice(g.endpoint_roles(), host, groups, new_arrows)
        k = len(new_arrows)
        return _diagram_like(g, arrows), arrows, tuple(range(len(arrows) - k, len(arrows))), ()

    def remove(drop):
        new = _diagram_like(g, _induced(g.arrows, [i for i in range(g.n) if i not in drop]))
        return new, new.arrows, (), tuple(sorted(drop))

    if move == "R1+":
        kind, sign = params
        mark = 0 if kind == "ht" else g.K
        order = ((0, HEAD), (0, TAIL)) if kind == "ht" else ((0, TAIL), (0, HEAD))
        return insert([(site, order)], [(0, mark, sign if g.signed else 0)])
    if move == "R1-":
        return remove({site})
    if move == "R2+":
        # every R2 model marks both crossings with one single gap, so the
        # gap system (total row [1, 1] plus one unit row) has rank 2 and
        # every integer marking is consistent with it
        k, mark = params
        model = models("R2")[k]
        return insert(
            [(site[0], model.words["L"][0]), (site[1], model.words["L"][1])],
            [(c, mark, model.signs[c] if g.signed else 0) for c in (0, 1)],
        )
    if move == "R2-":
        return remove(set(site))
    if move == "R3":
        # a site that is no (triple, anchor) pair anchors no match
        anchor = site[1] if type(site) is tuple and len(site) == 2 else None
        spots = [p for p in range(2 * g.n) if p == anchor]  # see _r3_site
        for m in _full_matches(g, "R3", positions=spots):
            if _r3_site(m.arrow_map, m.anchors) == site:
                return _r3_result(m)
        raise DiagramError("no R3 site at %r" % (site,))
    raise ValueError("unknown move %r" % (move,))


def insertion_moves(marking_set, max_degree, signed):
    """The R1+ and R2+ blocks of move_census on the diagrams of one walk,
    counted arithmetically: a function of the degree n giving
    [(count, decode), (count, decode)].  The sorted markings, the number
    of R2 models, the signs (two on a signed diagram, else 0) and the
    decoders are made here once; each call computes only the number M of
    insertion indices and the counts.  Moves that would exceed max_degree
    (None: no limit) count 0."""
    signs = (1, -1) if signed else (0,)
    marks = sorted(marking_set)
    nmod = len(models("R2"))

    def r1_insert(u):
        ins, u = divmod(u, 2 * len(signs))
        kind, si = divmod(u, len(signs))
        return ("R1+", ins, (("ht", "th")[kind], signs[si]))

    def r2_insert(M, u):
        site, u = divmod(u, nmod * len(marks))
        k, mi = divmod(u, len(marks))
        ins1 = 0  # sites (ins1, ins2) with ins1 <= ins2 < M, row by row
        while site >= M - ins1:
            site -= M - ins1
            ins1 += 1
        return ("R2+", (ins1, ins1 + site), (k, marks[mi]))

    def blocks(n):
        M = max(1, 2 * n)
        r1 = max_degree is None or n + 1 <= max_degree
        r2 = max_degree is None or n + 2 <= max_degree
        return [
            (M * 2 * len(signs) if r1 else 0, r1_insert),
            (M * (M + 1) // 2 * nmod * len(marks) if r2 else 0, partial(r2_insert, M)),
        ]

    return blocks


def move_census(g, insertions):
    """Every move applicable to g, as counted blocks [(count, decode)].

    Blocks come in the order R1+, R1-, R2+, R2-, R3; decode(u) for
    0 <= u < count is the u-th (move, site, params) of its block, ready for
    _apply_move.  Insertion blocks are counted arithmetically and never
    listed: `insertions` is the walk's insertion_moves, which gives the R2
    markings and leaves out the moves that would exceed its maximum
    degree.  R1 markings are forced by the kink (0 or K).  Bigons and R3
    sites come from one pass of _full_hits, which builds no Match; each
    keeps the first copy of every site in its own kind's order, as one
    scan per kind did."""
    r1_plus, r2_plus = insertions(g.n)
    kinks = r1_matches(g)
    bigons, triples = {}, {}  # insertion-ordered sets
    for kind, _model, _side, amap, anchors in _full_hits(g, True, True):
        if kind == "R2":
            bigons.setdefault((amap[0], amap[1]))
        else:
            triples.setdefault(_r3_site(amap, anchors))
    bigons, triples = list(bigons), list(triples)
    return [
        r1_plus,
        (len(kinks), lambda u: ("R1-", kinks[u][0], ())),
        r2_plus,
        (len(bigons), lambda u: ("R2-", bigons[u], ())),
        (len(triples), lambda u: ("R3", triples[u], ())),
    ]


# ---------------------------------------------------------------------------
# Polyak-span compatibility


def r_relation_vectors(n, window, limit_per_kind=None):
    """Differences g_after - g_before for moves within degree <= n, window-
    internal, enumerated deterministically: the R1+ and R2+ blocks of
    move_census (insertion_moves), in census order, on every Gauss
    diagram of degree < n, then one R3 move per diagram of degree n.  No
    other move is matched below degree n.  A kink whose forced marking
    (0 or K) is outside the window is left out.  Once a kind has
    limit_per_kind vectors, the next diagrams add none of it."""
    vectors = _r_vectors(
        n, window, limit_per_kind, lambda deg: enumerate_diagrams("gauss", deg, window)
    )
    return [(kind, vec) for kind, vec, _change in vectors]


def _r_vectors(n, window, limit_per_kind, diagrams):
    """r_relation_vectors over diagrams(deg), the Gauss diagrams of degree
    deg over the window, which it asks for in increasing degree, each
    vector as (kind, vector, change).  change is (arrows after the move,
    indices of the arrows it created, arrows before it, indices of the
    arrows it removed), the arrows before canonicalization, for _I_row."""
    out = []
    counts = {"R1": 0, "R2": 0, "R3": 0}
    insertions = insertion_moves(window.values(), n, True)
    for deg in range(0, n):
        for g in diagrams(deg):
            for kind, (count, decode) in zip(("R1", "R2"), insertions(g.n)):
                if limit_per_kind is not None and counts[kind] >= limit_per_kind:
                    continue
                for u in range(count):
                    move, site, params = decode(u)
                    if kind == "R1" and (0 if params[0] == "ht" else window.K) not in window:
                        continue
                    g2, arrows, created, removed = _apply_move(g, move, site, params)
                    vec = LinComb.single(g2) - LinComb.single(g)
                    out.append((kind, vec, (arrows, created, g.arrows, removed)))
                    counts[kind] += 1
    for g in diagrams(n) if n >= 3 else ():
        if limit_per_kind is not None and counts["R3"] >= limit_per_kind:
            break
        for m in _full_matches(g, "R3"):
            g2, arrows, created, triple = _r3_result(m)
            vec = LinComb.single(g2) - LinComb.single(g)
            # an R3 move keeps every marking of g, a diagram over the
            # window, so vec lies in the window
            if vec:
                out.append(("R3", vec, (arrows, created, g.arrows, triple)))
                counts["R3"] += 1
                break
    return out


def _I_row(change):
    """I(r) (maps.subdiagram_expand_I) of a move difference r as an integer
    row {canonical arrows: int}, from the move's change (see _r_vectors).

    Only the subsets that the move changes are induced and canonicalized.
    R1+ and R2+ insert endpoints and keep the old arrows in their cyclic
    order, so the subsets of the new diagram that avoid the created arrows
    are the subsets of the old one and cancel: I(r) is the sum over the
    subsets holding a created arrow.  An R3 move (the only one here that
    removes arrows) keeps every subset holding at most one arrow of its
    triple (see engine._walk_step), so I(r) is the sum over the new
    subsets holding two or more created arrows minus the old ones holding
    two or more removed ones."""
    after, created, before, removed = change
    least = 2 if removed else 1
    row = {}
    _add_subsets(row, after, created, least, 1)
    _add_subsets(row, before, removed, least, -1)
    return row


def _add_subsets(row, arrows, touched, least, c):
    """Add c to `row` at the canonical arrows of every subset of `arrows`
    holding at least `least` of the indices in `touched`."""
    rest = [i for i in range(len(arrows)) if i not in touched]
    for k in range(least, len(touched) + 1):
        for part in combinations(touched, k):
            for j in range(len(rest) + 1):
                for others in combinations(rest, j):
                    sub = sorted(part + others)
                    key = canonical_arrows(len(sub), _induced(arrows, sub))[0]
                    v = row.pop(key, 0) + c
                    if v:
                        row[key] = v


def _p_relation_rows(diagrams):
    """The p1, p2 and p3 instances at every degree 1 <= deg < len(diagrams),
    anchored at the hosts diagrams[deg], as integer rows {canonical arrows:
    int}: up to scale and repetition, the rows of _family_vectors.

    One scan per host d = diagrams[deg][i]: any kink (r1_matches) gives the
    p1 row {d: 1}, and one _full_hits pass gives a p2 row per bigon and a
    p3 row per R3 configuration.  The scan hits a configuration more than
    once (an R3 one once per mirrored model/side label, with rows equal up
    to sign), and only its first hit counts.  A configuration's key is the
    set of its host arrows with the set of its slot anchors: one triple can
    carry two configurations (an inner and an outer triangle, anchors
    {0, 2, 4} and {1, 3, 5}), whose rows differ.

    Least host.  A p3 instance's only terms of degree deg are its full
    terms, d and the far side's term d'.  The R3 move of d' at the
    configuration it holds gives back d, so the instance is hit from both.
    The far term is spelled first, and the instance is dropped when the
    index of d' is below i: it is spelled from d' instead.  The drop is
    strict, so an instance whose far term is d itself would be kept (none
    was seen).  A p1 or p2 instance has one term of degree deg, its host.
    d's own term is d.arrows, and d' is not spelled again.  Configurations
    that an automorphism of d exchanges give equal rows, yielded twice (10
    of 2,815 rows at degree 4 over {1} K=1).

    Every term carries markings of its host only, and the hosts are
    enumerated over the window, so the rows need no window closure."""
    for deg in range(1, len(diagrams)):
        hosts = diagrams[deg]
        index = {d.arrows: i for i, d in enumerate(hosts)}
        for i, d in enumerate(hosts):
            if r1_matches(d):
                yield {d.arrows: 1}
            configurations = set()
            for kind, model, side, amap, anchors in _full_hits(d, True, True):
                config = (frozenset(amap.values()), frozenset(anchors))
                if config in configurations:
                    continue
                configurations.add(config)
                if kind == "R2":
                    terms = [(d.arrows, 1)] + [(_dropped(d, j)[0], 1) for j in amap.values()]
                else:
                    m = _hit_match(d, model, side, amap, anchors)
                    far = "R" if side == "L" else "L"
                    arrows = _spliced(m, (0, 1, 2), far)[0]
                    if index[arrows] < i:
                        continue
                    terms = [(d.arrows, _SIDE_SIGN[side]), (arrows, _SIDE_SIGN[far])]
                    terms += [
                        (_spliced(m, pair, s)[0], _SIDE_SIGN[s]) for s in ("L", "R") for pair in _PAIRS
                    ]
                row = {}
                for arrows, c in terms:
                    v = row.pop(arrows, 0) + c
                    if v:
                        row[arrows] = v
                yield row


def check_I_span_compat(n, window, limit_per_kind=None):
    """Verify I(r) lies in the span of the P-relation instances for every
    R-relation vector r at degree <= n.  Returns a report dict:
    {"checked": number of vectors r, "failures": [(kind, r)] for each r
    whose I(r) is outside the span, "skipped": {}}.  The P-relation rows
    have no term outside the window (see _p_relation_rows), so no
    instance is skipped by window closure; the key is kept for the
    report's readers.

    The check runs on the tuple core: the P-relation instances
    (_p_relation_rows) and every I(r) (_I_row, over the subsets the move
    changes) are integer rows keyed by canonical arrow tuples, which order
    as the diagrams do since K is fixed.  Diagram objects are built only
    for the move vectors r.

    The P-relation rows come from one circle scan per host.  Each R3
    configuration (keyed by its host arrows and its slot anchors) is
    spelled once, from the lesser of the two hosts that hold its instance
    as a full term; the other host's R3 move gives back the first, so no
    instance is lost (see _p_relation_rows).  The report depends only on
    the span of the rows."""
    # each degree's Gauss diagrams, enumerated once for the P-relation
    # hosts and the R-relation moves
    diagrams = [enumerate_diagrams("gauss", deg, window) for deg in range(n + 1)]
    ech = Echelon()
    for row in _p_relation_rows(diagrams):
        ech.insert(row)
    failures = []
    checked = 0
    for kind, r, change in _r_vectors(n, window, limit_per_kind, diagrams.__getitem__):
        checked += 1
        if ech.reduce(_I_row(change)):
            failures.append((kind, r))
    return {"checked": checked, "failures": failures, "skipped": {}}
