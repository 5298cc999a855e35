"""Local models of the diagram-level Reidemeister moves.

The triple-point and double-point moves are modelled by an explicit planar
picture of the strands involved (straight lines for the triple-point move,
a bigon for the double-point move).  From the picture we read off, for
every orientation of the strands and every admissible over/under
assignment:

  * the cyclic word of local endpoints (per strand arc, in traversal order),
  * the sign of every crossing (orientation of the frame (over, under)),
  * the marking of every crossing as the set of inter-strand gaps swept by
    the circle arc from the arrowhead to the arrowtail.

Arrows point from the over-passing strand to the under-passing one: the
tail of an arrow sits on the over strand.

The left/right sides of a model are the configurations before/after the
move; for the bigon move the right side is simply the picture with the
local crossings removed.  The kink move, one arrow with adjacent ends, is
hand-coded where it is matched and applied (relations.r1_matches,
relations._apply_move).
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

TAIL, HEAD = 0, 1


class LocalModel:
    """One oriented, over/under-resolved local move picture."""

    __slots__ = ("kind", "nslots", "ncross", "signs", "markexpr", "words", "key")

    def __init__(self, kind, nslots, ncross, signs, markexpr, words):
        self.kind = kind
        self.nslots = nslots
        self.ncross = ncross
        self.signs = tuple(signs)
        self.markexpr = tuple(frozenset(e) for e in markexpr)
        self.words = {side: tuple(tuple(g) for g in gs) for side, gs in words.items()}
        self.key = (kind, self.signs, self.markexpr, tuple(sorted(self.words.items())))

    def __repr__(self):
        return "LocalModel(%s, signs=%s, words=%s)" % (self.kind, self.signs, self.words)


def _gap_interval(s_from, s_to, nslots):
    """Gaps swept going forward from slot s_from to slot s_to."""
    out = []
    s = s_from
    while s != s_to:
        out.append(s)
        s = (s + 1) % nslots
    return frozenset(out)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sign(x):
    return 1 if x > 0 else -1


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
                    signs.append(_sign(_det(du, dv)))
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


def r3_models():
    """Triple-point move: three lines forming a triangle, one line entirely
    over or under the other two.  Both sides of the move are kept; the move
    reverses the order of the two crossings along every strand.

    Only line 1 in slot 0: the other placements of the lines are the slot
    rotations of these models, which the descriptor tables read off each
    model (relations._normal_forms), so one model per rotation orbit."""
    # crossing ids: 0 between lines 1,2; 1 between lines 1,3; 2 between lines 2,3
    lines_of = {0: (1, 2), 1: (1, 3), 2: (2, 3)}
    # geometric order of each line's crossings along its positive direction
    line_cross = {1: (0, 1), 2: (0, 2), 3: (2, 1)}
    base_dir = {1: (1, 0), 2: (0, 1), 3: (1, -1)}
    models = {}
    for rest in permutations((2, 3)):
        perm = (1,) + rest  # slot s hosts line perm[s]
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
                    signs.append(_sign(_det(du, dv)))
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
def models(kind):
    """The R2 or R3 models, in build order.

    R3 has one model per slot-rotation orbit (96).  R2 keeps both members
    of each orbit (16): move_census and _apply_move decode an R2+ move by
    its index into this list, so the seeded walks depend on it, and the
    R2 descriptor tables drop the rotated copies by signature.  The kink
    (R1) is hand-coded where it is matched and applied."""
    return {"R2": r2_models, "R3": r3_models}[kind]()
