"""Local models of the diagram-level Reidemeister moves, loaded from the
move tables.

A model is one oriented, over/under-resolved picture of the strands a
triple-point or double-point move involves.  For each side of the move it
gives:

  * the cyclic word of local endpoints (per strand arc, in traversal order),
  * the sign of every crossing (orientation of the frame (over, under)),
  * the marking of every crossing as the set of inter-strand gaps swept by
    the circle arc from the arrowhead to the arrowtail.

Arrows point from the over-passing strand to the under-passing one: the
tail of an arrow sits on the over strand.

The left/right sides of a model are the configurations before/after the
move; for the bigon move the right side is the picture with the local
crossings removed.  The kink move, one arrow with adjacent ends, is
hand-coded where it is matched and applied (relations.r1_matches,
relations._apply_move).

The program builds no model from its geometry.  The models, and the
descriptor tables that relations reads them through, are committed data
files in tables/, one per table (read_table); tests/move_oracles.py holds
the builders that derive them, and a test requires every file to be their
output byte for byte.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

TAIL, HEAD = 0, 1

_TABLES = Path(__file__).with_name("tables")


class LocalModel:
    """One oriented, over/under-resolved local move picture."""

    __slots__ = ("kind", "nslots", "ncross", "signs", "markexpr", "words", "key")

    def __init__(self, kind, nslots, ncross, signs, markexpr, words):
        self.kind = kind
        self.nslots = nslots
        self.ncross = ncross
        self.signs = tuple(signs)
        self.markexpr = tuple(frozenset(e) for e in markexpr)
        self.words = {
            side: tuple(tuple(tuple(e) for e in g) for g in gs) for side, gs in words.items()
        }
        self.key = (kind, self.signs, self.markexpr, tuple(sorted(self.words.items())))

    def __repr__(self):
        return "LocalModel(%s, signs=%s, words=%s)" % (self.kind, self.signs, self.words)


def read_table(name):
    """The move table `name` as committed in tables/<name>.json: a JSON
    object whose lists hold one entry per line.  "models" lists the
    table's models once each, as [signs, gap sets of the markings, side-L
    word, side-R word] (read_models); "entries", where the table has them,
    refers to a model by its index there: a pair_<mode> entry is [anchor
    role, anchor role, model, side, pair, third, relation, x_first], a
    full_<kind>_<mode> entry [slot signature, signs, model, side, crossing
    order, relation].  Each table has its own decoder
    (models, relations._pair_descriptors, relations._full_anchor_table).

    The files are the output of serialize_tables in tests/move_oracles.py,
    which builds the models from the planar pictures of the moves and the
    descriptor tables from their slot rotations; a test holds every file to
    that output byte for byte.  After a change to a builder, regenerate
    them with `PYTHONPATH=src python tests/move_oracles.py`.  A missing
    file is an error: the program has no other source of the tables."""
    with open(_TABLES / (name + ".json")) as fh:
        return json.load(fh)


def read_models(kind, rows):
    """The LocalModels of a table's "models" rows (see read_table)."""
    return [
        LocalModel(kind, len(signs), len(signs), signs, markexpr, {"L": left, "R": right})
        for signs, markexpr, left, right in rows
    ]


@cache
def models(kind):
    """The models of `kind` in build order; only the bigon moves have a
    table of them (tables/models_R2.json), the 16 R2 models, both members
    of each slot-rotation orbit: move_census and _apply_move decode an R2+
    move by its index into this list, so the seeded walks depend on it."""
    return read_models(kind, read_table("models_" + kind)["models"])
