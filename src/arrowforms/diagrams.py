"""Decorated chord diagrams on an oriented circle.

A diagram of degree n has 2n endpoint slots, numbered 0..2n-1 in the
direction of the circle orientation.  Every arrow is an oriented chord
(tail -> head) carrying an integer marking; Gauss diagrams additionally
carry a sign (+1/-1) per arrow.  The whole circle carries a global integer
marking K.

Diagrams are considered up to rotation of the endpoint labels.  All classes
here store a canonical representative, so equality and hashing are cheap.

Internal arrow encoding: a 4-tuple (tail, head, mark, sign) with sign == 0
on sign-less (arrow) diagrams.
"""

from __future__ import annotations


class DiagramError(ValueError):
    """Raised on structurally invalid diagram data."""


def _validate(n, arrows, signed):
    seen = {}
    for a in arrows:
        t, h, m, s = a
        if t == h:
            raise DiagramError("arrow with tail == head == %d" % t)
        for p in (t, h):
            if not 0 <= p < 2 * n:
                raise DiagramError("endpoint index %d out of range 0..%d" % (p, 2 * n - 1))
            if p in seen:
                raise DiagramError("duplicate endpoint index %d" % p)
            seen[p] = True
        if signed and s not in (1, -1):
            raise DiagramError("sign must be +1 or -1, got %r" % (s,))
        if not signed and s != 0:
            raise DiagramError("sign-less diagram with sign %r" % (s,))
    if len(seen) != 2 * n:
        missing = [p for p in range(2 * n) if p not in seen]
        raise DiagramError("missing endpoint indices %s" % missing)


def _endpoint_map(n, arrows):
    """pos -> (arrow index, role); role 0 = tail, 1 = head."""
    ends = [None] * (2 * n)
    for i, (t, h, _m, _s) in enumerate(arrows):
        ends[t] = (i, 0)
        ends[h] = (i, 1)
    return ends


def _stream(size, keys, ends, r):
    """Token stream read from rotated position r: the token at q is
    (j, role, mark, sign) for the endpoint at (q + r) mod size, with arrows
    relabelled j = 0, 1, ... by first occurrence.  Flattened to alternating
    j and (role, mark, sign) entries, which compare in the same order."""
    relabel = {}
    out = []
    for q in range(r, r + size):
        p = q % size
        i = ends[p]
        j = relabel.get(i)
        if j is None:
            j = relabel[i] = len(relabel)
        out.append(j)
        out.append(keys[p])
    return out


def canonical_arrows(n, arrows):
    """Canonical form of a diagram: (arrows, rotation, |Aut|).

    The canonical representative is read from the rotation r with the
    lexicographically least token stream (see `_stream`), the least such r
    on ties; its arrows are sorted by first endpoint occurrence, and
    position p of the input sits at (p - r) mod 2n in it.  |Aut| is the
    number of rotations fixing the diagram, i.e. the number of rotations
    reaching the least stream.

    Every stream starts with the token (0, role, mark, sign) of its first
    endpoint, so only rotations starting at an endpoint with the least
    (role, mark, sign) can win, and only those streams are built."""
    if n == 0:
        return (), 0, 1
    size = 2 * n
    keys = [None] * size
    ends = [0] * size
    for i, (t, h, m, s) in enumerate(arrows):
        keys[t] = (0, m, s)
        keys[h] = (1, m, s)
        ends[t] = ends[h] = i
    low = min(keys)
    starts = [r for r in range(size) if keys[r] == low]
    best_r = starts[0]
    aut = 1
    if len(starts) > 1:
        best = _stream(size, keys, ends, best_r)
        for r in starts[1:]:
            cand = _stream(size, keys, ends, r)
            if cand < best:
                best, best_r, aut = cand, r, 1
            elif cand == best:
                aut += 1
    # arrows ordered by their first endpoint in the winning rotation
    by_first = [None] * size
    for t, h, m, s in arrows:
        t, h = (t - best_r) % size, (h - best_r) % size
        by_first[t if t < h else h] = (t, h, m, s)
    return tuple(a for a in by_first if a is not None), best_r, aut


def _induced(arrows, indices):
    """The arrows at the given ascending indices, their endpoints renumbered
    onto 0..2k-1 in circle order: the subdiagram before canonicalization."""
    kept = [arrows[i] for i in indices]
    pos = sorted(p for (t, h, _m, _s) in kept for p in (t, h))
    renum = {p: q for q, p in enumerate(pos)}
    return [(renum[t], renum[h], m, s) for (t, h, m, s) in kept]


class _BaseDiagram:
    """Shared machinery for Gauss and arrow diagrams (canonical storage)."""

    __slots__ = ("K", "arrows", "_aut", "_hash")
    signed = False

    def __init__(self, K, arrows=()):
        arrows = tuple(tuple(a) for a in arrows)
        _validate(len(arrows), arrows, self.signed)
        canon, _r, aut = canonical_arrows(len(arrows), arrows)
        self._store(int(K), canon, aut)

    @classmethod
    def _canonical(cls, K, arrows, aut):
        """The diagram whose canonical arrows and |Aut| canonical_arrows has
        already returned for valid input: neither validated nor searched
        again.  Equal to cls(K, arrows), hash and aut_order() included."""
        d = cls.__new__(cls)
        d._store(K, arrows, aut)
        return d

    def _store(self, K, canon, aut):
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "arrows", canon)
        object.__setattr__(self, "_aut", aut)
        object.__setattr__(self, "_hash", hash((self.signed, K, canon)))

    def __setattr__(self, *a):
        raise AttributeError("diagrams are immutable")

    @property
    def n(self):
        return len(self.arrows)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self._hash == other._hash
            and self.K == other.K
            and self.arrows == other.arrows
        )

    def __lt__(self, other):
        return (self.K, self.arrows) < (other.K, other.arrows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s(K=%d, %r)" % (type(self).__name__, self.K, list(self.arrows))

    def aut_order(self):
        """Number of rotations keeping the diagram unchanged; divides 2n."""
        return self._aut

    def endpoint_roles(self):
        """pos -> (arrow index, role) on the canonical representative."""
        return _endpoint_map(self.n, self.arrows)

    def subdiagram(self, indices):
        """Induced diagram on a subset of arrow indices (canonicalized)."""
        return type(self)(self.K, _induced(self.arrows, sorted(set(indices))))


class GaussDiagram(_BaseDiagram):
    """Signed decorated chord diagram (one virtual knot diagram in the annulus)."""

    __slots__ = ()
    signed = True

    def forget_signs(self):
        return ArrowDiagram(self.K, [(t, h, m, 0) for (t, h, m, _s) in self.arrows])


class ArrowDiagram(_BaseDiagram):
    """Sign-less decorated chord diagram."""

    __slots__ = ()
    signed = False

    def with_signs(self, signs):
        """Gauss diagram obtained by decorating arrow i with signs[i]."""
        if len(signs) != self.n:
            raise DiagramError("expected %d signs" % self.n)
        return GaussDiagram(self.K, [(t, h, m, s) for (t, h, m, _z), s in zip(self.arrows, signs)])


def arrows_cross(a, b):
    """True iff chords a and b interleave on the circle."""
    a0, a1 = sorted(a[:2])
    b0, b1 = sorted(b[:2])
    return (a0 < b0 < a1 < b1) or (b0 < a0 < b1 < a1)


class BasedDiagram:
    """Diagram with a distinguished arc; stored rotated so the base arc sits
    between endpoint positions 2n-1 and 0.  A based diagram has no rotation
    freedom left, so equality is plain tuple equality."""

    __slots__ = ("K", "arrows", "signed", "_hash")

    def __init__(self, diagram, base_arc):
        n = diagram.n
        if n == 0:
            raise DiagramError("the empty diagram has no arcs to base")
        if not 0 <= base_arc < 2 * n:
            raise DiagramError("base arc %d out of range" % base_arc)
        self._store(diagram.K, _based_word(diagram.arrows, base_arc), diagram.signed)

    @classmethod
    def from_word(cls, K, arrows):
        """Sign-free based diagram from arrows already in the based rotation
        (the base arc between endpoint positions 2n-1 and 0)."""
        arrows = tuple(tuple(a) for a in arrows)
        n = len(arrows)
        if n == 0:
            raise DiagramError("the empty diagram has no arcs to base")
        _validate(n, arrows, False)
        b = cls.__new__(cls)
        b._store(int(K), arrows, False)
        return b

    def _store(self, K, arrows, signed):
        arrows = _by_first(arrows)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "signed", signed)
        object.__setattr__(self, "_hash", hash(("based", K, arrows, signed)))

    def __setattr__(self, *a):
        raise AttributeError("based diagrams are immutable")

    @property
    def n(self):
        return len(self.arrows)

    def __eq__(self, other):
        return (
            isinstance(other, BasedDiagram)
            and self._hash == other._hash
            and (self.K, self.signed, self.arrows) == (other.K, other.signed, other.arrows)
        )

    def __lt__(self, other):
        return (self.K, self.arrows) < (other.K, other.arrows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "BasedDiagram(K=%d, %r)" % (self.K, list(self.arrows))

    def boundary_endpoints(self):
        """(before, after): the (arrow index, role) pairs bounding the base
        arc, in circle order.  'before' is the endpoint at position 2n-1."""
        return _fused(self.arrows)

    def aut_order(self):
        return 1


class DegenerateDiagram:
    """Diagram with one arc shrunk to a point, stored as its key alone.

    The key is ("s" or "d", K, word), the word a based word whose fused
    endpoints sit at positions 2n-1 and 0, in that circle order.  When they
    belong to two different arrows ("d") the two circle orders give the
    same degenerate picture and the word is the lesser of the two; when
    they belong to one arrow ("s") the order is an extra decoration and is
    kept.  .arrows, fused() and repr read the word: equal diagrams print alike.
    """

    __slots__ = ("K", "arrows", "_key", "_hash")
    signed = False

    def __init__(self, based):
        if based.signed:
            raise DiagramError("degenerate diagrams are defined over arrow diagrams")
        arrows = based.arrows
        self._store(_degenerate_key(based.K, arrows, _fused(arrows)))

    @classmethod
    def _of(cls, key):
        """The degenerate diagram of a key that _degenerate_key returned."""
        dd = cls.__new__(cls)
        dd._store(key)
        return dd

    def _store(self, key):
        object.__setattr__(self, "K", key[1])
        object.__setattr__(self, "arrows", key[2])
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *a):
        raise AttributeError("degenerate diagrams are immutable")

    @property
    def n(self):
        return len(self.arrows)

    def __eq__(self, other):
        return isinstance(other, DegenerateDiagram) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "DegenerateDiagram(K=%d, %r)" % (self.K, list(self.arrows))

    def fused(self):
        """((arrow, role), (arrow, role)) at the degenerate point, in order."""
        return _fused(self.arrows)

    def is_monotonic(self):
        return _monotonic(_fused(self.arrows))


def _based_word(arrows, arc):
    """The based word of a diagram's arrows at a base arc: rotated so that
    the arc sits between positions 2n-1 and 0, in _by_first order.  A
    basing is this word; BasedDiagram stores it."""
    size = 2 * len(arrows)
    r = (arc + 1) % size
    return _by_first([((t - r) % size, (h - r) % size, m, s) for (t, h, m, s) in arrows])


def _fused(arrows):
    """((arrow, role), (arrow, role)) of the endpoints at positions 2n-1
    and 0 of a based word, in that circle order; role 0 = tail, 1 = head."""
    last = 2 * len(arrows) - 1
    for i, (t, h, _m, _s) in enumerate(arrows):
        if t == last:
            before = (i, 0)
        elif h == last:
            before = (i, 1)
    after = (0, 0 if arrows[0][0] == 0 else 1)  # arrow 0 holds position 0
    return before, after


def _degenerate_key(K, arrows, fused):
    """The key of the degenerate diagram that shrinks the based word
    `arrows` (with fused = _fused(arrows)) at its base arc: the word
    itself when one arrow bounds the arc, else the lesser of the word and
    the word with its two fused endpoints swapped."""
    (bi, _br), (ai, _ar) = fused
    if bi == ai:
        return ("s", K, arrows)
    return ("d", K, min(arrows, _swap_positions(arrows, 2 * len(arrows) - 1, 0)))


def _monotonic(fused):
    """True iff two different arrows meet at the fused point, one with its
    head and the other with its tail."""
    (bi, br), (ai, ar) = fused
    return bi != ai and br != ar


def _swap_positions(arrows, p, q):
    def mv(x):
        if x == p:
            return q
        if x == q:
            return p
        return x

    return _by_first((mv(t), mv(h), m, s) for (t, h, m, s) in arrows)


def _by_first(arrows):
    """The arrows as a tuple ordered by first endpoint occurrence, the
    unique arrow order of a based word."""
    return tuple(sorted(arrows, key=lambda a: min(a[0], a[1])))
