"""Saddle connections: exact enumeration by unfolding direction cones.

A saddle connection is a straight geodesic segment joining two vertices of
the polygon complex with no vertex in its interior.  For each corner the
enumerator develops the surface along a depth-first search over open
direction cones: a cone entering a convex face either ends at vertices
(strictly inside the cone, recorded when short enough) or continues through
the boundary edges, splitting at every interior vertex direction.  Each
connection records its exact holonomy, endpoint germs and combinatorial
path (start corner, crossed half-edges, end vertex); exact pieces and
crossing points are traced from the path only when asked for.

The search runs in floats and does exact work only when a float test cannot
decide or a connection is recorded.  A node is a named tuple (face, tau_fl,
entry, parent, tau): its float and its exact translation are each its
parent's minus the glue shift of the edge crossed.  Per call, two tables
hold the walk's vertices per face and entry edge as (j, x, y) floats, and
per half-edge its floats, glue shifts and partner: a child costs one table
lookup and one node.
Glued edges are opposite translates, so crossing edge (f, e) into (f2, e2)
takes vertex e to vertex e2 + 1 and vertex e + 1 to vertex e2 at the same
developed position: the ends of a face's entry edge are the ends of the edge
the parent cone left through, on or outside every subcone that crossed it.
They, and the apex with its two neighbours in its own face, are skipped with
no arithmetic, so only other vertices on a boundary line reach exact
arithmetic.

Away from the root, a node's face lies beyond its entry edge (a, a + 1),
within less than pi seen from the apex, and its cone lies between the
directions of a + 1 (clockwise) and a.  Walking the rest of the face,
a + 2, ..., a - 1, the near side moves clockwise away from the cone, the far
side sweeps counterclockwise across it, and the near side returns to a from
its counterclockwise side.  At the root, with a the vertex before the apex,
the cone is the apex's wedge from a + 2 to a, and the walk a + 3, ..., a - 1
turns counterclockwise around the apex.  Either way the walk meets the
vertices at or clockwise of the cone's first bound, then the ones strictly
inside it in counterclockwise order, then the ones at or counterclockwise
of its second bound, and it stops at the first of those.  A ray strictly
inside the cone meets the convex face in a segment from the open entry edge
(or the apex) to one exit point, so no two inside vertices share a
direction: each splits the cone, and the subcones beside it leave the face
through the edges at it.  A cone with no vertex inside leaves through the
edge ending where the walk stopped, or at a.

Half-plane search.  Only canonically oriented connections are kept, so a
cone is dropped, and a corner's wedge skipped, when both of its bounding
directions point strictly below the horizontal axis by the orientation test
of the recorded endpoints: y < -``_SIGN_MARGIN`` (|x| + |y| + 1).  Every cone
lies inside the wedge of a convex corner, so it is at most pi wide, and a
cone that narrow with both bounds strictly below the axis lies below it: it
holds no direction with y > 0, or y = 0 and x > 0, and neither do its
subcones and vertices.  The test is a pure float filter with no exact
fallback, because keeping a cone is always safe; with an infinite margin it
never fires.

Lattice coordinates.  Exact positions are integer numerators over one
common denominator D, the lcm of the denominators of every face-vertex
coordinate and glue shift (the ``nf_elem`` layout of ``field``, shared by a
whole developed position).  The d numerators c_i of a coordinate are packed
into one Python int X = sum(c_i 2^(B i)) with balanced digits, |c_i| <
2^(B - 1) (Kronecker substitution): while no digit leaves that range, the
sum of two packed ints packs the digit sums and their product packs the
product polynomial.  A node's exact translation is carried eagerly, like
its float one, and a developed vertex is a face vertex plus it: two int
additions each.  An exact cross sign is P = u_x v_y - u_y v_x, two big-int
products; P = 0 is a zero at once, and otherwise the 2d - 1 digits of P are
unpacked, folded by the minimal polynomial and passed to the field's sign
(the positive factor D^2 does not change it).  A direction filter's line is
packed from its own common denominator, a positive scale, since only its
direction matters.  Every other exact test signs unpacked digits the same
way: an endpoint (X, Y) is canonical when Y, or else X, is positive, and
within the cap L^2 = a / b when b (X^2 + Y^2) - D^2 a <= 0; the order signs
the differences of squared norms, then of x and of y.  So the one field
multiplication is the cap.  A recorded connection keeps its packed holonomy
and the floats of its digits; its field vector, and the germ directions
with it, is built on first read.

The digit width B is set per surface from c, the largest |numerator| of a
face vertex, a glue shift or the filter line, and N = ``_MAX_NODES``, read
when the lattice is built.  The search pops at most N nodes, and each node's
ancestors are popped before it, so a popped node lies at depth at most
N - 1 and a node built as its child at depth at most N.  A node's
translation is minus a root face vertex plus one glue shift per level, and
a developed vertex of a popped node adds one face vertex to its
translation: every vector the search forms is a sum of at most N + 1 such
terms, so its digits, and the line's, are at most (N + 1) c.  A digit of
the unfolded cross product of two such vectors is a sum of 2d products, so
it is at most 2d ((N + 1) c)^2, and B is one more than the bit length of
that bound.  Only values within it are unpacked: coordinates, (N + 1) c;
their differences, 2 (N + 1) c; cross products and squared norms X^2 + Y^2,
2d ((N + 1) c)^2.  A packed difference of two squared norms could reach
4d ((N + 1) c)^2, so squared norms are scaled and subtracted once unpacked.
B is 51 bits on S_8, 57 on S_16 (degree 8) and up to 75 on S_8 sheared to
rational points, where P stays under 530 bits.

Float margins.  Let u = 2^-53.  A face-vertex or glue-shift coordinate
sum(c_i Phi^i) converts to a float with error eps_c <= (3d + 1) u
sum(|c_i| Phi^i) (Horner in degree d, with a rounded Phi): at most 9e-15 on
S_8 to S_12, sheared or not, and 5e-13 on S_16.  The float position of a
vertex developed across D glued edges is a float sum of D + 2 such
coordinates, so each of its coordinates is off by at most

    delta <= (D + 2) (eps_c + u R),

R bounding |x| + |y| along the way: the error grows linearly with depth.
At S_8 and 90 l_m the search reaches D = 69 with R < 54, so delta <= 9.4e-13
(the largest error measured there is 3.6e-14).

* ``_SIGN_MARGIN`` = 1e-9, relative.  The float sign of c = cross(a, b) is
  used when |c| > 1e-9 (|a|_1 |b|_1 + 1).  For developed vertices the error
  of c is at most 4 R delta + 2 u |a|_1 |b|_1, so the margin covers it
  while 4 R delta <= 1e-9.  That bound is 2e-10 at S_8 and 90 l_m, 3e-11 at
  sheared S_8 and 30 l_m, 9e-11 at the 16-gon and L = 3 and 7e-10 at S_16
  and 30 l_m; on S_8 it stays below 1e-9 up to about 170 l_m.  The same
  margin, on the same kind of scale, decides the length cut (|W|^2 against
  L^2), the orientation and the half-plane filter (y against |x| + |y| + 1),
  and cuts the final order into runs by float lengths, the floats of the
  exact holonomies read from their packed digits.
* ``_PRUNE_SLACK`` = 1e-6, relative and absolute.  A beam is dropped when
  the float squared distance from the apex to its whole exit edge exceeds
  L^2 (1 + 1e-6) + 1e-6.  That distance is off by at most 2 R delta + 6 u
  R^2 (the nearest point's edge parameter is -(a . e) times a stored
  1 / |e|^2, a rounding that moves the point by at most u R), far below the
  slack, so no beam that reaches within the bound is dropped.

``_MAX_NODES`` bounds the search; past it the enumeration raises
``ComputationLimitError``.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import NamedTuple, Optional

from .field import (
    ComputationLimitError,
    CycloReal,
    _element,
    _fold,
    _phi_float,
    as_field,
    common_denominator,
)
from .plane import Vec2, canonical_orientation, norm2, vfloat, vneg
from .surface import TranslationSurface, direction_vector, trace_from_corner

_MAX_NODES = 5_000_000
_SIGN_MARGIN = 1e-9
_PRUNE_SLACK = 1e-6


class Germ:
    """A direction germ at a singular vertex: a corner of the complex plus an
    exact direction pointing into (or along the first boundary ray of) its
    wedge.

    The germs of a connection the enumeration records take their direction
    from it on first read: its holonomy at its start germ, minus that at its
    end germ (which its reverse shares as its start germ)."""

    __slots__ = ("class_id", "corner", "_direction", "_of")

    def __init__(self, class_id: int, corner: tuple[int, int], direction: Optional[Vec2]):
        self.class_id = class_id
        self.corner = corner
        self._direction = direction
        self._of = None

    @property
    def direction(self) -> Vec2:
        if self._direction is None:
            sc = self._of
            hol = sc.holonomy
            self._direction = hol if self is sc.start else vneg(hol)
        return self._direction


class SaddleConnection:
    """An oriented saddle connection with exact geometric data.

    The stored orientation is canonical: holonomy (x, y) has y > 0, or y == 0
    and x > 0.  ``path`` is the combinatorial route ``((face, vertex), exits,
    last)``: the corner the segment leaves in its first piece's face, the
    half-edges it crosses out of in order, and the index of the vertex it
    reaches in its last piece's face.  ``edge_pair`` is set when the
    connection is itself an edge of the complex; its path runs along that
    edge inside one face.

    ``pieces`` (face, entry point, exit point in face coordinates) and
    ``crossings`` (pair id, half-edge crossed out of, developed crossing
    point) are traced exactly on first use and checked against the path.

    A connection the enumeration records keeps its holonomy as a packed
    lattice vector with its floats (``holonomy_float``); the exact
    ``holonomy`` is unpacked on first read.
    """

    __slots__ = (
        "surface",
        "start",
        "end",
        "path",
        "edge_pair",
        "_hol",
        "_lat",
        "_packed",
        "_fl",
        "_len2",
        "_trace",
    )

    def __init__(self, surface, holonomy, start, end, path, edge_pair=None):
        self.surface = surface
        self._hol = holonomy
        self.start = start
        self.end = end
        self.path = path
        self.edge_pair = edge_pair
        self._lat = self._packed = self._fl = None
        self._len2 = None
        self._trace = None

    @property
    def holonomy(self) -> Vec2:
        if self._hol is None:
            self._hol = self._lat.vector(self._packed)
        return self._hol

    @property
    def holonomy_float(self) -> tuple[float, float]:
        """The floats of the holonomy, bit for bit ``vfloat(self.holonomy)``."""
        if self._fl is None:
            self._fl = vfloat(self.holonomy)
        return self._fl

    @property
    def length_sq(self) -> CycloReal:
        if self._len2 is None:
            self._len2 = norm2(self.holonomy)
        return self._len2

    @property
    def length(self) -> float:
        return math.sqrt(float(self.length_sq))

    def coslope(self) -> Optional[CycloReal]:
        """x/y of the holonomy; None for horizontal connections."""
        x, y = self.holonomy
        if y.is_zero():
            return None
        return x / y

    def _last_corner(self) -> tuple[int, int]:
        """(face, vertex) where the path ends, in its last piece's face."""
        (f, _v), exits, last = self.path
        if exits:
            f = self.surface.glue[exits[-1]][0]
        return (f, last)

    @property
    def pieces(self) -> tuple:
        return self._traced()[0]

    @property
    def crossings(self) -> tuple:
        return self._traced()[1]

    def _traced(self):
        if self._trace is None:
            (f, v), exits, _last = self.path
            # a consistent path ends after self.length; the slack only
            # bounds the trace of an inconsistent one
            tr = trace_from_corner(
                self.surface, f, v, self.holonomy, max_length=2 * self.length
            )
            traced_exits = tuple(h for _pid, h, _dev in tr.crossings)
            if traced_exits != exits or tr.end != ("vertex", self._last_corner()):
                raise RuntimeError("traced saddle connection leaves its recorded path")
            self._trace = (tuple(tr.pieces), tuple(tr.crossings))
        return self._trace

    def reversed(self) -> "SaddleConnection":
        (_f, v), exits, _last = self.path
        glue = self.surface.glue
        path = (self._last_corner(), tuple(glue[h] for h in reversed(exits)), v)
        if self._hol is not None:
            return SaddleConnection(
                self.surface, vneg(self._hol), self.end, self.start, path, self.edge_pair
            )
        # the shared germs keep their directions: minus this holonomy at the
        # reverse's start, this holonomy at its end
        X, Y = self._packed
        sc = SaddleConnection(self.surface, None, self.end, self.start, path, self.edge_pair)
        sc._lat, sc._packed = self._lat, (-X, -Y)
        sc._fl = self._lat.floats(sc._packed)  # negating a float may sign a zero
        return sc

    def transformed(self, M, target: Optional[TranslationSurface] = None) -> "SaddleConnection":
        """The image under an orientation-preserving linear map, on the
        transformed surface (pass ``target`` to reuse one).  Such maps keep
        face and edge indices, so the path carries over unchanged."""
        if M.det().sign() <= 0:
            raise ValueError("transformed() requires det > 0")
        T = target if target is not None else self.surface.transform(M)
        sc = SaddleConnection(
            T,
            M.apply(self.holonomy),
            Germ(self.start.class_id, self.start.corner, M.apply(self.start.direction)),
            Germ(self.end.class_id, self.end.corner, M.apply(self.end.direction)),
            self.path,
            self.edge_pair,
        )
        if not canonical_orientation(sc.holonomy):
            sc = sc.reversed()
        return sc

    def to_dict(self) -> dict:
        S = self.surface
        return {
            "holonomy": [self.holonomy[0].to_dict(), self.holonomy[1].to_dict()],
            "length": self.length,
            "start_corner": list(self.start.corner),
            "end_corner": list(self.end.corner),
            "start_class": self.start.class_id,
            "end_class": self.end.class_id,
            "crossings": [S.pair_labels[S.pair_of[h]] for h in self.path[1]],
            "edge": None if self.edge_pair is None else S.pair_labels[self.edge_pair],
        }

    def _key(self):
        return (self.holonomy, self.start.corner, self.end.corner)

    def __eq__(self, other):
        if not isinstance(other, SaddleConnection):
            return NotImplemented
        return self.surface is other.surface and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        x, y = self.holonomy_float
        return (
            f"SaddleConnection(({x:.6g}, {y:.6g}), len={self.length:.6g}, "
            f"{self.start.corner}->{self.end.corner}, crossings={len(self.path[1])})"
        )


def _as_length_sq(n: int, length) -> CycloReal:
    L = as_field(n, length)
    if L.sign() <= 0:
        raise ValueError("length bound must be positive")
    return L * L


def edge_connection(S: TranslationSurface, pid: int) -> SaddleConnection:
    """The edge of pair ``pid`` as a canonically oriented saddle connection."""
    h1, h2 = S.edge_pairs[pid]
    h = h1 if canonical_orientation(S.edge_vector(h1)) else h2
    hol = S.edge_vector(h)
    f, e = h
    f2, e2 = S.glue[h]
    return SaddleConnection(
        S,
        hol,
        Germ(S.corner_class[(f, e)][0], (f, e), hol),
        Germ(S.corner_class[(f2, e2)][0], (f2, e2), vneg(hol)),
        ((f, e), (), (e + 1) % len(S.faces[f])),
        edge_pair=pid,
    )


class _Lattice:
    """The surface's coordinates as packed integers over one common
    denominator ``den``, the lcm of the denominators of every face-vertex
    coordinate and glue shift, with digits of ``width`` bits (the module
    docstring proves the width).  A lattice vector is a pair of packed ints
    (x and y); ``faces[f][j]`` is vertex j of face f, ``shift[h]`` the glue
    shift of half-edge h, which a cone's node subtracts from its translation
    when the cone leaves through h, and ``line`` the filter direction packed
    over its own common denominator (None without a filter)."""

    __slots__ = ("n", "d", "den", "width", "_bias", "_digit", "faces", "shift", "line")

    def __init__(self, S: TranslationSurface, direction: Optional[Vec2] = None):
        coords = [c for verts in S.faces for p in verts for c in p]
        coords += [c for shift in S.glue_shift.values() for c in shift]
        self.n = S.n
        self.den, nums = common_denominator(coords)
        self.d = d = len(nums[0])  # the field degree
        line = [] if direction is None else common_denominator(direction)[1]
        c = max(abs(a) for num in nums + line for a in num)
        self.width = (2 * d * ((_MAX_NODES + 1) * c) ** 2).bit_length() + 1
        # adding 2^(width - 1) to each digit makes every digit nonnegative;
        # _digit: that half, the digit mask, and the digit shifts, highest first
        B = self.width
        self._bias = self.pack([1 << (B - 1)] * (2 * d - 1))
        self._digit = (1 << (B - 1), (1 << B) - 1, range(B * (d - 1), -1, -B))
        it = iter(nums)
        pack = self.pack
        self.faces = [[(pack(next(it)), pack(next(it))) for _p in verts] for verts in S.faces]
        self.shift = {h: (pack(next(it)), pack(next(it))) for h in S.glue_shift}
        self.line = (pack(line[0]), pack(line[1])) if line else None

    def pack(self, digits) -> int:
        """The packed int of balanced ``digits``, lowest first."""
        B = self.width
        return sum(a << (B * i) for i, a in enumerate(digits))

    def digits(self, X: int, k: int) -> list[int]:
        """The k lowest balanced digits of the packed int ``X``."""
        B, (half, mask, _) = self.width, self._digit
        X += self._bias
        return [((X >> (B * i)) & mask) - half for i in range(k)]

    def sign(self, p: list[int]) -> int:
        """Exact sign of the integer polynomial ``p`` in Phi, lowest digit first."""
        p = _fold(self.n, p, self.d)
        return _element(self.n, p, 1).sign() if any(p) else 0

    def vector(self, u) -> Vec2:
        """The field vector of the lattice vector ``u``."""
        n, d, den = self.n, self.d, self.den
        return (_element(n, self.digits(u[0], d), den), _element(n, self.digits(u[1], d), den))

    def floats(self, u) -> tuple[float, float]:
        """``vfloat`` of the field vector of ``u``, to the bit: the Horner
        steps of ``CycloReal.__float__``, with each digit over the unreduced
        ``den``.  An int quotient is correctly rounded, so a / den is the
        double of the reduced fraction."""
        phi, den, (half, mask, shifts) = _phi_float(self.n), self.den, self._digit
        X, Y = u[0] + self._bias, u[1] + self._bias
        x = y = 0.0
        for s in shifts:
            x = x * phi + (((X >> s) & mask) - half) / den
            y = y * phi + (((Y >> s) & mask) - half) / den
        return (x, y)


def _cross_sign(lat: _Lattice, u, v) -> int:
    """Exact sign of cross(u, v) for two lattice vectors, unpacked only when
    the packed P = u_x v_y - u_y v_x is nonzero.  Both carry a positive scale
    (den, or an integer for a filter line), which leaves the sign unchanged."""
    P = u[0] * v[1] - u[1] * v[0]
    return lat.sign(lat.digits(P, 2 * lat.d - 1)) if P else 0


class _Node(NamedTuple):
    """A face reached by a cone.  Vertex j of ``face`` develops to
    ``faces[face][j] + tau``, with the cone's apex at the origin: ``tau`` is
    the packed translation and ``tau_fl`` its float.  ``entry`` is the
    half-edge of ``face`` through which the cone entered (None at the
    root)."""

    face: int
    tau_fl: tuple
    entry: Optional[tuple]
    parent: Optional["_Node"]
    tau: tuple


def _vertex(lat: _Lattice, node: _Node, j: int):
    """The lattice developed position of vertex j of ``node``'s face."""
    x, y = lat.faces[node.face][j]
    tx, ty = node.tau
    return (x + tx, y + ty)


# A direction is a tuple (float vector, node, j, below, norm): the developed
# vertex j of node's face, its lattice vector built on demand, whether the
# half-plane filter finds it strictly below the horizontal axis, and |x| + |y|
# of its float vector.  The direction filter's lines are (float vector, None,
# lattice vector).


def _exact(lat: _Lattice, d):
    return d[2] if d[1] is None else _vertex(lat, d[1], d[2])


def _cs(lat: _Lattice, a, b) -> int:
    """Sign of cross(a, b) for two directions: float filter, exact fallback."""
    (ax, ay), (bx, by) = a[0], b[0]
    c = ax * by - ay * bx
    if abs(c) > _SIGN_MARGIN * ((abs(ax) + abs(ay)) * (abs(bx) + abs(by)) + 1.0):
        return 1 if c > 0.0 else -1
    return _cross_sign(lat, _exact(lat, a), _exact(lat, b))


def enumerate_saddle_connections(
    S: TranslationSurface,
    length,
    *,
    direction=None,
) -> list[SaddleConnection]:
    """All saddle connections of length <= the bound, canonically oriented.

    ``direction`` restricts to one direction class: it accepts the labels of
    ``surface.direction_vector`` (a co-slope x/y, a vector, or "inf" for
    horizontal).  Here ``direction=None`` means no filter, not the
    horizontal: callers holding a label parse it first.  Results are sorted
    by (length, holonomy) with exact comparisons.
    """
    L2 = _as_length_sq(S.n, length)
    L2f = float(L2)
    dfilt = None if direction is None else direction_vector(S.n, direction)
    lat = _Lattice(S, dfilt)
    lines = None
    if dfilt is not None:
        dx, dy = vfloat(dfilt)
        lx, ly = lat.line
        lines = (((dx, dy), None, lat.line), ((-dx, -dy), None, (-lx, -ly)))

    faces, glue = S.faces, S.glue
    fverts = [[vfloat(p) for p in verts] for verts in faces]
    m = _SIGN_MARGIN
    far = L2f * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK

    found: list[SaddleConnection] = []

    # 1. edge saddle connections, each along its canonically oriented half
    for pid, halves in enumerate(S.edge_pairs):
        for f, e in halves:
            b = (e + 1) % len(faces[f])
            (ax, ay), (bx, by) = fverts[f][e], fverts[f][b]
            (px, py), (qx, qy) = lat.faces[f][e], lat.faces[f][b]
            w = ((bx - ax, by - ay), None, (qx - px, qy - py))
            P = _endpoint(lat, w, L2, L2f, lines)
            if P is not None:
                found.append(_recorded(S, lat, P, (f, e), glue[(f, e)], ((f, e), (), b), pid))
                break

    # 2. cone DFS from every corner, over the canonical half-plane only.
    # walk[f][e]: the vertices of face f off edge e as (j, x, y) floats,
    # counterclockwise from the one after e + 1.  The ends of the entry edge
    # lie on or outside the cone, and so do the apex and its two neighbours
    # in the root face, so the inside test walks only the rest of the face.
    # half[f][e]: half-edge (f, e) as its start vertex, edge vector and
    # 1 / |edge|^2 in floats, its float and packed glue shifts and its partner
    # (half[f][j - 1] is the edge ending at vertex j, j = 0 included).
    walk, half = [], []
    for f, fv in enumerate(fverts):
        k = len(fv)
        walk.append([tuple((j % k, *fv[j % k]) for j in range(e + 2, e + k)) for e in range(k)])
        half.append([])
        for e, ((ax, ay), (bx, by)) in enumerate(zip(fv, fv[1:] + fv[:1])):
            ex, ey, h = bx - ax, by - ay, (f, e)
            tail = (*vfloat(S.glue_shift[h]), lat.shift[h], glue[h])
            half[f].append((ax, ay, ex, ey, 1.0 / (ex * ex + ey * ey), *tail))
    nodes_seen = 0
    for f0, verts0 in enumerate(faces):
        k0 = len(verts0)
        for v0 in range(k0):
            ox, oy = fverts[f0][v0]
            a, b = (v0 + 1) % k0, (v0 - 1) % k0
            (ax, ay), (bx, by) = fverts[f0][a], fverts[f0][b]
            lo, hi = (ax - ox, ay - oy), (bx - ox, by - oy)
            lo_n, hi_n = (abs(x) + abs(y) for x, y in (lo, hi))
            lo_dn, hi_dn = lo[1] < -m * (lo_n + 1.0), hi[1] < -m * (hi_n + 1.0)
            if lo_dn and hi_dn:
                continue  # the corner's wedge lies below the horizontal axis
            px, py = lat.faces[f0][v0]
            root = _Node(f0, (-ox, -oy), None, None, (-px, -py))
            root_walk = walk[f0][v0][:-1]
            stack = [(root, (lo, root, a, lo_dn, lo_n), (hi, root, b, hi_dn, hi_n))]
            while stack:
                node, lo, hi = stack.pop()
                nodes_seen += 1
                if nodes_seen > _MAX_NODES:
                    raise ComputationLimitError("saddle enumeration exceeded the node budget")
                f, (tx, ty), entry, _parent, (Tx, Ty) = node
                (lx, ly), _, _, _, lo_n = lo
                (hx, hy), _, _, _, hi_n = hi
                if entry is None:
                    a0, chain = b, root_walk
                else:
                    a0 = entry[1]
                    chain = walk[f][a0]

                # the walk of the module docstring, from a0 + 2 (a0 + 3 at the
                # root); it stops at j_exit, the first vertex at or
                # counterclockwise of hi, or runs out before a0.  A float
                # cross product c decides when |c| > t, and else the lattice.
                inside = []
                j_exit = a0
                for j, x, y in chain:
                    wx, wy = x + tx, y + ty
                    w_n = abs(wx) + abs(wy)
                    c, t = lx * wy - ly * wx, m * (lo_n * w_n + 1.0)
                    if c < -t or (
                        c <= t and _cross_sign(lat, _exact(lat, lo), _vertex(lat, node, j)) <= 0
                    ):
                        continue
                    c, t = wx * hy - wy * hx, m * (w_n * hi_n + 1.0)
                    if c < -t or (
                        c <= t and _cross_sign(lat, _vertex(lat, node, j), _exact(lat, hi)) <= 0
                    ):
                        j_exit = j
                        break
                    inside.append(((wx, wy), node, j, wy < -m * (w_n + 1.0), w_n))

                # a subcone's beam leaves through part of its exit edge and is
                # dropped when all of that edge is beyond the bound (written
                # twice, to keep the common path of one subcone flat)
                hf = half[f]
                if not inside:
                    # the node's own cone, half-plane tested when it was
                    # pushed, leaves through the edge ending at j_exit
                    if lines is not None and not any(
                        _cs(lat, lo, ln) >= 0 and _cs(lat, ln, hi) >= 0 for ln in lines
                    ):
                        continue
                    ax, ay, ex, ey, inv, sx, sy, (px, py), entry = hf[j_exit - 1]
                    ax, ay = ax + tx, ay + ty
                    s = -(ax * ex + ay * ey) * inv
                    s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
                    ax, ay = ax + s * ex, ay + s * ey
                    if ax * ax + ay * ay <= far:
                        child = _Node(entry[0], (tx - sx, ty - sy), entry, node, (Tx - px, Ty - py))
                        stack.append((child, lo, hi))
                    continue
                for w in inside:
                    P = _endpoint(lat, w, L2, L2f, lines)
                    if P is not None:
                        found.append(_cone_connection(S, lat, node, w[2], P, (f0, v0)))
                # consecutive bounds are distinct counterclockwise rays, so
                # each subcone is open and nonempty; beside a split vertex it
                # leaves through the edge ending there (clockwise side) or
                # starting there (counterclockwise side)
                d1, e = lo, inside[0][2] - 1
                inside.append(hi)
                for d2 in inside:
                    if not (d1[3] and d2[3]) and (  # else below the horizontal axis
                        lines is None  # else the closed subcone must meet the line
                        or any(_cs(lat, d1, ln) >= 0 and _cs(lat, ln, d2) >= 0 for ln in lines)
                    ):
                        ax, ay, ex, ey, inv, sx, sy, (px, py), entry = hf[e]
                        ax, ay = ax + tx, ay + ty
                        s = -(ax * ex + ay * ey) * inv
                        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
                        ax, ay = ax + s * ex, ay + s * ey
                        if ax * ax + ay * ay <= far:
                            child = _Node(
                                entry[0], (tx - sx, ty - sy), entry, node, (Tx - px, Ty - py)
                            )
                            stack.append((child, d1, d2))
                    d1, e = d2, d2[2]

    return _sorted(found)


def _sorted(found: list[SaddleConnection]) -> list[SaddleConnection]:
    """The connections in ``_order``, sorted by float lengths first.

    A float length f, x^2 + y^2 of ``holonomy_float``, lies within
    (``_SIGN_MARGIN`` / 2) (f + 1) of its exact value.  After a stable sort by
    f, cut the list wherever two neighbours' float lengths differ by more
    than that margin, and re-sort each run with the exact ``_order``: the
    margin only cuts runs.  Take a before b in different runs, with a cut
    between neighbours k and k + 1: f_a <= f_k < f_(k+1) <= f_b and
    f_(k+1) - f_k > m (f_k + f_(k+1) + 1), so f_b - f_a exceeds the error
    bound (m / 2) (f_a + f_b + 2) of the two lengths and a is exactly shorter
    than b.  Runs thus follow the exact order, and entries equal under
    ``_order`` share their packed holonomy, hence their run, and keep their
    input order in both sorts: this is a full ``cmp_to_key(_order)`` sort.
    """
    keyed = []
    for sc in found:
        x, y = sc._fl
        keyed.append((x * x + y * y, sc))
    keyed.sort(key=lambda entry: entry[0])
    out = []
    start = 0
    for i in range(1, len(keyed) + 1):
        if i < len(keyed):
            fa, fb = keyed[i - 1][0], keyed[i][0]
            if fb - fa <= _SIGN_MARGIN * (fa + fb + 1.0):
                continue
        run = [sc for _f, sc in keyed[start:i]]
        if len(run) > 1:
            run.sort(key=cmp_to_key(_order))
        out += run
        start = i
    return out


def _order(a: SaddleConnection, b: SaddleConnection) -> int:
    """Exact order of two connections of one enumeration: by length, then
    holonomy x and y, then, for equal holonomies (equal packed vectors, over
    one lattice), by the start and end corners.  No float margin enters."""
    (Xa, Ya), (Xb, Yb) = a._packed, b._packed
    if Xa != Xb or Ya != Yb:
        lat = a._lat
        d, k = lat.d, 2 * lat.d - 1
        na, nb = lat.digits(Xa * Xa + Ya * Ya, k), lat.digits(Xb * Xb + Yb * Yb, k)
        s = lat.sign([p - q for p, q in zip(na, nb)]) or lat.sign(lat.digits(Xa - Xb, d))
        return s or lat.sign(lat.digits(Ya - Yb, d))
    ka, kb = (a.start.corner, a.end.corner), (b.start.corner, b.end.corner)
    return -1 if ka < kb else (1 if ka > kb else 0)


def _endpoint(lat: _Lattice, w, L2: CycloReal, L2f: float, lines):
    """The packed holonomy to direction ``w`` when it is canonically
    oriented, no longer than the bound and on the filter line (if any);
    otherwise None.  Each test is decided in floats when the margin allows
    and otherwise from unpacked digits, as the module docstring says."""
    m, d = _SIGN_MARGIN, lat.d
    x, y = w[0]
    if abs(y) > m * (abs(x) + abs(y) + 1.0):
        if y < 0.0:
            return None
    else:
        X, Y = _exact(lat, w)
        if (lat.sign(lat.digits(Y, d)) or lat.sign(lat.digits(X, d))) <= 0:
            return None
    if lines is not None and _cs(lat, w, lines[0]) != 0:
        return None
    nf = x * x + y * y
    if nf > L2f * (1.0 + m) + m:
        return None
    X, Y = P = _exact(lat, w)
    if nf >= L2f * (1.0 - m) - m:
        b, (a,) = common_denominator([L2])
        D2, norm = lat.den * lat.den, lat.digits(X * X + Y * Y, 2 * d - 1)
        if lat.sign([b * s - D2 * t for s, t in zip(norm, a + (0,) * (d - 1))]) > 0:
            return None
    return P


def _recorded(
    S: TranslationSurface, lat: _Lattice, P, start_corner, end_corner, path, edge_pair=None
) -> SaddleConnection:
    """The connection with packed holonomy ``P`` along ``path``, its floats
    read now, its field vector and germ directions on first read."""
    cc = S.corner_class
    start = Germ(cc[start_corner][0], start_corner, None)
    end = Germ(cc[end_corner][0], end_corner, None)
    sc = SaddleConnection(S, None, start, end, path, edge_pair)
    start._of = end._of = sc
    sc._lat, sc._packed, sc._fl = lat, P, lat.floats(P)
    return sc


def _cone_connection(
    S: TranslationSurface,
    lat: _Lattice,
    node: _Node,
    vertex: int,
    P,
    start_corner: tuple[int, int],
) -> SaddleConnection:
    """The connection with packed holonomy ``P`` from ``start_corner`` to
    vertex ``vertex`` of ``node``'s face, its path read off the cone's node
    chain."""
    exits = []
    cur = node
    while cur.parent is not None:
        exits.append(S.glue[cur.entry])
        cur = cur.parent
    exits.reverse()
    path = (start_corner, tuple(exits), vertex)
    return _recorded(S, lat, P, start_corner, (node.face, vertex), path)
