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
decide or a connection is recorded.  A node keeps its float translation and
its parent; its exact translation is summed along the parent chain on
request.  Glued edges are opposite translates, so crossing edge (f, e) into
(f2, e2) takes vertex e to vertex e2 + 1 and vertex e + 1 to vertex e2 at
the same developed position: the ends of a face's entry edge are the ends of
the edge the parent cone left through, on or outside every subcone that
crossed it.  They, and the apex with its two neighbours in its own face, are
skipped with no arithmetic, so only other vertices on a boundary line reach
exact arithmetic.  Beside a vertex that splits a cone, the exit edge is the
edge at that vertex.

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
whole developed position).  Node translations and developed vertices are
pairs of integer tuples over D, built by adding integer tuples with no gcd.
An exact cross sign is two integer convolutions folded by the minimal
polynomial; a zero is decided on the integers, and only a nonzero result
goes to the field's sign (the positive factor D^2 does not change it).  The
exit edge's direction sum d1 + d2 is an integer sum, and a direction
filter's line is scaled into the lattice by a positive integer, since only
its direction matters.  A field element is built from the numerators only
for a recorded holonomy, or for an orientation or length test at the
boundary.

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
  used when |c| > 1e-9 (|a|_1 |b|_1 + 1).  For developed vertices, and for
  their sums dm = d1 + d2, the error of c is at most 4 R delta + 2 u |a|_1
  |b|_1, so the margin covers it while 4 R delta <= 1e-9.  That bound is
  2e-10 at S_8 and 90 l_m, 3e-11 at sheared S_8 and 30 l_m, 9e-11 at the
  16-gon and L = 3 and 7e-10 at S_16 and 30 l_m; on S_8 it stays below 1e-9
  up to about 170 l_m.  The same margin, on the same kind of scale, decides
  the exit-edge signs, the length cut (|W|^2 against L^2), the orientation
  and the half-plane filter (y against |x| + |y| + 1) and the final order,
  whose float keys are converted straight from the exact holonomies.
* ``_PRUNE_SLACK`` = 1e-6, relative and absolute.  A beam is dropped when
  the float squared distance from the apex to its whole exit edge exceeds
  L^2 (1 + 1e-6) + 1e-6.  That distance is off by at most 2 R delta + 4 u
  R^2, far below the slack, so no beam that reaches within the bound is
  dropped.

``_MAX_NODES`` bounds the search; past it the enumeration raises
``ComputationLimitError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Optional

from .field import ComputationLimitError, CycloReal, _element, _fold, as_field, common_denominator
from .plane import Vec2, canonical_orientation, cross, norm2, vfloat, vneg
from .surface import TranslationSurface, direction_vector, trace_from_corner

_MAX_NODES = 5_000_000
_SIGN_MARGIN = 1e-9
_PRUNE_SLACK = 1e-6


@dataclass(frozen=True)
class Germ:
    """A direction germ at a singular vertex: a corner of the complex plus an
    exact direction pointing into (or along the first boundary ray of) its
    wedge."""

    class_id: int
    corner: tuple[int, int]
    direction: Vec2


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
    """

    __slots__ = (
        "surface",
        "holonomy",
        "start",
        "end",
        "path",
        "edge_pair",
        "_len2",
        "_trace",
    )

    def __init__(self, surface, holonomy, start, end, path, edge_pair=None):
        self.surface = surface
        self.holonomy = holonomy
        self.start = start
        self.end = end
        self.path = path
        self.edge_pair = edge_pair
        self._len2 = None
        self._trace = None

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
        return SaddleConnection(
            self.surface, vneg(self.holonomy), self.end, self.start, path, self.edge_pair
        )

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
        x, y = vfloat(self.holonomy)
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
    """The surface's coordinates as integer numerators over one common
    denominator ``den``, the lcm of the denominators of every face-vertex
    coordinate and glue shift.  A lattice vector is a pair of integer tuples
    (numerators of x and y); ``faces[f][j]`` is vertex j of face f, and
    ``enter[h]`` is the translation a cone's node picks up when it enters a
    face through half-edge h (minus the glue shift of the half-edge it
    leaves through)."""

    __slots__ = ("n", "den", "faces", "enter")

    def __init__(self, S: TranslationSurface):
        coords = [c for verts in S.faces for p in verts for c in p]
        coords += [c for shift in S.glue_shift.values() for c in shift]
        self.n = S.n
        self.den, nums = common_denominator(coords)
        it = iter(nums)
        self.faces = [[(next(it), next(it)) for _p in verts] for verts in S.faces]
        self.enter = {S.glue[h]: _lneg((next(it), next(it))) for h in S.glue_shift}


def _ladd(u, v):
    return (
        tuple([a + b for a, b in zip(u[0], v[0])]),
        tuple([a + b for a, b in zip(u[1], v[1])]),
    )


def _lneg(u):
    return (tuple([-a for a in u[0]]), tuple([-a for a in u[1]]))


def _cross_sign(n: int, u, v) -> int:
    """Exact sign of cross(u, v) for two lattice vectors: the integer
    polynomial u_x v_y - u_y v_x folded by the minimal polynomial.  Both
    vectors carry a positive scale (den, or an integer for a filter line),
    which leaves the sign unchanged."""
    (ux, uy), (vx, vy) = u, v
    d = len(ux)
    p = [0] * (2 * d - 1)
    for i in range(d):
        a, b = ux[i], uy[i]
        if a or b:
            for k in range(d):
                p[i + k] += a * vy[k] - b * vx[k]
    p = _fold(n, p, d)
    if not any(p):
        return 0
    return _element(n, p, 1).sign()


class _Node:
    """A face reached by a cone.  Vertex j of ``face`` develops to
    ``faces[face][j] + tau``, with the cone's apex at the origin.

    The float translation ``tau_fl`` is always kept.  The lattice ``tau`` and
    the lattice developed vertices (``verts``) are built along the parent
    chain only when a decision or a recorded connection needs them
    (``_vertex``).  ``entry`` is the half-edge of ``face`` through which the
    cone entered (None at the root)."""

    __slots__ = ("face", "tau_fl", "entry", "parent", "tau", "verts")

    def __init__(self, face, tau_fl, entry, parent, tau=None):
        self.face = face
        self.tau_fl = tau_fl
        self.entry = entry
        self.parent = parent
        self.tau = tau
        self.verts = None


def _vertex(lat: _Lattice, node: _Node, j: int):
    """The lattice developed position of vertex j of ``node``'s face."""
    cache = node.verts
    if cache is None:
        cache = node.verts = [None] * len(lat.faces[node.face])
    w = cache[j]
    if w is None:
        chain = []
        cur = node
        while cur.tau is None:
            chain.append(cur)
            cur = cur.parent
        tau = cur.tau
        for nd in reversed(chain):
            tau = nd.tau = _ladd(tau, lat.enter[nd.entry])
        w = cache[j] = _ladd(lat.faces[node.face][j], tau)
    return w


# A direction is a tuple (float vector, node, j): the developed vertex j of
# node's face, its lattice vector built on demand.  The direction filter's
# lines are (float vector, None, lattice vector).


def _exact(lat: _Lattice, d):
    return d[2] if d[1] is None else _vertex(lat, d[1], d[2])


def _holonomy(lat: _Lattice, d) -> Vec2:
    """The exact field vector of vertex direction ``d``."""
    x, y = _exact(lat, d)
    return (_element(lat.n, x, lat.den), _element(lat.n, y, lat.den))


def _cs(lat: _Lattice, a, b) -> int:
    """Sign of cross(a, b) for two directions: float filter, exact fallback."""
    (ax, ay), (bx, by) = a[0], b[0]
    c = ax * by - ay * bx
    if abs(c) > _SIGN_MARGIN * ((abs(ax) + abs(ay)) * (abs(bx) + abs(by)) + 1.0):
        return 1 if c > 0.0 else -1
    return _cross_sign(lat.n, _exact(lat, a), _exact(lat, b))


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
    lines = None
    if dfilt is not None:
        dx, dy = vfloat(dfilt)
        line = tuple(common_denominator(dfilt)[1])  # a positive multiple of dfilt
        lines = (((dx, dy), None, line), ((-dx, -dy), None, _lneg(line)))

    faces, glue = S.faces, S.glue
    lat = _Lattice(S)
    fverts = [[vfloat(p) for p in verts] for verts in faces]
    fshift = {h: vfloat(t) for h, t in S.glue_shift.items()}
    m = _SIGN_MARGIN

    found: list[SaddleConnection] = []

    # 1. edge saddle connections
    for pid in range(len(S.edge_pairs)):
        sc = edge_connection(S, pid)
        if norm2(sc.holonomy) > L2:
            continue
        if dfilt is not None and not cross(sc.holonomy, dfilt).is_zero():
            continue
        found.append(sc)

    # 2. cone DFS from every corner, over the canonical half-plane only.  The
    # ends of the entry edge lie on or outside the cone, and so do the apex
    # and its two neighbours in the root face, so the inside test skips them.
    nodes_seen = 0
    for f0, verts0 in enumerate(faces):
        k0 = len(verts0)
        for v0 in range(k0):
            ox, oy = fverts[f0][v0]
            a, b = (v0 + 1) % k0, (v0 - 1) % k0
            (ax, ay), (bx, by) = fverts[f0][a], fverts[f0][b]
            lo, hi = (ax - ox, ay - oy), (bx - ox, by - oy)
            if _below(lo) and _below(hi):
                continue  # the corner's wedge lies below the horizontal axis
            root = _Node(f0, (-ox, -oy), None, None, _lneg(lat.faces[f0][v0]))
            stack = [(root, (lo, root, a), (hi, root, b))]
            while stack:
                node, lo, hi = stack.pop()
                nodes_seen += 1
                if nodes_seen > _MAX_NODES:
                    raise ComputationLimitError("saddle enumeration exceeded the node budget")
                f = node.face
                tx, ty = node.tau_fl
                Wfl = [(x + tx, y + ty) for x, y in fverts[f]]
                k = len(Wfl)
                (lx, ly), (hx, hy) = lo[0], hi[0]
                lo_n, hi_n = abs(lx) + abs(ly), abs(hx) + abs(hy)
                if node is root:
                    apex, b0, a0 = v0, a, b
                else:
                    apex, a0 = -1, node.entry[1]
                    b0 = (a0 + 1) % k

                inside = []
                for j, (wx, wy) in enumerate(Wfl):
                    if j == a0 or j == b0 or j == apex:
                        continue
                    w_n = abs(wx) + abs(wy)
                    c = lx * wy - ly * wx
                    if abs(c) > m * (lo_n * w_n + 1.0):
                        if c < 0.0:
                            continue
                    elif _cross_sign(lat.n, _exact(lat, lo), _vertex(lat, node, j)) <= 0:
                        continue
                    c = wx * hy - wy * hx
                    if abs(c) > m * (w_n * hi_n + 1.0):
                        if c < 0.0:
                            continue
                    elif _cross_sign(lat.n, _vertex(lat, node, j), _exact(lat, hi)) <= 0:
                        continue
                    inside.append(((wx, wy), node, j))
                if len(inside) > 1:
                    inside.sort(key=cmp_to_key(lambda a, b: _cs(lat, b, a)))
                # a ray strictly inside the cone meets the convex face in a
                # segment from the open entry edge (or the apex) to one exit
                # point, so no two inside vertices share a direction: each one
                # splits the cone, and the subcones beside it leave the face at it
                for w in inside:
                    W = _endpoint(lat, w, L2, L2f, lines)
                    if W is not None:
                        found.append(_cone_connection(S, node, w[2], W, (f0, v0)))
                bounds = [lo] + inside + [hi]

                # consecutive bounds are distinct rays in counterclockwise
                # order, so every subcone between them is open and nonempty
                last = len(bounds) - 2
                for i in range(last + 1):
                    d1, d2 = bounds[i], bounds[i + 1]
                    if _below(d2[0]) and _below(d1[0]):
                        continue  # the subcone lies below the horizontal axis
                    if lines is not None and not any(
                        _cs(lat, d1, ln) >= 0 and _cs(lat, ln, d2) >= 0 for ln in lines
                    ):
                        continue  # the closed subcone misses the filter line
                    # beside a split vertex: the edge starting there on its
                    # counterclockwise side, the edge ending there on its clockwise side
                    if i > 0:
                        e = d1[2]
                    elif i < last:
                        e = (d2[2] - 1) % k
                    else:
                        e = _exit_edge(lat, node, Wfl, d1, d2, b0, a0)
                    if _prune_far(Wfl[e], Wfl[(e + 1) % k], L2f):
                        continue
                    half = (f, e)
                    sx, sy = fshift[half]
                    child = _Node(glue[half][0], (tx - sx, ty - sy), glue[half], node)
                    stack.append((child, d1, d2))

    return _sorted(found)


def _sorted(found: list[SaddleConnection]) -> list[SaddleConnection]:
    """The connections in ``_order``, sorted by float keys first.

    ``_order`` rests on each float key entry f being within
    (``_SIGN_MARGIN`` / 2) (|f| + 1) of its exact value, so that a float
    difference beyond its margin has the exact sign.  After a stable sort by
    the float key tuple, cut the list wherever two neighbours' float lengths
    differ by more than that margin, and re-sort each run with ``_order``.
    Take a before b in different runs, with a cut between neighbours k and
    k + 1: f_a <= f_k < f_(k+1) <= f_b and f_(k+1) - f_k > m (f_k + f_(k+1)
    + 1), so f_b - f_a exceeds the error bound (m / 2) (f_a + f_b + 2) of the
    two keys and a is exactly shorter than b.  Runs thus follow the exact
    order, each run is sorted by ``_order`` itself, and entries equal under
    ``_order`` share their float key and keep their input order in both
    sorts, so the result is a full ``cmp_to_key(_order)`` sort.
    """
    keyed = []
    for sc in found:
        x, y = vfloat(sc.holonomy)
        keyed.append(((x * x + y * y, x, y), sc))
    keyed.sort(key=lambda entry: entry[0])
    out = []
    start = 0
    for i in range(1, len(keyed) + 1):
        if i < len(keyed):
            fa, fb = keyed[i - 1][0][0], keyed[i][0][0]
            if fb - fa <= _SIGN_MARGIN * (fa + fb + 1.0):
                continue
        run = keyed[start:i]
        if len(run) > 1:
            run.sort(key=cmp_to_key(_order))
        out += [sc for _key, sc in run]
        start = i
    return out


def _below(v) -> bool:
    """Float test: does the vector v = (x, y) point strictly below the
    horizontal axis?  The same margin as the orientation test of
    ``_endpoint``; returning False is always safe."""
    x, y = v
    return y < -_SIGN_MARGIN * (abs(x) + abs(y) + 1.0)


def _order(a, b) -> int:
    """Order of (float key, connection) entries: by length, then holonomy x
    and y, each decided in floats when the margin allows and exactly
    otherwise; then, for equal holonomies, by the start and end corners."""
    (fa, sa), (fb, sb) = a, b
    for i in range(3):
        d = fa[i] - fb[i]
        if abs(d) > _SIGN_MARGIN * (abs(fa[i]) + abs(fb[i]) + 1.0):
            return 1 if d > 0.0 else -1
        if i == 0:
            if sa.holonomy == sb.holonomy:
                break
            s = (sa.length_sq - sb.length_sq).sign()
        else:
            s = (sa.holonomy[i - 1] - sb.holonomy[i - 1]).sign()
        if s:
            return s
    ka, kb = (sa.start.corner, sa.end.corner), (sb.start.corner, sb.end.corner)
    return -1 if ka < kb else (1 if ka > kb else 0)


def _endpoint(lat: _Lattice, w, L2: CycloReal, L2f: float, lines) -> Optional[Vec2]:
    """The exact holonomy to vertex direction ``w`` when it is canonically
    oriented, no longer than the bound and on the filter line (if any);
    otherwise None.  Each test is decided in floats when the margin allows,
    and the field vector is built only for a recorded connection or an
    undecided test."""
    m = _SIGN_MARGIN
    x, y = w[0]
    W = None
    if abs(y) > m * (abs(x) + abs(y) + 1.0):
        if y < 0.0:
            return None
    else:
        W = _holonomy(lat, w)
        if not canonical_orientation(W):
            return None
    if lines is not None and _cs(lat, w, lines[0]) != 0:
        return None
    nf = x * x + y * y
    if nf > L2f * (1.0 + m) + m:
        return None
    if W is None:
        W = _holonomy(lat, w)
    if nf >= L2f * (1.0 - m) - m and norm2(W) > L2:
        return None
    return W


def _exit_edge(lat: _Lattice, node: _Node, Wfl, d1, d2, b0: int, a0: int) -> int:
    """The edge of ``node``'s face through which the vertex-free open cone
    (d1, d2) leaves it.

    Let dm = d1 + d2.  The face lies in an open half-plane beyond its entry
    edge (a0, b0), or in the apex's wedge at the root, where a0 and b0 are
    the apex's neighbours.  Vertex b0 is clockwise of dm and a0
    counterclockwise, and the far chain b0, b0 + 1, ..., a0 turns from
    clockwise to counterclockwise of dm exactly once: at the exit edge.
    """
    (px, py), (qx, qy) = d1[0], d2[0]
    mx, my = px + qx, py + qy
    m_n = abs(mx) + abs(my)
    dm = None
    k = len(Wfl)
    j = (b0 + 1) % k
    while j != a0:
        wx, wy = Wfl[j]
        c = wx * my - wy * mx
        if abs(c) > _SIGN_MARGIN * ((abs(wx) + abs(wy)) * m_n + 1.0):
            ccw = c < 0.0
        else:
            if dm is None:
                dm = _ladd(_exact(lat, d1), _exact(lat, d2))
            ccw = _cross_sign(lat.n, _vertex(lat, node, j), dm) < 0
        if ccw:
            break
        j = (j + 1) % k
    return (j - 1) % k


def _prune_far(a, b, L2f: float) -> bool:
    """Float test: is every point of the exit edge (a, b) farther from the
    apex than the length bound?  The beam leaves through part of that edge,
    so a pruned beam holds nothing within the bound; returning False is
    always safe."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    s = -(ax * ex + ay * ey) / (ex * ex + ey * ey)
    s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
    px, py = ax + s * ex, ay + s * ey
    return px * px + py * py > L2f * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK


def _cone_connection(
    S: TranslationSurface,
    node: _Node,
    vertex: int,
    W: Vec2,
    start_corner: tuple[int, int],
) -> SaddleConnection:
    """The connection with holonomy ``W`` from ``start_corner`` to vertex
    ``vertex`` of ``node``'s face, its path read off the cone's node chain."""
    exits = []
    cur = node
    while cur.parent is not None:
        exits.append(S.glue[cur.entry])
        cur = cur.parent
    exits.reverse()
    end_corner = (node.face, vertex)
    start = Germ(S.corner_class[start_corner][0], start_corner, W)
    end = Germ(S.corner_class[end_corner][0], end_corner, vneg(W))
    return SaddleConnection(S, W, start, end, (start_corner, tuple(exits), vertex))
