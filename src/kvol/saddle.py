"""Saddle connections: exact enumeration by unfolding direction cones.

A saddle connection is a straight geodesic segment joining two vertices of
the polygon complex with no vertex in its interior.  For each corner the
enumerator develops the surface along a depth-first search over open
direction cones: a cone entering a convex face either ends at vertices
(strictly inside the cone, recorded when short enough) or continues through
the boundary edges, splitting at every interior vertex direction.  Each
connection records its exact holonomy, endpoint germs and combinatorial
path (start corner, crossed half-edges, end vertex); exact pieces and
crossing points are traced from the path only when asked for.  Floating
point is used only as a filter, with every uncertain sign resolved in the
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .field import CycloReal
from .plane import (
    Vec2,
    canonical_orientation,
    cross,
    norm2,
    vadd,
    vfloat,
    vneg,
    vsub,
)
from .surface import TranslationSurface, trace_from_corner

_EPS = 1e-9


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
    if isinstance(length, CycloReal):
        L = length
    elif isinstance(length, float):
        L = CycloReal.from_rational(n, Fraction(length))
    else:
        L = CycloReal.from_rational(n, Fraction(length))
    if L.sign() <= 0:
        raise ValueError("length bound must be positive")
    return L * L


def _direction_filter(S: TranslationSurface, direction) -> Optional[Vec2]:
    if direction is None:
        return None
    from .surface import direction_vector

    return direction_vector(S.n, direction)


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


class _Node:
    __slots__ = ("face", "tau_ex", "tau_fl", "entry", "parent")

    def __init__(self, face, tau_ex, tau_fl, entry, parent):
        self.face = face
        self.tau_ex = tau_ex
        self.tau_fl = tau_fl
        self.entry = entry  # half-edge of `face` through which the cone entered
        self.parent = parent


def _cs(a_fl, b_fl, a_ex, b_ex) -> int:
    """Sign of cross(a, b): float filter with exact fallback.

    a_ex/b_ex may be exact vectors or zero-argument callables producing them.
    """
    c = a_fl[0] * b_fl[1] - a_fl[1] * b_fl[0]
    scale = (abs(a_fl[0]) + abs(a_fl[1])) * (abs(b_fl[0]) + abs(b_fl[1])) + 1.0
    if abs(c) > _EPS * scale:
        return 1 if c > 0.0 else -1
    if callable(a_ex):
        a_ex = a_ex()
    if callable(b_ex):
        b_ex = b_ex()
    return cross(a_ex, b_ex).sign()


def enumerate_saddle_connections(
    S: TranslationSurface,
    length,
    *,
    direction=None,
    max_nodes: int = 5_000_000,
) -> list[SaddleConnection]:
    """All saddle connections of length <= the bound, canonically oriented.

    ``direction`` (optional) restricts to one direction class: it accepts the
    same forms as ``surface.direction_vector`` (a co-slope x/y, a vector, or
    "inf" for horizontal).  Results are sorted by (length, holonomy) with
    exact comparisons.
    """
    L2 = _as_length_sq(S.n, length)
    L2f = float(L2)
    dfilt = _direction_filter(S, direction)
    dfilt_fl = vfloat(dfilt) if dfilt is not None else None

    fverts = [[vfloat(p) for p in verts] for verts in S.faces]
    fshift = {h: vfloat(t) for h, t in S.glue_shift.items()}

    found: list[SaddleConnection] = []

    # 1. edge saddle connections
    for pid in range(len(S.edge_pairs)):
        sc = edge_connection(S, pid)
        if norm2(sc.holonomy) > L2:
            continue
        if dfilt is not None and not cross(sc.holonomy, dfilt).is_zero():
            continue
        found.append(sc)

    # 2. cone DFS from every corner
    nodes_seen = 0
    for f0, verts0 in enumerate(S.faces):
        for v0 in range(len(verts0)):
            ra, rb = S.wedge_rays(f0, v0)
            tau0 = vneg(verts0[v0])
            root = _Node(f0, tau0, vfloat(tau0), None, None)
            stack = [(root, ra, vfloat(ra), rb, vfloat(rb))]
            while stack:
                node, lo_ex, lo_fl, hi_ex, hi_fl = stack.pop()
                nodes_seen += 1
                if nodes_seen > max_nodes:
                    raise RuntimeError("saddle enumeration exceeded the node budget")
                f = node.face
                verts = S.faces[f]
                k = len(verts)
                vfl = fverts[f]
                tfl = node.tau_fl
                Wfl = [(vfl[j][0] + tfl[0], vfl[j][1] + tfl[1]) for j in range(k)]
                Wex_cache: list[Optional[Vec2]] = [None] * k

                def Wex(j, _c=Wex_cache, _v=verts, _t=node.tau_ex):
                    if _c[j] is None:
                        _c[j] = vadd(_v[j], _t)
                    return _c[j]

                inside = []
                for j in range(k):
                    if _cs(lo_fl, Wfl[j], lo_ex, lambda j=j: Wex(j)) <= 0:
                        continue
                    if _cs(Wfl[j], hi_fl, lambda j=j: Wex(j), hi_ex) <= 0:
                        continue
                    inside.append(j)
                inside.sort(
                    key=cmp_to_key(
                        lambda a, b: -_cs(
                            Wfl[a], Wfl[b], lambda a=a: Wex(a), lambda b=b: Wex(b)
                        )
                    )
                )
                # group vertices sharing a direction; only the nearest can be
                # a saddle-connection endpoint, but each direction splits the cone
                groups: list[list[int]] = []
                for j in inside:
                    if groups and _cs(
                        Wfl[groups[-1][0]], Wfl[j],
                        lambda a=groups[-1][0]: Wex(a), lambda b=j: Wex(b),
                    ) == 0:
                        groups[-1].append(j)
                    else:
                        groups.append([j])

                split_dirs = []
                for grp in groups:
                    nearest = grp[0]
                    if len(grp) > 1:
                        nearest = min(grp, key=lambda j: norm2(Wex(j)))
                    split_dirs.append((Wex(nearest), Wfl[nearest]))
                    nf = Wfl[nearest][0] ** 2 + Wfl[nearest][1] ** 2
                    if nf > L2f * (1 + _EPS) + _EPS:
                        continue
                    Wx = Wex(nearest)
                    if norm2(Wx) > L2:
                        continue
                    if dfilt is not None and not cross(Wx, dfilt).is_zero():
                        continue
                    if not canonical_orientation(Wx):
                        continue
                    found.append(_cone_connection(S, node, nearest, Wx, (f0, v0)))

                boundaries = [(lo_ex, lo_fl)] + split_dirs + [(hi_ex, hi_fl)]
                for (d1_ex, d1_fl), (d2_ex, d2_fl) in zip(boundaries, boundaries[1:]):
                    if _cs(d1_fl, d2_fl, d1_ex, d2_ex) <= 0:
                        continue  # empty subcone
                    if dfilt is not None and not _cone_meets_line(
                        d1_ex, d1_fl, d2_ex, d2_fl, dfilt, dfilt_fl
                    ):
                        continue
                    dm_ex = vadd(d1_ex, d2_ex)
                    dm_fl = (d1_fl[0] + d2_fl[0], d1_fl[1] + d2_fl[1])
                    entry_e = node.entry[1] if node.entry is not None else None
                    e = _exit_edge(S, f, Wfl, Wex, dm_ex, dm_fl, entry_e)
                    if _prune_far(Wfl, e, k, d1_fl, d2_fl, L2f):
                        continue
                    half = (f, e)
                    f2 = S.glue[half][0]
                    tau2 = vsub(node.tau_ex, S.glue_shift[half])
                    sh = fshift[half]
                    tau2_fl = (tfl[0] - sh[0], tfl[1] - sh[1])
                    child = _Node(f2, tau2, tau2_fl, S.glue[half], node)
                    stack.append((child, d1_ex, d1_fl, d2_ex, d2_fl))

    def cmp(a: SaddleConnection, b: SaddleConnection) -> int:
        s = (a.length_sq - b.length_sq).sign()
        if s:
            return s
        s = (a.holonomy[0] - b.holonomy[0]).sign()
        if s:
            return s
        s = (a.holonomy[1] - b.holonomy[1]).sign()
        if s:
            return s
        return -1 if a._key() < b._key() else (1 if a._key() > b._key() else 0)

    found.sort(key=cmp_to_key(cmp))
    return found


def _cone_meets_line(d1_ex, d1_fl, d2_ex, d2_fl, d_ex, d_fl) -> bool:
    """True if the closed cone [d1, d2] contains d or -d."""
    for sgn in (1, -1):
        s_fl = (sgn * d_fl[0], sgn * d_fl[1])
        s_ex = (d_ex[0] if sgn == 1 else -d_ex[0], d_ex[1] if sgn == 1 else -d_ex[1])
        if _cs(d1_fl, s_fl, d1_ex, s_ex) >= 0 and _cs(s_fl, d2_fl, s_ex, d2_ex) >= 0:
            return True
    return False


def _exit_edge(S, f, Wfl, Wex, dm_ex, dm_fl, entry_e: Optional[int]) -> int:
    """The unique edge of face f through which the ray from the cone apex in
    direction dm exits (dm strictly inside a vertex-free open cone).

    The entry edge is excluded: a transversal ray meets a convex face in one
    segment, entering through it and leaving through a different edge.
    """
    k = len(S.faces[f])
    for e in range(k):
        if e == entry_e:
            continue
        a_fl, b_fl = Wfl[e], Wfl[(e + 1) % k]
        e_fl = (b_fl[0] - a_fl[0], b_fl[1] - a_fl[1])
        den = dm_fl[0] * e_fl[1] - dm_fl[1] * e_fl[0]
        num_t = a_fl[0] * e_fl[1] - a_fl[1] * e_fl[0]
        num_s = a_fl[0] * dm_fl[1] - a_fl[1] * dm_fl[0]
        scale = (abs(a_fl[0]) + abs(a_fl[1]) + 1.0) * (abs(e_fl[0]) + abs(e_fl[1]) + 1.0)
        if abs(den) > _EPS * scale:
            t = num_t / den
            s = num_s / den
            margin = _EPS * (abs(t) + abs(s) + 1.0)
            if t > margin and margin < s < 1 - margin:
                return e
            if t < -margin or s < -margin or s > 1 + margin:
                continue
        # uncertain: exact decision from the signs of t = cross(a, e)/den,
        # s = cross(a, dm)/den and s - 1 = cross(b, dm)/den
        a_ex, b_ex = Wex(e), Wex((e + 1) % k)
        e_ex = vsub(b_ex, a_ex)
        den = cross(dm_ex, e_ex).sign()
        if den == 0:
            continue
        if (
            cross(a_ex, e_ex).sign() == den
            and cross(a_ex, dm_ex).sign() == den
            and cross(b_ex, dm_ex).sign() == -den
        ):
            return e
    raise RuntimeError("no exit edge found for an open cone")


def _prune_far(Wfl, e, k, d1_fl, d2_fl, L2f) -> bool:
    """Conservative float test: is every point of the beam's exit segment
    farther than the length bound?  (Pruning is only a performance matter;
    returning False is always safe.)"""
    a = Wfl[e]
    b = Wfl[(e + 1) % k]
    ex, ey = b[0] - a[0], b[1] - a[1]
    ee = ex * ex + ey * ey
    lo_s, hi_s = 0.0, 1.0
    params = []
    for d in (d1_fl, d2_fl):
        den = d[0] * ey - d[1] * ex
        if abs(den) > 1e-12:
            params.append((a[0] * d[1] - a[1] * d[0]) / den)
    if len(params) == 2:
        lo_s = max(0.0, min(params) - 1e-9)
        hi_s = min(1.0, max(params) + 1e-9)
        if lo_s > hi_s:
            lo_s, hi_s = 0.0, 1.0
    best = math.inf
    cands = [lo_s, hi_s]
    if ee > 0:
        foot = -(a[0] * ex + a[1] * ey) / ee
        if lo_s < foot < hi_s:
            cands.append(foot)
    for s in cands:
        px, py = a[0] + s * ex, a[1] + s * ey
        best = min(best, px * px + py * py)
    return best > L2f * (1 + 1e-6) + 1e-9


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
