"""Translation surfaces built from polygons glued along parallel edges.

Two concrete models are provided for each even n:

* ``build_ngon(n)``   -- the regular n-gon (unit side) with opposite sides
  identified by translation; ``n = 4`` gives the square torus fixture.
* ``build_staircase(n)`` -- the staircase model: an L-shaped stack of
  rectangles whose side lengths are the exact sines sin(k*pi/n); horizontal
  sides are glued top-to-bottom within each column and the exposed vertical
  sides left-to-right within each row.

All coordinates live in the real cyclotomic field Q(Phi), Phi = 2 cos(pi/n),
so every geometric predicate (orientation, incidence, comparisons of lengths)
is exact.  The module also provides straight-line flow tracing, cylinder
decompositions in a periodic direction, the side-transition diagram of a
direction sector, and the subdivision of a segment into unit-length pieces.

One loop, ``_flow``, steps a straight line across glued edges; separatrices
and cylinder core leaves both follow it.  A cylinder's fields are exact and
read from one closed leaf: separatrix chords cut each convex face into slabs
of their cylinder's width, a mid-level leaf misses every vertex, and its
holonomy is minus the sum of the glue shifts it crosses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import CycloReal, as_field, trig_value
from .plane import (
    Mat2,
    Vec2,
    canonical_orientation,
    cross,
    direction_pair,
    dot,
    is_zero_vec,
    norm2,
    same_ray,
    smul,
    vadd,
    vfloat,
    vneg,
    vsub,
)

Half = tuple[int, int]  # (face index, edge index): edge e runs vertex e -> e+1


class SurfaceError(ValueError):
    """Raised when polygon/gluing data does not define a translation surface."""


class NonPeriodicDirectionError(RuntimeError):
    """Raised when a separatrix fails to close up within the length budget."""


def direction_vector(n: int, direction) -> Vec2:
    """The exact vector of a direction label, read by ``plane.direction_pair``:
    a pair (x, y), an exact co-slope x/y (vertical = 0), or one of
    None/"inf"/math.inf for the horizontal direction."""
    x, y = direction_pair(direction)
    return (as_field(n, x), as_field(n, y))


class TranslationSurface:
    """A finite union of convex polygons with edges glued by translation.

    ``faces[f]`` is a counterclockwise list of exact vertices; ``glue`` maps a
    half-edge (f, e) to its partner half-edge, whose edge vector is the exact
    negative; ``labels`` assigns the same name to both halves of a pair.
    Derived combinatorics (edge pairs, vertex classes with their cyclic corner
    order, cone angles, genus) are computed and validated on construction.
    """

    def __init__(
        self,
        n: int,
        model: str,
        faces: Sequence[Sequence[Vec2]],
        glue: dict[Half, Half],
        labels: dict[Half, str],
    ):
        self.n = n
        self.model = model
        self.faces = [list(face) for face in faces]
        self.glue = dict(glue)
        self._validate_faces()
        self._validate_glue(labels)
        self._build_pairs(labels)
        self._build_vertex_classes()

    # -- construction-time validation and derived data -----------------------

    def _validate_faces(self):
        if not self.faces:
            raise SurfaceError("no faces")
        for f, verts in enumerate(self.faces):
            k = len(verts)
            if k < 3:
                raise SurfaceError(f"face {f} has fewer than 3 vertices")
            twice_area = CycloReal.from_rational(self.n, 0)
            for i in range(k):
                a, b = verts[i], verts[(i + 1) % k]
                e = vsub(b, a)
                if is_zero_vec(e):
                    raise SurfaceError(f"face {f} has a zero-length edge at {i}")
                twice_area = twice_area + cross(a, b)
            if twice_area.sign() <= 0:
                raise SurfaceError(f"face {f} is not counterclockwise")
            for i in range(k):
                e1 = vsub(verts[(i + 1) % k], verts[i])
                e2 = vsub(verts[(i + 2) % k], verts[(i + 1) % k])
                c = cross(e1, e2).sign()
                if c < 0 or (c == 0 and dot(e1, e2).sign() <= 0):
                    raise SurfaceError(f"face {f} is not convex at vertex {(i + 1) % k}")

    def _validate_glue(self, labels):
        halves = {(f, e) for f, verts in enumerate(self.faces) for e in range(len(verts))}
        if set(self.glue) != halves:
            raise SurfaceError("gluing must cover every half-edge exactly once")
        for h, h2 in self.glue.items():
            if h2 not in halves or self.glue[h2] != h or h2 == h:
                raise SurfaceError(f"gluing is not a fixed-point-free involution at {h}")
            if not is_zero_vec(vadd(self.edge_vector(h), self.edge_vector(h2))):
                raise SurfaceError(f"glued edges {h} <-> {h2} are not opposite translates")
            if labels.get(h) != labels.get(h2):
                raise SurfaceError(f"inconsistent labels on pair {h} <-> {h2}")

    def _build_pairs(self, labels):
        self.edge_pairs: list[tuple[Half, Half]] = []
        self.pair_of: dict[Half, int] = {}
        self.pair_labels: list[str] = []
        for f, verts in enumerate(self.faces):
            for e in range(len(verts)):
                h = (f, e)
                if h in self.pair_of:
                    continue
                h2 = self.glue[h]
                pid = len(self.edge_pairs)
                self.edge_pairs.append((h, h2))
                self.pair_of[h] = self.pair_of[h2] = pid
                self.pair_labels.append(labels[h])
        if len(set(self.pair_labels)) != len(self.pair_labels):
            raise SurfaceError("edge-pair labels must be distinct")
        self._build_glue_shift()

    def _build_glue_shift(self):
        # crossing out through h, a point p in the source face lands at p + shift
        self.glue_shift: dict[Half, Vec2] = {}
        for h, h2 in self.glue.items():
            f2, e2 = h2
            b2 = self.faces[f2][(e2 + 1) % len(self.faces[f2])]
            a1 = self.faces[h[0]][h[1]]
            self.glue_shift[h] = vsub(b2, a1)

    def _build_vertex_classes(self):
        corners = [(f, v) for f, verts in enumerate(self.faces) for v in range(len(verts))]
        seen: set[tuple[int, int]] = set()
        self.vertex_classes: list[list[tuple[int, int]]] = []
        self.corner_class: dict[tuple[int, int], tuple[int, int]] = {}
        for start in corners:
            if start in seen:
                continue
            cyc = []
            cur = start
            while True:
                cyc.append(cur)
                seen.add(cur)
                cur = self._next_corner(cur)
                if cur == start:
                    break
                if cur in seen:
                    raise SurfaceError("corner chasing did not close into a cycle")
            cid = len(self.vertex_classes)
            self.vertex_classes.append(cyc)
            for pos, c in enumerate(cyc):
                self.corner_class[c] = (cid, pos)
        # consecutive corners of a class share a ray, so their half-open
        # wedges [ra, rb) wind k times around the cone point and hold any
        # one direction, here (1, 0), exactly k times
        east = direction_vector(self.n, None)
        self.cone_multiples = [
            sum(
                same_ray(self.wedge_rays(f, v)[0], east) or self.direction_in_wedge(f, v, east)
                for f, v in cyc
            )
            for cyc in self.vertex_classes
        ]
        chi = len(self.vertex_classes) - len(self.edge_pairs) + len(self.faces)
        if chi % 2 != 0:
            raise SurfaceError("odd Euler characteristic")
        self.genus = (2 - chi) // 2
        if sum(k - 1 for k in self.cone_multiples) != 2 * self.genus - 2:
            raise SurfaceError("cone angles violate Gauss-Bonnet")

    def _next_corner(self, corner: tuple[int, int]) -> tuple[int, int]:
        """The next corner counterclockwise around the same surface vertex."""
        f, v = corner
        k = len(self.faces[f])
        return self.glue[(f, (v - 1) % k)]

    # -- basic queries --------------------------------------------------------

    def edge_vector(self, h: Half) -> Vec2:
        f, e = h
        verts = self.faces[f]
        return vsub(verts[(e + 1) % len(verts)], verts[e])

    def wedge_rays(self, f: int, v: int) -> tuple[Vec2, Vec2]:
        """Boundary rays of the corner wedge at (f, v), counterclockwise order.

        The first ray points along the outgoing edge (f, v); the second along
        the reversed incoming edge (f, v-1).
        """
        verts = self.faces[f]
        k = len(verts)
        ra = vsub(verts[(v + 1) % k], verts[v])
        rb = vsub(verts[(v - 1) % k], verts[v])
        return ra, rb

    def direction_in_wedge(self, f: int, v: int, d: Vec2) -> bool:
        """True if d points strictly inside the corner wedge at (f, v).

        Faces are convex, so a wedge spans at most pi (exactly pi at a flat
        corner) and d is inside iff it lies strictly left of the first ray
        and strictly right of the second; d on either ray is outside.
        """
        ra, rb = self.wedge_rays(f, v)
        return cross(ra, d).sign() > 0 and cross(d, rb).sign() > 0

    def area(self) -> CycloReal:
        total = CycloReal.from_rational(self.n, 0)
        for verts in self.faces:
            k = len(verts)
            for i in range(k):
                total = total + cross(verts[i], verts[(i + 1) % k])
        return total / 2

    # -- transforms and serialization ----------------------------------------

    def transform(self, M: Mat2) -> "TranslationSurface":
        """Apply a nonsingular linear map to every polygon.

        A map with det > 0 keeps convex counterclockwise faces and opposite
        translates, so the image shares this surface's combinatorics and only
        its faces and glue shifts are computed.  Orientation-reversing maps
        reverse each face's vertex cycle so the result is again
        counterclockwise, and build through the validating constructor.
        """
        sign = M.det().sign()
        if sign == 0:
            raise ValueError("transform matrix is singular")
        if sign > 0:
            T = object.__new__(TranslationSurface)
            T.n, T.model, T.glue, T.genus = self.n, self.model, self.glue, self.genus
            T.edge_pairs, T.pair_of, T.pair_labels = self.edge_pairs, self.pair_of, self.pair_labels
            T.vertex_classes, T.corner_class = self.vertex_classes, self.corner_class
            T.cone_multiples = self.cone_multiples
            T.faces = [[M.apply(p) for p in verts] for verts in self.faces]
            T._build_glue_shift()
            return T
        faces = [[M.apply(p) for p in reversed(verts)] for verts in self.faces]

        def remap(h: Half) -> Half:
            f, e = h
            k = len(self.faces[f])
            return (f, (k - 2 - e) % k)

        glue = {}
        labels = {}
        for h, h2 in self.glue.items():
            glue[remap(h)] = remap(h2)
            labels[remap(h)] = self.pair_labels[self.pair_of[h]]
        return TranslationSurface(self.n, self.model, faces, glue, labels)

    def to_dict(self) -> dict:
        """The JSON description that ``kvol surface`` prints: exact vertices
        per face, each edge pair as ``[f1, e1, f2, e2]``, the vertex classes
        as ``[face, vertex]`` corners and the pair labels."""
        return {
            "n": self.n,
            "model": self.model,
            "faces": [
                {"vertices": [[x.to_dict(), y.to_dict()] for x, y in verts]}
                for verts in self.faces
            ],
            "gluings": [[*h1, *h2] for h1, h2 in self.edge_pairs],
            "singularities": [[list(corner) for corner in cyc] for cyc in self.vertex_classes],
            "labels": list(self.pair_labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TranslationSurface":
        """Read ``to_dict`` output back; the singularities are derived again."""
        faces = [
            [(CycloReal.from_dict(x), CycloReal.from_dict(y)) for x, y in face["vertices"]]
            for face in data["faces"]
        ]
        glue: dict[Half, Half] = {}
        labels: dict[Half, str] = {}
        for (f1, e1, f2, e2), lab in zip(data["gluings"], data["labels"]):
            h1, h2 = (f1, e1), (f2, e2)
            glue[h1] = h2
            glue[h2] = h1
            labels[h1] = labels[h2] = lab
        return cls(int(data["n"]), data["model"], faces, glue, labels)

    def __repr__(self):
        sing = ", ".join(f"{k}*2pi" for k in self.cone_multiples)
        return (
            f"TranslationSurface(n={self.n}, model={self.model!r}, faces={len(self.faces)}, "
            f"pairs={len(self.edge_pairs)}, genus={self.genus}, cone angles [{sing}])"
        )


# -- builders ----------------------------------------------------------------


def build_ngon(n: int) -> TranslationSurface:
    """The regular n-gon with unit sides, opposite sides glued by translation.

    n must be even and >= 4.  Side j runs at angle j*(2 pi/n) from horizontal
    side 0 and is glued to side j + n/2; the shared label is e_{(j+1) mod n/2}.
    """
    if n < 4 or n % 2 != 0:
        raise SurfaceError("n-gon model requires even n >= 4")
    r_inv = trig_value(n, "sin", 1) * 2  # 1 / circumradius
    verts = []
    for j in range(n):
        verts.append(
            (
                trig_value(n, "sin", 2 * j - 1) / r_inv,
                -trig_value(n, "cos", 2 * j - 1) / r_inv,
            )
        )
    glue: dict[Half, Half] = {}
    labels: dict[Half, str] = {}
    half = n // 2
    for j in range(half):
        h1, h2 = (0, j), (0, j + half)
        glue[h1] = h2
        glue[h2] = h1
        labels[h1] = labels[h2] = f"e{(j + 1) % half}"
    return TranslationSurface(n, "ngon", [verts], glue, labels)


def staircase_lengths(n: int) -> tuple[list[CycloReal], list[CycloReal]]:
    """Column widths and row heights of the staircase model (1-based order)."""
    if n < 8 or n % 2 != 0:
        raise SurfaceError("staircase model requires even n >= 8")
    h = n // 2
    if n % 4 == 0:
        m = n // 4
        widths = [trig_value(n, "sin", h - 2 * i + 1) for i in range(1, m + 1)]
        heights = [trig_value(n, "sin", h - 2 * j + 2) for j in range(1, m + 1)]
    else:
        m = (n - 2) // 4
        widths = [trig_value(n, "sin", h - 2 * i + 2) for i in range(1, m + 2)]
        heights = [trig_value(n, "sin", h - 2 * j + 1) for j in range(1, m + 1)]
    return widths, heights


def build_staircase(n: int) -> TranslationSurface:
    """The staircase model: one convex face per column of the rectangle stack.

    Column i covers one or two rows; flat (angle pi) corners are kept where a
    row boundary meets a column side, so every glued sub-edge is a whole face
    edge.  Labels: a{i} for the top<->bottom pair of column i, b{j} for the
    outer right<->left pair of row j, c{i} for the interior cut between
    columns i and i+1.
    """
    widths, heights = staircase_lengths(n)
    ncols, nrows = len(widths), len(heights)
    zero = CycloReal.from_rational(n, 0)

    if n % 4 == 0:
        def col_rows(i: int) -> tuple[int, int]:  # (top row, bottom row)
            return i, min(i + 1, nrows)

        def row_cols(j: int) -> tuple[int, int]:  # (leftmost col, rightmost col)
            return max(j - 1, 1), min(j, ncols)

        def cut_row(i: int) -> int:  # row shared by columns i and i+1
            return i + 1
    else:
        def col_rows(i: int) -> tuple[int, int]:
            return max(i - 1, 1), min(i, nrows)

        def row_cols(j: int) -> tuple[int, int]:
            return j, j + 1

        def cut_row(i: int) -> int:
            return i

    x_right = [zero]
    for w in widths:
        x_right.append(x_right[-1] + w)
    y_bottom = [zero] * (nrows + 1)  # y_bottom[j] = bottom level of row j; [0] = top
    for j in range(nrows - 1, -1, -1):
        y_bottom[j] = y_bottom[j + 1] + heights[j]

    faces = []
    right_edge: dict[tuple[int, int], int] = {}
    left_edge: dict[tuple[int, int], int] = {}
    top_edge: dict[int, int] = {}
    for i in range(1, ncols + 1):
        top, bot = col_rows(i)
        xl, xr = x_right[i - 1], x_right[i]
        verts = [(xl, y_bottom[bot]), (xr, y_bottom[bot])]
        for j in range(bot, top - 1, -1):  # right side, bottom to top
            right_edge[(i, j)] = len(verts) - 1
            verts.append((xr, y_bottom[j - 1]))
        top_edge[i] = len(verts) - 1
        verts.append((xl, y_bottom[top - 1]))
        for j in range(top, bot + 1):  # left side, top to bottom
            left_edge[(i, j)] = len(verts) - 1
            if j < bot:
                verts.append((xl, y_bottom[j]))
        faces.append(verts)

    glue: dict[Half, Half] = {}
    labels: dict[Half, str] = {}

    def join(h1: Half, h2: Half, lab: str):
        glue[h1] = h2
        glue[h2] = h1
        labels[h1] = labels[h2] = lab

    for i in range(1, ncols + 1):
        join((i - 1, 0), (i - 1, top_edge[i]), f"a{i}")
    for j in range(1, nrows + 1):
        lc, rc = row_cols(j)
        join((rc - 1, right_edge[(rc, j)]), (lc - 1, left_edge[(lc, j)]), f"b{j}")
    for i in range(1, ncols):
        j = cut_row(i)
        join((i - 1, right_edge[(i, j)]), (i, left_edge[(i + 1, j)]), f"c{i}")

    return TranslationSurface(n, "staircase", faces, glue, labels)


def conversion_matrix(n: int) -> Mat2:
    """The linear map carrying the n-gon model onto the staircase model.

    Exact, with determinant sin(pi/n); divide by sqrt(det) for the area-
    preserving representative.
    """
    return Mat2(
        n,
        trig_value(n, "sin", 1),
        -trig_value(n, "sin", n // 2 - 1),
        0,
        1,
    )


def veech_generators(n: int) -> dict[str, Mat2]:
    """Generators of the staircase model's affine symmetries: the horizontal
    and vertical shears by Phi and the reflection diag(1, -1)."""
    phi = CycloReal.phi(n)
    return {
        "TH": Mat2(n, 1, phi, 0, 1),
        "TV": Mat2(n, 1, 0, phi, 1),
        "R": Mat2(n, 1, 0, 0, -1),
    }


# -- straight-line tracing ----------------------------------------------------


def exit_through_face(
    S: TranslationSurface,
    f: int,
    p: Vec2,
    v: Vec2,
    levels: Optional[list] = None,
    lp: Optional[CycloReal] = None,
) -> tuple[Vec2, tuple]:
    """Follow the ray p + t v (t > 0) inside convex face f to the boundary.

    Returns (q, ("vertex", vi)) when the ray leaves at a corner, else
    (q, ("edge", (f, e))).  A ray from a corner along the boundary stops at
    the next corner it reaches, also at a straight-angle corner between two
    collinear edges.

    Every decision is a sign of ``cross(v, w - p)``, the side of the line
    that a vertex w lies on: the difference of the vertex level cross(v, w)
    and the level cross(v, p).  ``levels`` holds the face's vertex levels,
    which a caller stepping one direction through many faces computes once
    per face; without it they are computed here, as is the level ``lp`` of
    p when it is not given.  The face is convex, so
    the line meets it in one segment and every vertex on the line lies on
    that segment: the nearest one ahead of p, if any, is the exit.
    Otherwise the line leaves through the one edge (a, b) that runs from
    its right side to its left, and the exit point costs the only division.
    """
    verts = S.faces[f]
    if levels is None:
        levels = [cross(v, w) for w in verts]
    if lp is None:
        lp = cross(v, p)
    signs = [(lw - lp).sign() for lw in levels]
    best = None  # (dot(w - p, v), vi) of the nearest vertex ahead on the line
    for vi, w in enumerate(verts):
        if signs[vi] == 0:
            t = dot(vsub(w, p), v)
            if t.sign() > 0 and (best is None or t < best[0]):
                best = (t, vi)
    if best is not None:
        return verts[best[1]], ("vertex", best[1])
    k = len(verts)
    for e in range(k):
        b = (e + 1) % k
        if signs[e] < 0 < signs[b]:
            a, edge = verts[e], vsub(verts[b], verts[e])
            num = cross(edge, vsub(p, a))
            if num.sign() <= 0:
                break  # p is on or beyond the exit edge
            # cross(v, edge) is the level difference of the edge's ends
            return vadd(p, smul(num / (levels[b] - levels[e]), v)), ("edge", (f, e))
    raise SurfaceError("ray does not enter the face interior")


@dataclass
class Trace:
    """A straight-line path across faces: pieces are (face, p_in, p_out)."""

    pieces: list[tuple[int, Vec2, Vec2]]
    crossings: list[tuple[int, Half, Vec2]]  # (pair id, exited half, developed point)
    end: tuple  # ("vertex", (face, vi))


# face crossings a trace may make before it gives up
_MAX_TRACE_STEPS = 100000


def _flow(
    S: TranslationSurface,
    f: int,
    p: Vec2,
    v: Vec2,
    max_length: float,
    levels: Optional[dict] = None,
):
    """Follow the ray from p in face f in direction v across glued edges.

    Yields (face, p_in, p_out, exit_info, level) for each face crossed, with
    ``exit_info`` as from ``exit_through_face`` and ``level`` the level
    cross(v, p_in), and stops after a piece that ends at a vertex.  Raises
    NonPeriodicDirectionError once the ray has run past ``max_length`` or
    the step budget without reaching a vertex.

    ``levels`` maps a face to its vertex levels cross(v, w); it is filled on
    first entry to a face, and a caller flowing several rays in direction v
    passes one dict to all of them.  Only the first level is a product: the
    exit point q has the level of p, and the glue shift carries the exit
    edge's first corner onto corner e + 1 of the next face, whose edge e is
    glued to it, so crossing adds the difference of those two vertex levels.
    """
    if levels is None:
        levels = {}

    def face_levels(g: int) -> list:
        if g not in levels:
            levels[g] = [cross(v, w) for w in S.faces[g]]
        return levels[g]

    lv, lp = face_levels(f), cross(v, p)
    travelled = 0.0
    for _ in range(_MAX_TRACE_STEPS):
        q, exit_info = exit_through_face(S, f, p, v, lv, lp)
        travelled += math.hypot(*vfloat(vsub(q, p)))
        if exit_info[0] == "edge" and travelled > max_length:
            raise NonPeriodicDirectionError(
                f"separatrix exceeded length {max_length:.3g} without closing"
            )
        yield f, p, q, exit_info, lp
        if exit_info[0] == "vertex":
            return
        half = exit_info[1]
        f, e = S.glue[half]
        nxt = face_levels(f)
        lp = lp + nxt[(e + 1) % len(nxt)] - lv[half[1]]
        lv = nxt
        p = vadd(q, S.glue_shift[half])
    raise NonPeriodicDirectionError("separatrix exceeded the step budget")


def trace_from_corner(
    S: TranslationSurface,
    f: int,
    vi: int,
    v: Vec2,
    *,
    max_length: float,
) -> Trace:
    """Trace the separatrix leaving corner (f, vi) in direction v until it
    hits a vertex; raises NonPeriodicDirectionError past the length budget."""
    tau = vneg(S.faces[f][vi])  # developed point = face point + tau
    pieces: list[tuple[int, Vec2, Vec2]] = []
    crossings: list[tuple[int, Half, Vec2]] = []
    for face, p, q, exit_info, _level in _flow(S, f, S.faces[f][vi], v, max_length):
        pieces.append((face, p, q))
        if exit_info[0] == "vertex":
            return Trace(pieces, crossings, ("vertex", (face, exit_info[1])))
        half = exit_info[1]
        crossings.append((S.pair_of[half], half, vadd(q, tau)))
        tau = vsub(tau, S.glue_shift[half])


# -- cylinder decomposition ---------------------------------------------------


@dataclass
class Cylinder:
    """A maximal flat cylinder in a periodic direction.

    Circumference and height are kept as exact squares; the modulus
    circumference/height is exact in the field.
    """

    direction: Vec2
    area: CycloReal
    circumference_sq: CycloReal
    height_sq: CycloReal
    modulus: CycloReal
    core_word: tuple[str, ...]
    n_polygons: int


def _point_at_level(a: Vec2, b: Vec2, la: CycloReal, lb: CycloReal, c: CycloReal) -> Vec2:
    """The point of segment ab at level c, for ends a and b at the different
    levels la and lb: levels are linear along a segment."""
    return vadd(a, smul((c - la) / (lb - la), vsub(b, a)))


def _chord_midpoint(verts: Sequence[Vec2], levels: list, c: CycloReal) -> Vec2:
    """The midpoint of a convex face's chord at level c, a level strictly
    between the face's vertex levels and equal to none."""
    ends = []
    k = len(verts)
    for i in range(k):
        j = (i + 1) % k
        if (levels[i] < c) != (levels[j] < c):
            ends.append(_point_at_level(verts[i], verts[j], levels[i], levels[j], c))
    x, y = vadd(*ends)
    return (x / 2, y / 2)


def cylinder_decomposition(
    S: TranslationSurface, direction=None, *, max_length: Optional[float] = None
) -> list[Cylinder]:
    """Decompose the surface into maximal cylinders in a periodic direction.

    The direction may be given as a co-slope x/y, a vector, or None for
    horizontal.  Raises NonPeriodicDirectionError when some separatrix fails
    to close within the budget (the direction is then not periodic, or the
    budget is too small).

    Every field is exact.  The level of a point p is cross(v, p).  Faces are
    convex, so a separatrix chord spans the whole level segment of its face,
    and the singular levels of a face (its vertices' and its chords') cut it
    into slabs that each run across one cylinder from boundary to boundary:
    every slab of a cylinder has the cylinder's level width hi - lo.  The
    leaf at a slab's mid-level avoids every vertex, since vertices lie on
    singular levels only, and closes after crossing each slab of its
    cylinder once.  Its holonomy hol is minus the sum of the glue shifts it
    crosses, and hol = lambda * v with lambda > 0, so the circumference
    squared is |hol|^2 and the area is lambda * (hi - lo).
    """
    v = direction_vector(S.n, direction)
    if max_length is None:
        max_length = 64.0 * sum(math.hypot(*vfloat(S.edge_vector(h))) for h in S.glue)

    # 1. the singular levels of each face: its vertices and the chords of
    # every separatrix leaving a vertex in direction +v
    vertex_levels = {f: [cross(v, p) for p in verts] for f, verts in enumerate(S.faces)}
    level_sets = [set(vertex_levels[f]) for f in range(len(S.faces))]
    for f, verts in enumerate(S.faces):
        for vi in range(len(verts)):
            if S.direction_in_wedge(f, vi, v):
                for face, _p, _q, _exit, lp in _flow(S, f, verts[vi], v, max_length, vertex_levels):
                    level_sets[face].add(lp)
    levels = [sorted(ls) for ls in level_sets]

    # 2. one closed leaf per cylinder; slab (f, j) lies between levels[f][j-1]
    # and levels[f][j]
    zero = CycloReal.from_rational(S.n, 0)
    seen: set[tuple[int, int]] = set()
    cylinders = []
    for f, ls in enumerate(levels):
        for j in range(1, len(ls)):
            if (f, j) in seen:
                continue
            lo, hi = ls[j - 1], ls[j]
            start = _chord_midpoint(S.faces[f], vertex_levels[f], (lo + hi) / 2)
            hol = (zero, zero)
            word: list[str] = []
            # no length budget: the slab check below ends every walk
            for g, _p, _q, exit_info, lp in _flow(S, f, start, v, math.inf, vertex_levels):
                slab = (g, bisect.bisect(levels[g], lp))
                if slab == (f, j) and word:
                    break
                if slab in seen or exit_info[0] == "vertex":
                    raise SurfaceError("cylinder leaf does not close")
                seen.add(slab)
                half = exit_info[1]
                word.append(S.pair_labels[S.pair_of[half]])
                hol = vsub(hol, S.glue_shift[half])
            area = dot(hol, v) / norm2(v) * (hi - lo)
            circ_sq = norm2(hol)
            modulus = circ_sq / area
            core = min(tuple(word[i:] + word[:i]) for i in range(len(word)))
            cylinders.append(Cylinder(v, area, circ_sq, area / modulus, modulus, core, len(word)))
    cylinders.sort(key=lambda c: (float(c.modulus), float(c.area), c.core_word))
    return cylinders


# -- direction sectors and the side-transition diagram ------------------------


def sector_index(n: int, direction) -> Optional[int]:
    """Index i with the direction strictly inside (i pi/n, (i+1) pi/n) mod pi.

    Returns None when the direction lies on a sector boundary (i.e. is
    parallel to a side or diagonal of the n-gon).
    """
    v = direction_vector(n, direction)
    if not canonical_orientation(v):
        v = vneg(v)
    for k in range(n):
        uk = (trig_value(n, "cos", k), trig_value(n, "sin", k))
        if cross(uk, v).is_zero():
            return None
    for k in range(n):
        uk = (trig_value(n, "cos", k), trig_value(n, "sin", k))
        uk1 = (trig_value(n, "cos", k + 1), trig_value(n, "sin", k + 1))
        if cross(uk, v).sign() > 0 and cross(v, uk1).sign() > 0:
            return k
    raise SurfaceError("direction escaped every sector")  # pragma: no cover


@dataclass
class SectorDiagram:
    """Transition diagram of side labels for directions in one sector.

    ``order`` lists the n/2 side labels (integers k naming label e_k) along
    the path; ``order[0]`` is the sandwiched side, whose neighbours in any
    crossing sequence are always copies of ``order[1]``; the final label
    carries the self-loop.
    """

    n: int
    sector: int
    order: tuple[int, ...]

    @property
    def sandwiched(self) -> int:
        return self.order[0]


def sector_diagram(n: int, sector) -> SectorDiagram:
    """Compute the consecutive-crossing diagram for a sector of directions.

    ``sector`` is either the index i of the sector (i pi/n, (i+1) pi/n) or a
    direction strictly inside one.

    The level of a point p is cross(d, p).  Rays in direction d that enter
    through one side change their exit side only where they pass a vertex,
    so the breakpoints on the entry side are the vertex levels strictly
    between the side's two end levels.  The n-gon is strictly convex, so
    every such vertex lies ahead of the entry side, and one ray at the
    mid-level of each gap between breakpoints finds that gap's exit side.
    """
    if isinstance(sector, int) and not isinstance(sector, bool):
        i = sector % n
    else:
        i = sector_index(n, sector)
        if i is None:
            raise ValueError("direction lies on a sector boundary")
    S = build_ngon(n)
    verts = S.faces[0]
    half = n // 2
    d = vadd(
        (trig_value(n, "cos", i), trig_value(n, "sin", i)),
        (trig_value(n, "cos", i + 1), trig_value(n, "sin", i + 1)),
    )

    def label(side: int) -> int:
        return (side + 1) % half

    levels = [cross(d, w) for w in verts]
    adj: dict[int, set[int]] = {label(s): set() for s in range(half)}
    for exit_side in range(n):
        # cross(d, side vector) is the level difference of the side's ends
        if (levels[(exit_side + 1) % n] - levels[exit_side]).sign() <= 0:
            continue  # rays in direction d never exit through this side
        entry = (exit_side + half) % n
        b = (entry + 1) % n
        ea, eb, la, lb = verts[entry], verts[b], levels[entry], levels[b]
        # breakpoints: the vertex levels strictly between the entry side's ends
        lo, hi = sorted((la, lb))
        cuts = sorted({lo, hi} | {c for c in levels if lo < c < hi})
        for c0, c1 in zip(cuts, cuts[1:]):
            p = _point_at_level(ea, eb, la, lb, (c0 + c1) / 2)
            _q, exit_info = exit_through_face(S, 0, p, d, levels)
            if exit_info[0] != "edge":
                raise SurfaceError("sector diagram ray hit a vertex")
            adj[label(entry)].add(label(exit_info[1][1]))

    # undirected view with self-loops; must be a path with a loop at one end
    nodes = list(range(half))
    und: dict[int, set[int]] = {a: set() for a in nodes}
    loops = set()
    for a, outs in adj.items():
        for b in outs:
            if a == b:
                loops.add(a)
            else:
                und[a].add(b)
                und[b].add(a)
    ends = [a for a in nodes if len(und[a]) == 1]
    if len(loops) != 1 or len(ends) != 2:
        raise SurfaceError("transition diagram is not a terminal-loop path")
    start = next(a for a in ends if a not in loops)
    order = [start]
    prev = None
    while len(order) < half:
        nxt = [b for b in und[order[-1]] if b != prev]
        if len(nxt) != 1:
            raise SurfaceError("transition diagram is not a path")
        prev = order[-1]
        order.append(nxt[0])
    if order[-1] not in loops:
        raise SurfaceError("self-loop is not at the terminal side")
    return SectorDiagram(n, i, tuple(order))


# -- subdivision of a segment into unit pieces ---------------------------------


@dataclass
class SubSegment:
    """One piece of a segment cut at its non-sandwiched side crossings."""

    kind: str  # "initial", "terminal", "initial+terminal", "sandwiched", "plain"
    length_sq: CycloReal
    labels: tuple[int, ...]  # side labels crossed strictly inside the piece

    @property
    def length(self) -> float:
        return math.sqrt(float(self.length_sq))


def subdivide(sc) -> list[SubSegment]:
    """Cut an n-gon saddle connection at its crossings with non-sandwiched
    sides.  Every piece has length >= the side length, with equality only for
    a side; pieces between consecutive cuts contain at most one (sandwiched)
    crossing."""
    S = sc.surface
    if S.model != "ngon":
        raise ValueError("subdivision applies to the n-gon model")
    n = S.n
    half = n // 2
    hol = sc.holonomy
    i = sector_index(n, hol)
    crossings = list(sc.crossings)
    if i is None:
        if crossings:
            raise SurfaceError("side-parallel segment with transversal crossings")
        return [SubSegment("initial+terminal", norm2(hol), ())]
    diagram = sector_diagram(n, i)
    sandwiched = diagram.sandwiched

    def lab(pid: int) -> int:
        return int(S.pair_labels[pid][1:])

    zero = (CycloReal.from_rational(n, 0), CycloReal.from_rational(n, 0))
    points = [zero]
    inside: list[list[int]] = [[]]
    for pid, _half, dev in crossings:
        if lab(pid) == sandwiched:
            inside[-1].append(sandwiched)
        else:
            points.append(dev)
            inside.append([])
    points.append(hol)
    out = []
    for idx in range(len(points) - 1):
        seg = vsub(points[idx + 1], points[idx])
        if idx == 0 and idx == len(points) - 2:
            kind = "initial+terminal"
        elif idx == 0:
            kind = "initial"
        elif idx == len(points) - 2:
            kind = "terminal"
        elif len(inside[idx]) == 1:
            kind = "sandwiched"
        elif len(inside[idx]) == 0:
            kind = "plain"
        else:
            raise SurfaceError("piece crosses the sandwiched side twice")
        out.append(SubSegment(kind, norm2(seg), tuple(inside[idx])))
    return out
