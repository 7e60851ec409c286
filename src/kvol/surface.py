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
is exact.  The module also provides straight-line flow tracing and cylinder
decompositions in a periodic direction.  The oracle of the paper's
subdivision length lemma, which cuts n-gon connections at sector sides, is
kept with the tests, in ``tests/ngon_sectors.py``.

One loop, ``_flow``, steps a straight line across glued edges by its level
cross(v, p) alone: a step compares the level with the face's vertex levels
and adds one level difference at the glue, and builds no point.
Separatrices and cylinder core leaves both follow it.  A cylinder's fields
are exact and read from one closed leaf: separatrix chords cut each convex
face into slabs of their cylinder's width, a mid-level leaf misses every
vertex, and its holonomy is minus the sum of the glue shifts it crosses.
The exact point tracer, which the tests use to trace whole saddle
connections and to check this walk, is kept with them, in
``tests/intersect_oracle.py``.
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
    cross,
    direction_pair,
    dot,
    is_zero_vec,
    norm2,
    same_ray,
    vadd,
    vfloat,
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
    """Column widths and row heights of the staircase model (1-based order).

    With h = n/2, m = floor(n/4) and o = 1 when 4 divides n, else 0, there
    are m + 1 - o columns of width sin((h - 2i + 2 - o) pi/n) and m rows of
    height sin((h - 2j + 1 + o) pi/n).
    """
    if n < 8 or n % 2 != 0:
        raise SurfaceError("staircase model requires even n >= 8")
    h, m, o = n // 2, n // 4, int(n % 4 == 0)
    widths = [trig_value(n, "sin", h - 2 * i + 2 - o) for i in range(1, m + 2 - o)]
    heights = [trig_value(n, "sin", h - 2 * j + 1 + o) for j in range(1, m + 1)]
    return widths, heights


def build_staircase(n: int) -> TranslationSurface:
    """The staircase model: one convex face per column of the rectangle stack.

    One layout rule serves both residues of n mod 4, with o = 1 when 4
    divides n, else 0 (so o = rows + 1 - columns): column i spans rows
    max(i - 1 + o, 1) to min(i + o, rows), row j spans columns
    max(j - o, 1) to min(j + 1 - o, columns), and the cut between columns
    i and i+1 lies in row i + o.  Rows are numbered from the top.  Flat
    (angle pi) corners are kept where a row boundary meets a column side,
    so every glued sub-edge is a whole face edge.  Labels: a{i} for the
    top<->bottom pair of column i, b{j} for the outer right<->left pair of
    row j, c{i} for the interior cut between columns i and i+1.
    """
    widths, heights = staircase_lengths(n)
    ncols, nrows = len(widths), len(heights)
    o = nrows + 1 - ncols
    zero = CycloReal.from_rational(n, 0)

    def rows(i: int) -> tuple[int, int]:  # (top row, bottom row) of column i
        return max(i - 1 + o, 1), min(i + o, nrows)

    def sides(i: int, j: int) -> tuple[int, int]:  # (right, left) edge of column i in row j
        top, bot = rows(i)
        return 1 + bot - j, 3 + bot - top + (j - top)

    x_right = [zero]
    for w in widths:
        x_right.append(x_right[-1] + w)
    y_bottom = [zero] * (nrows + 1)  # y_bottom[j] = bottom level of row j; [0] = top
    for j in range(nrows - 1, -1, -1):
        y_bottom[j] = y_bottom[j + 1] + heights[j]

    # counterclockwise from the bottom left corner: the bottom edge, the
    # right side bottom to top, the top edge, the left side top to bottom
    faces = []
    for i in range(1, ncols + 1):
        top, bot = rows(i)
        xl, xr = x_right[i - 1], x_right[i]
        faces.append(
            [(xl, y_bottom[bot])]
            + [(xr, y_bottom[j]) for j in range(bot, top - 2, -1)]
            + [(xl, y_bottom[j]) for j in range(top - 1, bot)]
        )

    glue: dict[Half, Half] = {}
    labels: dict[Half, str] = {}

    def join(h1: Half, h2: Half, lab: str):
        glue[h1] = h2
        glue[h2] = h1
        labels[h1] = labels[h2] = lab

    for i in range(1, ncols + 1):
        top, bot = rows(i)
        join((i - 1, 0), (i - 1, 2 + bot - top), f"a{i}")
    for j in range(1, nrows + 1):
        lc, rc = max(j - o, 1), min(j + 1 - o, ncols)
        join((rc - 1, sides(rc, j)[0]), (lc - 1, sides(lc, j)[1]), f"b{j}")
    for i in range(1, ncols):
        join((i - 1, sides(i, i + o)[0]), (i, sides(i + 1, i + o)[1]), f"c{i}")

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


def _exit_at_level(f: int, levels: list, level: CycloReal, start: Optional[int] = None) -> tuple:
    """Where the line at ``level`` leaves convex face f in its direction v,
    from the face's vertex levels cross(v, w) alone: ("vertex", j) for the
    vertex j other than ``start`` at ``level``, else ("edge", (f, e)) for
    the one edge whose levels go from below ``level`` to above it.

    The line enters f through the interior of an edge, or leaves vertex
    ``start`` with v strictly inside that corner's wedge, so it meets the
    open face, and by convexity the face in one chord whose inner points
    are inner to the face.  A vertex on the line other than ``start`` is the
    chord's far end.  Otherwise the far end is inner to an edge, and the
    vertices on the two sides of the line form two arcs of the boundary, so
    one edge runs from the right side to the left: the exit, since v leaves
    a counterclockwise face through an edge e with cross(v, e) > 0.
    """
    signs = [(lw - level).sign() for lw in levels]
    for j, s in enumerate(signs):
        if s == 0 and j != start:
            return ("vertex", j)
    k = len(signs)
    for e in range(k):
        if signs[e] < 0 < signs[(e + 1) % k]:
            return ("edge", (f, e))
    raise SurfaceError("line does not cross the face")


# face crossings a trace may make before it gives up
_MAX_TRACE_STEPS = 100000


def _flow(
    S: TranslationSurface,
    f: int,
    level: CycloReal,
    v: Vec2,
    max_length: float,
    levels: dict,
    start: Optional[int] = None,
):
    """Follow the line at ``level`` in direction v from face f across glued
    edges: from vertex ``start`` of f, or from its chord of f when ``start``
    is None.  ``levels`` maps every face to its vertex levels cross(v, w).

    Yields (face, exit, level) for each face crossed, with ``exit`` as from
    ``_exit_at_level`` and ``level`` the line's level in that face, and
    stops after a vertex exit.  A step adds one level difference: the glue
    shift carries the exit edge's first corner onto corner e + 1 of the next
    face, whose edge e is glued to it.  Raises NonPeriodicDirectionError
    once the line has run past ``max_length`` or the step budget without
    reaching a vertex.  The length decides nothing exact and is kept in
    floats, from each edge exit interpolated between the float levels of
    the edge's ends; a line from a chord counts it from its first exit.
    """
    lv = levels[f]
    p = None if start is None else vfloat(S.faces[f][start])
    travelled = 0.0
    for _ in range(_MAX_TRACE_STEPS):
        exit_info = _exit_at_level(f, lv, level, start)
        if exit_info[0] == "vertex":
            yield f, exit_info, level
            return
        half = exit_info[1]
        a, b = half[1], (half[1] + 1) % len(lv)
        t = (float(level) - float(lv[a])) / (float(lv[b]) - float(lv[a]))
        (ax, ay), (bx, by) = vfloat(S.faces[f][a]), vfloat(S.faces[f][b])
        q = (ax + t * (bx - ax), ay + t * (by - ay))
        px, py = q if p is None else p
        travelled += math.hypot(q[0] - px, q[1] - py)
        if travelled > max_length:
            raise NonPeriodicDirectionError(
                f"separatrix exceeded length {max_length:.3g} without closing"
            )
        yield f, exit_info, level
        sx, sy = vfloat(S.glue_shift[half])
        p = (q[0] + sx, q[1] + sy)
        f, e = S.glue[half]
        nxt = levels[f]
        level = level + nxt[(e + 1) % len(nxt)] - lv[a]
        lv, start = nxt, None
    raise NonPeriodicDirectionError("separatrix exceeded the step budget")


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


def cylinder_decomposition(
    S: TranslationSurface, direction=None, *, max_length: Optional[float] = None
) -> list[Cylinder]:
    """Decompose the surface into maximal cylinders in a periodic direction.

    The direction may be given as a co-slope x/y, a vector, or None for
    horizontal.  Raises NonPeriodicDirectionError when some separatrix fails
    to close within the budget (the direction is then not periodic, or the
    budget is too small).  ``max_length`` bounds each separatrix's length
    and must be finite and positive: an infinite or NaN budget would end no
    trace short of the step budget, and a non-positive one would end every
    trace at its first exit; ValueError otherwise.

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
    elif not (math.isfinite(max_length) and max_length > 0):
        raise ValueError(f"max_length must be finite and positive, not {max_length!r}")

    # 1. the singular levels of each face: its vertices and the chords of
    # every separatrix leaving a vertex in direction +v
    vertex_levels = {f: [cross(v, p) for p in verts] for f, verts in enumerate(S.faces)}
    level_sets = [set(vertex_levels[f]) for f in range(len(S.faces))]
    for f, verts in enumerate(S.faces):
        for vi in range(len(verts)):
            if S.direction_in_wedge(f, vi, v):
                level = vertex_levels[f][vi]
                for face, _exit, lp in _flow(S, f, level, v, max_length, vertex_levels, vi):
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
            hol = (zero, zero)
            word: list[str] = []
            # no length budget: the slab check below ends every walk
            for g, exit_info, lp in _flow(S, f, (lo + hi) / 2, v, math.inf, vertex_levels):
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
