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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import CycloReal, trig_value
from .plane import (
    Mat2,
    Vec2,
    canonical_orientation,
    cross,
    direction_pair,
    dot,
    is_zero_vec,
    line_intersection,
    norm2,
    parallel,
    same_ray,
    smul,
    vadd,
    vfloat,
    vneg,
    vsub,
)

Half = tuple[int, int]  # (face index, edge index): edge e runs vertex e -> e+1

TWO_PI = 2.0 * math.pi


class SurfaceError(ValueError):
    """Raised when polygon/gluing data does not define a translation surface."""


class NonPeriodicDirectionError(RuntimeError):
    """Raised when a separatrix fails to close up within the length budget."""


def _as_field(n: int, value) -> CycloReal:
    if isinstance(value, CycloReal):
        if value.n != n:
            raise ValueError(f"field mismatch: n={value.n} vs n={n}")
        return value
    return CycloReal.from_rational(n, value)


def direction_vector(n: int, direction) -> Vec2:
    """The exact vector of a direction label, read by ``plane.direction_pair``:
    a pair (x, y), an exact co-slope x/y (vertical = 0), or one of
    None/"inf"/math.inf for the horizontal direction."""
    x, y = direction_pair(direction)
    return (_as_field(n, x), _as_field(n, y))


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
        self.pair_by_label = {lab: pid for pid, lab in enumerate(self.pair_labels)}
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
        self.cone_multiples: list[int] = []
        for cyc in self.vertex_classes:
            total = sum(self.corner_angle(f, v) for f, v in cyc)
            k = round(total / TWO_PI)
            if k < 1 or abs(total - TWO_PI * k) > 1e-9:
                raise SurfaceError(f"cone angle {total} is not a multiple of 2*pi")
            self.cone_multiples.append(k)
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

    def edge_endpoints(self, h: Half) -> tuple[Vec2, Vec2]:
        f, e = h
        verts = self.faces[f]
        return verts[e], verts[(e + 1) % len(verts)]

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

    def corner_angle(self, f: int, v: int) -> float:
        ra, rb = self.wedge_rays(f, v)
        ang = math.atan2(float(cross(ra, rb)), float(dot(ra, rb)))
        return ang if ang > 0 else ang + TWO_PI

    def direction_in_wedge(self, f: int, v: int, d: Vec2) -> bool:
        """True if d points strictly inside the corner wedge at (f, v)."""
        ra, rb = self.wedge_rays(f, v)
        ang = self.corner_angle(f, v)
        if ang <= math.pi + 1e-12:
            return cross(ra, d).sign() > 0 and cross(d, rb).sign() > 0
        # reflex wedge (> pi): inside iff not in the complementary convex wedge
        if cross(ra, d).sign() > 0 and cross(d, rb).sign() > 0:
            return True
        return not (cross(rb, d).sign() >= 0 and cross(d, ra).sign() >= 0)

    def area(self) -> CycloReal:
        total = CycloReal.from_rational(self.n, 0)
        for verts in self.faces:
            k = len(verts)
            for i in range(k):
                total = total + cross(verts[i], verts[(i + 1) % k])
        return total / 2

    def singularities(self) -> list[dict]:
        out = []
        for cid, cyc in enumerate(self.vertex_classes):
            out.append(
                {
                    "class": cid,
                    "corners": len(cyc),
                    "angle_multiple": self.cone_multiples[cid],
                    "marked": self.cone_multiples[cid] == 1,
                }
            )
        return out

    # -- transforms and serialization ----------------------------------------

    def transform(self, M: Mat2) -> "TranslationSurface":
        """Apply a nonsingular linear map to every polygon.

        Orientation-reversing maps are supported by reversing each face's
        vertex cycle so the result is again counterclockwise.
        """
        sign = M.det().sign()
        if sign == 0:
            raise ValueError("transform matrix is singular")
        if sign > 0:
            faces = [[M.apply(p) for p in verts] for verts in self.faces]
            glue = dict(self.glue)
            labels = {h: self.pair_labels[pid] for h, pid in self.pair_of.items()}
        else:
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
    S: TranslationSurface, f: int, p: Vec2, v: Vec2
) -> tuple[Vec2, tuple]:
    """Follow the ray p + t v (t > 0) inside convex face f to the boundary.

    Returns (q, ("vertex", vi)) when the ray leaves at a corner, else
    (q, ("edge", (f, e), s)) with s the exact open-edge parameter.  A ray
    from a corner along the boundary stops at the next corner it reaches,
    also at a straight-angle corner between two collinear edges.
    """
    verts = S.faces[f]
    k = len(verts)
    best = None  # (t, exit)
    for e in range(k):
        a, b = verts[e], verts[(e + 1) % k]
        res = line_intersection(p, v, a, vsub(b, a))
        if res is None:
            if cross(vsub(a, p), v).is_zero():
                for vi, q in ((e, a), ((e + 1) % k, b)):
                    t = dot(vsub(q, p), v) / norm2(v)
                    if t.sign() > 0 and (best is None or t < best[0]):
                        best = (t, ("vertex", vi))
            continue
        t, s = res
        if t.sign() <= 0:
            continue
        ss, s1 = s.sign(), (s - 1).sign()
        if ss < 0 or s1 > 0:
            continue
        if best is None or t < best[0]:
            if ss == 0:
                best = (t, ("vertex", e))
            elif s1 == 0:
                best = (t, ("vertex", (e + 1) % k))
            else:
                best = (t, ("edge", (f, e), s))
    if best is None:
        raise SurfaceError("ray does not enter the face interior")
    t, exit_info = best
    return vadd(p, smul(t, v)), exit_info


@dataclass
class Trace:
    """A straight-line path across faces: pieces are (face, p_in, p_out)."""

    pieces: list[tuple[int, Vec2, Vec2]]
    crossings: list[tuple[int, Half, Vec2]]  # (pair id, exited half, developed point)
    end: tuple  # ("vertex", (face, vi))


# face crossings a separatrix may make before trace_from_corner gives up
_MAX_TRACE_STEPS = 100000


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
    p = S.faces[f][vi]
    tau = vneg(p)  # developed point = face point + tau
    pieces: list[tuple[int, Vec2, Vec2]] = []
    crossings: list[tuple[int, Half, Vec2]] = []
    travelled = 0.0
    for _ in range(_MAX_TRACE_STEPS):
        q, exit_info = exit_through_face(S, f, p, v)
        pieces.append((f, p, q))
        dq = vfloat(vsub(q, p))
        travelled += math.hypot(*dq)
        if exit_info[0] == "vertex":
            return Trace(pieces, crossings, ("vertex", (f, exit_info[1])))
        if travelled > max_length:
            raise NonPeriodicDirectionError(
                f"separatrix exceeded length {max_length:.3g} without closing"
            )
        _, half, _s = exit_info
        crossings.append((S.pair_of[half], half, vadd(q, tau)))
        f2, _e2 = S.glue[half]
        shift = S.glue_shift[half]
        p = vadd(q, shift)
        tau = vsub(tau, shift)
        f = f2
    raise NonPeriodicDirectionError("separatrix exceeded the step budget")


# -- cylinder decomposition ---------------------------------------------------


@dataclass
class Cylinder:
    """A maximal flat cylinder in a periodic direction.

    Circumference and height are reported as floats alongside their exact
    squares; the modulus circumference/height is exact in the field.
    """

    direction: Vec2
    area: CycloReal
    circumference_sq: CycloReal
    height_sq: CycloReal
    modulus: CycloReal
    core_word: tuple[str, ...]
    n_polygons: int

    @property
    def circumference(self) -> float:
        return math.sqrt(float(self.circumference_sq))

    @property
    def height(self) -> float:
        return math.sqrt(float(self.height_sq))


def _clip_halfplane(n: int, poly: list[Vec2], values: list[CycloReal]) -> list[Vec2]:
    """Keep the part of a convex polygon where the affine value is >= 0."""
    out: list[Vec2] = []
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        va, vb = values[i], values[(i + 1) % k]
        sa, sb = va.sign(), vb.sign()
        if sa >= 0:
            out.append(a)
        if (sa > 0 > sb) or (sb > 0 > sa):
            t = va / (va - vb)
            out.append(vadd(a, smul(t, vsub(b, a))))
    # drop repeated vertices created by clipping exactly through a vertex
    dedup: list[Vec2] = []
    for p in out:
        if not dedup or not (p[0] == dedup[-1][0] and p[1] == dedup[-1][1]):
            dedup.append(p)
    if len(dedup) > 1 and dedup[0][0] == dedup[-1][0] and dedup[0][1] == dedup[-1][1]:
        dedup.pop()
    return dedup


def _poly_area2(poly: Sequence[Vec2], n: int) -> CycloReal:
    total = CycloReal.from_rational(n, 0)
    k = len(poly)
    for i in range(k):
        total = total + cross(poly[i], poly[(i + 1) % k])
    return total


def cylinder_decomposition(
    S: TranslationSurface, direction=None, *, max_length: Optional[float] = None
) -> list[Cylinder]:
    """Decompose the surface into maximal cylinders in a periodic direction.

    The direction may be given as a co-slope x/y, a vector, or None for
    horizontal.  Raises NonPeriodicDirectionError when some separatrix fails
    to close within the budget (the direction is then not periodic, or the
    budget is too small).
    """
    v = direction_vector(S.n, direction)
    if max_length is None:
        per = 0.0
        for f, verts in enumerate(S.faces):
            for e in range(len(verts)):
                per += math.hypot(*vfloat(S.edge_vector((f, e))))
        max_length = 64.0 * per

    # 1. trace every separatrix leaving a vertex in direction +v
    chords: dict[int, list[tuple[Vec2, Vec2]]] = {f: [] for f in range(len(S.faces))}
    for cyc in S.vertex_classes:
        for f, vi in cyc:
            ra, _rb = S.wedge_rays(f, vi)
            if same_ray(v, ra):
                continue  # boundary separatrix along an existing edge
            if not S.direction_in_wedge(f, vi, v):
                continue
            tr = trace_from_corner(S, f, vi, v, max_length=max_length)
            for face, p_in, p_out in tr.pieces:
                chords[face].append((p_in, p_out))

    # 2. slice each face into slabs between consecutive singular levels
    level = lambda p: cross(v, p)
    slab_polys: list[tuple[int, list[Vec2]]] = []  # (face, polygon)
    slabs_of_face: dict[int, list[tuple[CycloReal, CycloReal, int]]] = {}
    for f, verts in enumerate(S.faces):
        vertex_levels = [level(p) for p in verts]
        lo_all = min(vertex_levels)
        hi_all = max(vertex_levels)
        cut_levels: list[CycloReal] = []
        for p_in, _p_out in chords[f]:
            lv = level(p_in)
            if lv != lo_all and lv != hi_all and all(lv != c for c in cut_levels):
                cut_levels.append(lv)
        cut_levels.sort()
        bounds = [lo_all] + cut_levels + [hi_all]
        slabs = []
        for lo, hi in zip(bounds, bounds[1:]):
            poly = _clip_halfplane(S.n, list(verts), [level(p) - lo for p in verts])
            poly = _clip_halfplane(S.n, poly, [hi - level(p) for p in poly])
            if len(poly) >= 3 and _poly_area2(poly, S.n).sign() > 0:
                sid = len(slab_polys)
                slab_polys.append((f, poly))
                slabs.append((lo, hi, sid))
        slabs_of_face[f] = slabs

    # 3. merge slabs across every glued edge pair not parallel to v
    parent = list(range(len(slab_polys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for h1, h2 in S.edge_pairs:
        evec = S.edge_vector(h1)
        if parallel(evec, v):
            continue

        def side_intervals(h: Half, flip: bool) -> list[tuple[CycloReal, CycloReal, int]]:
            a, b = S.edge_endpoints(h)
            la, d = level(a), cross(v, vsub(b, a))
            out = []
            for lo, hi, sid in slabs_of_face[h[0]]:
                t0, t1 = (lo - la) / d, (hi - la) / d
                if t0 > t1:
                    t0, t1 = t1, t0
                if flip:
                    t0, t1 = 1 - t1, 1 - t0
                t0 = max(t0, CycloReal.from_rational(S.n, 0))
                t1 = min(t1, CycloReal.from_rational(S.n, 1))
                if t0 < t1:
                    out.append((t0, t1, sid))
            return out

        iv1 = side_intervals(h1, False)
        iv2 = side_intervals(h2, True)
        for t0, t1, sid in iv1:
            for u0, u1, sid2 in iv2:
                if max(t0, u0) < min(t1, u1):
                    union(sid, sid2)

    groups: dict[int, list[int]] = {}
    for sid in range(len(slab_polys)):
        groups.setdefault(find(sid), []).append(sid)

    # 4. assemble cylinder data
    nv2 = norm2(v)
    cylinders = []
    for sids in groups.values():
        area2 = CycloReal.from_rational(S.n, 0)
        wall = CycloReal.from_rational(S.n, 0)  # sum |v . edge| over v-parallel edges
        for sid in sids:
            _f, poly = slab_polys[sid]
            area2 = area2 + _poly_area2(poly, S.n)
            k = len(poly)
            for i in range(k):
                e = vsub(poly[(i + 1) % k], poly[i])
                if parallel(e, v):
                    wall = wall + abs(dot(v, e))
        area = area2 / 2
        circ_sq = (wall * wall) / (nv2 * 4)
        modulus = circ_sq / area
        height_sq = area / modulus
        word = _core_word(S, v, slab_polys, sids)
        cylinders.append(
            Cylinder(v, area, circ_sq, height_sq, modulus, word, len(sids))
        )
    cylinders.sort(key=lambda c: (float(c.modulus), float(c.area), c.core_word))
    return cylinders


def _core_word(
    S: TranslationSurface,
    v: Vec2,
    slab_polys: list[tuple[int, list[Vec2]]],
    sids: list[int],
) -> tuple[str, ...]:
    """Edge labels crossed by the core leaf of a cylinder, canonically rotated."""
    best = None
    for sid in sids:
        f, poly = slab_polys[sid]
        cx = sum((p[0] for p in poly), CycloReal.from_rational(S.n, 0)) / len(poly)
        cy = sum((p[1] for p in poly), CycloReal.from_rational(S.n, 0)) / len(poly)
        key = (f, cx, cy)
        if best is None or key < best:
            best = key
    f0, px, py = best
    p0 = (px, py)
    f, p = f0, p0
    word: list[str] = []
    for _ in range(10000):
        q, exit_info = exit_through_face(S, f, p, v)
        if f == f0 and word:
            w = vsub(p0, p)
            if parallel(w, v) and dot(w, v).sign() >= 0 and norm2(w) <= norm2(vsub(q, p)):
                break
        if exit_info[0] != "edge":
            raise SurfaceError("core leaf hit a vertex; decomposition is inconsistent")
        _, half, _s = exit_info
        word.append(S.pair_labels[S.pair_of[half]])
        f = S.glue[half][0]
        p = vadd(q, S.glue_shift[half])
    else:
        raise SurfaceError("core leaf did not close")
    rotations = [tuple(word[i:] + word[:i]) for i in range(len(word))]
    return min(rotations)


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

    adj: dict[int, set[int]] = {label(s): set() for s in range(half)}
    for exit_side in range(n):
        a, b = verts[exit_side], verts[(exit_side + 1) % n]
        out_normal = (vsub(b, a)[1], -vsub(b, a)[0])  # rotate edge by -90
        if dot(d, out_normal).sign() <= 0:
            continue  # rays in direction d never exit through this side
        entry = (exit_side + half) % n
        ea, eb = verts[entry], verts[(entry + 1) % n]
        evec = vsub(eb, ea)
        # breakpoints: entry parameters whose ray passes through a vertex
        params = [CycloReal.from_rational(n, 0), CycloReal.from_rational(n, 1)]
        for w in verts:
            res = line_intersection(ea, evec, w, vneg(d))
            if res is None:
                continue
            t, u = res
            if u.sign() > 0 and t.sign() > 0 and (t - 1).sign() < 0:
                if all(t != q for q in params):
                    params.append(t)
        params.sort()
        for t0, t1 in zip(params, params[1:]):
            tm = (t0 + t1) / 2
            p = vadd(ea, smul(tm, evec))
            _q, exit_info = exit_through_face(S, 0, p, d)
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
