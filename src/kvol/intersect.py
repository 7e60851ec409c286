"""Algebraic intersection numbers of closed curves on a translation surface.

A closed curve is a cyclic concatenation of saddle connections.  The signed
intersection number of two such curves splits into

* interior crossings -- transversal meetings inside faces or across edges,
  each counted with the sign of ``det[dir_gamma, dir_delta]``; and
* singular crossings -- meetings at cone points, resolved by perturbing the
  first curve slightly off the singularity and counting which rays of the
  second curve the perturbed arc sweeps across.

Both are computed exactly.  The corner rule is perturbation-side independent
on totals: pushing the first curve to its left (``positive_side=True``) or to
its right gives the same intersection number, which the tests exercise.

Curves may share whole components (a shared component contributes zero), but
two distinct saddle connections never overlap along a sub-segment, so the
transversality assumptions hold automatically for inputs built from
:func:`kvol.saddle.enumerate_saddle_connections`.

The module also carries the homological side: integer chain vectors over the
edge pairs (``homology_class``) and the skew intersection form on a basis of
fundamental cycles (:class:`IntersectionForm`), which doubles as a fast exact
pairing for large curve collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .plane import (
    canonical_orientation,
    cross,
    line_intersection,
    same_ray,
    smul,
    vadd,
    vfloat,
    vsub,
)
from .saddle import Germ, SaddleConnection, edge_connection
from .surface import TranslationSurface

__all__ = [
    "ClosedCurve",
    "IntersectionReport",
    "intersect",
    "homology_class",
    "IntersectionForm",
    "intersection_form",
]


class ClosedCurve:
    """A closed curve given as a cyclic list of oriented saddle connections.

    Consecutive components must match up at singularities: the end vertex
    class of each component equals the start vertex class of the next (the
    last wraps around to the first).  Components may repeat, and a component
    may be followed by its own reverse (the resulting back-track contributes
    nothing to any intersection number).
    """

    __slots__ = ("surface", "components")

    def __init__(self, components: Iterable[SaddleConnection]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a closed curve needs at least one component")
        S = comps[0].surface
        for sc in comps:
            if sc.surface is not S:
                raise ValueError("components live on different surfaces")
        for a, b in zip(comps, comps[1:] + comps[:1]):
            if a.end.class_id != b.start.class_id:
                raise ValueError(
                    "components do not close up: end class "
                    f"{a.end.class_id} != start class {b.start.class_id}"
                )
        self.surface = S
        self.components = comps

    @property
    def length(self) -> float:
        return sum(sc.length for sc in self.components)

    def passages(self) -> list[tuple[int, Germ, Germ]]:
        """Cone-point passages ``(class_id, in_germ, out_germ)``.

        The in-germ points from the cone point back along the incoming
        component, the out-germ points along the outgoing one; both are rays
        based at the same cone point.
        """
        comps = self.components
        m = len(comps)
        out = []
        for i in range(m):
            a = comps[i].end
            b = comps[(i + 1) % m].start
            out.append((a.class_id, a, b))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"ClosedCurve({len(self.components)} components, length={self.length:.6f})"


CurveLike = Union[ClosedCurve, SaddleConnection]


def _as_curve(obj: CurveLike) -> ClosedCurve:
    if isinstance(obj, ClosedCurve):
        return obj
    if isinstance(obj, SaddleConnection):
        return ClosedCurve([obj])
    raise TypeError(f"expected a ClosedCurve or SaddleConnection, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# germ ordering around a cone point
# ---------------------------------------------------------------------------

def _germ_eq(g1: Germ, g2: Germ) -> bool:
    return g1.corner == g2.corner and same_ray(g1.direction, g2.direction)


def _germ_cmp(S: TranslationSurface, g1: Germ, g2: Germ) -> int:
    """Compare two germs at the same cone point in counterclockwise order.

    The order starts at the first corner of the vertex-class cycle and runs
    counterclockwise around the cone point; within one corner wedge the
    direction sweeps from the outgoing edge ray toward the incoming one.
    Germs aligned with a wedge's trailing ray never occur (such a direction
    is stored as the leading ray of the next corner), so the within-wedge
    angle gap is strictly less than pi and a single cross product decides.
    """
    p1 = S.corner_class[g1.corner][1]
    p2 = S.corner_class[g2.corner][1]
    if p1 != p2:
        return -1 if p1 < p2 else 1
    if same_ray(g1.direction, g2.direction):
        return 0
    s = cross(g1.direction, g2.direction).sign()
    if s == 0:
        raise ArithmeticError("opposite germs in one corner wedge")
    return -1 if s > 0 else 1


def _in_open_ccw(S: TranslationSurface, a: Germ, c: Germ, b: Germ) -> bool:
    """True if germ ``c`` lies strictly inside the ccw-open arc from ``a`` to ``b``.

    When ``a`` and ``b`` are the same germ the arc is the full cone circle
    minus that ray: a perturbed U-turn loops once around the cone point and
    crosses every other ray exactly once (its two possible detour routes
    differ by a full loop, which crosses any curve through the point with
    net count zero).
    """
    if _germ_eq(c, a) or _germ_eq(c, b):
        return False
    if _germ_eq(a, b):
        return True
    ab = _germ_cmp(S, a, b) < 0
    ac = _germ_cmp(S, a, c) < 0
    cb = _germ_cmp(S, c, b) < 0
    return (ac and cb) if ab else (ac or cb)


def _corner_contribution(
    S: TranslationSurface,
    a: Germ,
    b: Germ,
    c: Germ,
    d: Germ,
    positive_side: bool,
) -> int:
    """Signed crossings at one cone point of one passage pair.

    The first curve comes in along ray ``a`` and leaves along ray ``b``; the
    second has rays ``c`` (incoming) and ``d`` (outgoing).  Perturbing the
    first curve to its left replaces the passage by a small arc sweeping
    clockwise from ``a`` to ``b``, i.e. across the ccw-open arc ``(b, a)``;
    an outgoing ray of the second curve crossed there counts ``+1`` and an
    incoming ray ``-1``.  Perturbing to the right sweeps the ccw-open arc
    ``(a, b)`` with the opposite ray signs.
    """
    if positive_side:
        return int(_in_open_ccw(S, b, d, a)) - int(_in_open_ccw(S, b, c, a))
    return int(_in_open_ccw(S, a, c, b)) - int(_in_open_ccw(S, a, d, b))


# ---------------------------------------------------------------------------
# interior crossings of a pair of saddle connections
# ---------------------------------------------------------------------------

_BOX_EPS = 1e-9


def _piece_boxes(sc: SaddleConnection):
    """Per-face float bounding boxes of the pieces, for cheap rejection."""
    by_face: dict[int, list] = {}
    for j, (f, p, q) in enumerate(sc.pieces):
        px, py = vfloat(p)
        qx, qy = vfloat(q)
        box = (
            min(px, qx) - _BOX_EPS,
            max(px, qx) + _BOX_EPS,
            min(py, qy) - _BOX_EPS,
            max(py, qy) + _BOX_EPS,
        )
        by_face.setdefault(f, []).append((j, p, q, box))
    return by_face


def _interior_pair(alpha: SaddleConnection, beta: SaddleConnection):
    """Signed interior crossings of two saddle connections with witnesses.

    Returns ``(count, witnesses)`` where each witness is a tuple
    ``(face, point, sign)`` with an exact face-local point.
    """
    if alpha.edge_pair is not None and beta.edge_pair is not None:
        # two edges of the cell decomposition: disjoint interiors, or the
        # same edge (a coincident pair contributes zero)
        return 0, []
    if alpha.edge_pair is not None or beta.edge_pair is not None:
        # one curve runs along an edge: its interior meetings with the other
        # curve are exactly the other curve's recorded edge crossings
        if alpha.edge_pair is not None:
            pid, runner = alpha.edge_pair, beta
        else:
            pid, runner = beta.edge_pair, alpha
        sgn = cross(alpha.holonomy, beta.holonomy).sign()
        if sgn == 0:
            return 0, []
        wit = []
        for k, (cpid, _half, _dev) in enumerate(runner.crossings):
            if cpid == pid:
                f, _p, q = runner.pieces[k]
                wit.append((f, q, sgn))
        return sgn * len(wit), wit

    sgn_el = cross(alpha.holonomy, beta.holonomy)
    if sgn_el.is_zero():
        # parallel saddle connections never cross transversally
        return 0, []
    sgn = sgn_el.sign()

    beta_by_face = _piece_boxes(beta)
    ia_last = len(alpha.pieces) - 1
    jb_last = len(beta.pieces) - 1
    count = 0
    witnesses = []
    for i, (f, p0, p1) in enumerate(alpha.pieces):
        lst = beta_by_face.get(f)
        if not lst:
            continue
        p0x, p0y = vfloat(p0)
        p1x, p1y = vfloat(p1)
        axlo, axhi = min(p0x, p1x) - _BOX_EPS, max(p0x, p1x) + _BOX_EPS
        aylo, ayhi = min(p0y, p1y) - _BOX_EPS, max(p0y, p1y) + _BOX_EPS
        u = vsub(p1, p0)
        for j, q0, q1, (bxlo, bxhi, bylo, byhi) in lst:
            if axhi < bxlo or bxhi < axlo or ayhi < bylo or byhi < aylo:
                continue
            res = line_intersection(p0, u, q0, vsub(q1, q0))
            assert res is not None  # piece directions equal the holonomies
            s, t = res
            ss = s.sign()
            s1 = (s - 1).sign()
            ts = t.sign()
            t1 = (t - 1).sign()
            if ss < 0 or s1 > 0 or ts < 0 or t1 > 0:
                continue
            # meetings at a curve endpoint happen at a cone point and belong
            # to the corner rule, not here
            if (i == 0 and ss == 0) or (i == ia_last and s1 == 0):
                continue
            if (j == 0 and ts == 0) or (j == jb_last and t1 == 0):
                continue
            if ss == 0:
                # crossing on the entry edge of this piece; its twin with
                # s == 1 in the previous face is the one that counts
                continue
            if s1 == 0:
                # crossing on the exit edge: the other curve must change
                # faces there too, since piece interiors avoid edges
                if ts != 0 and t1 != 0:
                    raise ArithmeticError("piece interior meets an edge")
            elif ts == 0 or t1 == 0:
                raise ArithmeticError("piece interior meets an edge")
            count += 1
            witnesses.append((f, vadd(p0, smul(s, u)), sgn))
    return sgn * count, witnesses


# ---------------------------------------------------------------------------
# the intersection number
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    """Outcome of one algebraic intersection computation.

    ``total == interior + singular`` always holds; ``interior`` sums the
    signed transversal crossings away from cone points and ``singular`` the
    signed cone-point contributions of the corner rule.
    """

    total: int
    interior: int
    singular: int
    interior_witnesses: list = field(default_factory=list)
    singular_witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "interior": self.interior,
            "singular": self.singular,
            "interior_witnesses": [
                {
                    "face": f,
                    "point": [float(p[0]), float(p[1])],
                    "point_exact": [p[0].to_dict(), p[1].to_dict()],
                    "sign": s,
                }
                for f, p, s in self.interior_witnesses
            ],
            "singular_witnesses": [
                {"vertex_class": cid, "contribution": c}
                for cid, c in self.singular_witnesses
            ],
        }


def intersect(
    gamma: CurveLike,
    delta: CurveLike,
    *,
    positive_side: bool = True,
) -> IntersectionReport:
    """Algebraic intersection number of two closed curves.

    Accepts :class:`ClosedCurve` objects or single closed saddle connections
    (start and end at the same cone point class).  ``positive_side`` selects
    the side to which the first curve is perturbed at shared cone points;
    the total is independent of the choice.
    """
    g = _as_curve(gamma)
    d = _as_curve(delta)
    if g.surface is not d.surface:
        raise ValueError("curves live on different surfaces")
    S = g.surface

    interior = 0
    interior_witnesses: list = []
    for a in g.components:
        for b in d.components:
            c, w = _interior_pair(a, b)
            interior += c
            interior_witnesses.extend(w)

    singular = 0
    singular_witnesses: list = []
    d_passages = d.passages()
    for cid_g, a_in, a_out in g.passages():
        for cid_d, c_in, c_out in d_passages:
            if cid_g != cid_d:
                continue
            contrib = _corner_contribution(S, a_in, a_out, c_in, c_out, positive_side)
            if contrib:
                singular_witnesses.append((cid_g, contrib))
            singular += contrib

    return IntersectionReport(
        total=interior + singular,
        interior=interior,
        singular=singular,
        interior_witnesses=interior_witnesses,
        singular_witnesses=singular_witnesses,
    )


# ---------------------------------------------------------------------------
# homology classes over the edge pairs
# ---------------------------------------------------------------------------

def _half_signs(S: TranslationSurface) -> dict:
    """Map each half-edge to +-1 against its pair's canonical orientation.

    The canonical orientation of an edge pair is the one whose vector points
    into the upper half plane (or right along the real axis); the edge curve
    of the pair, oriented canonically, is the positive generator.
    """
    signs = {}
    for h1, h2 in S.edge_pairs:
        s = 1 if canonical_orientation(S.edge_vector(h1)) else -1
        signs[h1] = s
        signs[h2] = -s
    return signs


def _sc_chain(sc: SaddleConnection, signs: dict) -> np.ndarray:
    """Integer chain of one saddle connection over the edge pairs.

    Each straight piece is homotoped rel endpoints onto the counterclockwise
    boundary arc of its face.  The fractional edge parts at the two sides of
    every crossing cancel exactly (a glued edge is traversed in opposite
    directions), so only whole edges remain: the start vertex's outgoing
    edge, and in each face every edge strictly counterclockwise between the
    entry edge and the exit edge.  The first face is entered at the start
    vertex's outgoing edge and the last left at the end vertex's.
    """
    S = sc.surface
    acc = [0] * len(S.edge_pairs)

    def add(h) -> None:
        acc[S.pair_of[h]] += signs[h]

    def arc(f: int, e_in: int, e_out: int) -> None:
        k = len(S.faces[f])
        e = (e_in + 1) % k
        while e != e_out:
            add((f, e))
            e = (e + 1) % k

    (f, e_in), exits, last = sc.path
    add((f, e_in))
    for h in exits:
        arc(f, e_in, h[1])
        f, e_in = S.glue[h]
    arc(f, e_in, last)
    return np.array(acc, dtype=np.int64)


def homology_class(curve: CurveLike) -> np.ndarray:
    """Integer homology class of a closed curve over the edge pairs.

    Coordinates follow the edge-pair order of the surface; the curve of pair
    ``i``, canonically oriented, maps to the ``i``-th standard basis vector.
    """
    c = _as_curve(curve)
    signs = _half_signs(c.surface)
    vec = np.zeros(len(c.surface.edge_pairs), dtype=np.int64)
    for sc in c.components:
        vec += _sc_chain(sc, signs)
    return vec


# ---------------------------------------------------------------------------
# the intersection form
# ---------------------------------------------------------------------------

class IntersectionForm:
    """Skew-symmetric intersection form on a basis of fundamental cycles.

    A spanning tree of the graph (vertex classes, edge pairs) is fixed; each
    non-tree pair closes up to a fundamental cycle through the tree, and the
    matrix pairs those cycles geometrically.  On a one-vertex surface the
    tree is empty, so the basis is exactly the edge curves in pair order.

    Any closed curve, or any single saddle connection closed up through the
    tree, gets an integer coordinate vector; the pairing of coordinate
    vectors through the matrix reproduces the geometric intersection number
    of the underlying curves.
    """

    def __init__(self, surface: TranslationSurface, *, positive_side: bool = True):
        S = surface
        self.surface = S
        self._signs = _half_signs(S)
        E = len(S.edge_pairs)
        V = len(S.vertex_classes)
        edge_scs = [edge_connection(S, pid) for pid in range(E)]
        self.edge_curves = edge_scs
        ends = [(sc.start.class_id, sc.end.class_id) for sc in edge_scs]

        # spanning tree over vertex classes
        tree: set[int] = set()
        steps: dict[int, tuple[int, SaddleConnection]] = {}
        visited = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for cls in frontier:
                for pid, (a, b) in enumerate(ends):
                    if pid in tree:
                        continue
                    if a == cls and b not in visited:
                        tree.add(pid)
                        steps[b] = (cls, edge_scs[pid].reversed())
                        visited.add(b)
                        nxt.append(b)
                    elif b == cls and a not in visited:
                        tree.add(pid)
                        steps[a] = (cls, edge_scs[pid])
                        visited.add(a)
                        nxt.append(a)
            frontier = nxt
        if len(visited) != V:
            raise ValueError("surface cell graph is not connected")
        self.tree_pairs = sorted(tree)
        self.basis_pairs = [pid for pid in range(E) if pid not in tree]
        self.basis_labels = [S.pair_labels[pid] for pid in self.basis_pairs]

        # paths to the root class, as oriented component lists and vectors
        path_scs: dict[int, list[SaddleConnection]] = {0: []}
        path_vec: dict[int, np.ndarray] = {0: np.zeros(E, dtype=np.int64)}

        def resolve(cls: int) -> None:
            if cls in path_scs:
                return
            parent, sc = steps[cls]
            resolve(parent)
            path_scs[cls] = [sc] + path_scs[parent]
            path_vec[cls] = _sc_chain(sc, self._signs) + path_vec[parent]

        for cls in range(V):
            resolve(cls)
        self._path_scs = path_scs
        self._path_vec = path_vec

        # fundamental cycles
        cycles = []
        for pid in self.basis_pairs:
            sc = edge_scs[pid]
            a, b = ends[pid]
            comps = [sc] + path_scs[b] + [s.reversed() for s in reversed(path_scs[a])]
            cycles.append(ClosedCurve(comps))
        self.cycles = cycles

        m = len(cycles)
        mat = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(i + 1, m):
                val = intersect(cycles[i], cycles[j], positive_side=positive_side).total
                mat[i, j] = val
                mat[j, i] = -val
        self.matrix = mat
        self._chain_cache: dict[SaddleConnection, np.ndarray] = {}

        # the boundary of every face must pair to zero with everything
        for f in range(len(S.faces)):
            c = self.coords(self._face_boundary(f))
            if np.any(c @ mat != 0):
                raise ArithmeticError("face boundary is not in the radical")
        # the chain engine must reproduce the geometric matrix: basis-cycle
        # coordinates may drift from the standard basis by face boundaries,
        # which the radical absorbs
        for i, cyc in enumerate(cycles):
            c = self.coords(self.class_vector(cyc))
            if np.any(c @ mat != mat[i]):
                raise ArithmeticError("chain pairing disagrees with geometry")

    def _face_boundary(self, f: int) -> np.ndarray:
        vec = np.zeros(len(self.surface.edge_pairs), dtype=np.int64)
        for e in range(len(self.surface.faces[f])):
            vec[self.surface.pair_of[(f, e)]] += self._signs[(f, e)]
        return vec

    def class_vector(self, obj: CurveLike) -> np.ndarray:
        """Integer cycle vector over the edge pairs.

        A closed curve maps to a representative of its homology class.  A
        single (possibly open) saddle connection is closed up through the
        spanning tree from its end class back to its start class; for curves
        assembled from several connections the tree detours telescope away.
        Representatives are canonical only up to face-boundary vectors, which
        lie in the radical of the form, so every pairing is well defined.
        """
        if isinstance(obj, ClosedCurve):
            vec = np.zeros(len(self.surface.edge_pairs), dtype=np.int64)
            for sc in obj.components:
                vec += self.class_vector(sc)
            return vec
        sc = obj
        if sc.surface is not self.surface:
            raise ValueError("saddle connection lives on another surface")
        cached = self._chain_cache.get(sc)
        if cached is None:
            cached = (
                _sc_chain(sc, self._signs)
                + self._path_vec[sc.end.class_id]
                - self._path_vec[sc.start.class_id]
            )
            self._chain_cache[sc] = cached
        return cached

    def coords(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a cycle vector in the fundamental-cycle basis."""
        return vec[self.basis_pairs]

    def pair(self, x: Union[CurveLike, np.ndarray], y: Union[CurveLike, np.ndarray]) -> int:
        """Exact intersection number through the form."""
        cx = x if isinstance(x, np.ndarray) else self.class_vector(x)
        cy = y if isinstance(y, np.ndarray) else self.class_vector(y)
        return int(self.coords(cx) @ self.matrix @ self.coords(cy))

    def gram(self, objs: Sequence[Union[CurveLike, np.ndarray]]) -> np.ndarray:
        """All pairwise intersection numbers of a family, as an integer matrix."""
        rows = [
            self.coords(o if isinstance(o, np.ndarray) else self.class_vector(o))
            for o in objs
        ]
        C = np.array(rows, dtype=np.int64)
        return C @ self.matrix @ C.T

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis_labels),
            "tree": [self.surface.pair_labels[p] for p in self.tree_pairs],
            "matrix": [[int(x) for x in row] for row in self.matrix],
        }


def intersection_form(surface: TranslationSurface, *, positive_side: bool = True) -> IntersectionForm:
    """The intersection form of the surface on its fundamental-cycle basis."""
    return IntersectionForm(surface, positive_side=positive_side)
