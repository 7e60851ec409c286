"""Algebraic intersection numbers of closed curves on a translation surface.

A closed curve is a cyclic concatenation of saddle connections.  The signed
intersection number of two such curves splits into

* interior crossings -- transversal meetings inside faces or across edges,
  each counted with the sign of ``det[dir_gamma, dir_delta]``; and
* singular crossings -- meetings at cone points, resolved by perturbing the
  first curve slightly off the singularity and counting which rays of the
  second curve the perturbed arc sweeps across.

Both are computed exactly.  Interior crossings are decided by orientation
signs (``cross``) of the pieces that share a face, with no float filter; a
division builds only the witness point of a counted crossing.  The corner
rule is perturbation-side independent on totals: pushing the first curve to
its left (``positive_side=True``) or to its right gives the same
intersection number, which the tests exercise.

Curves may share whole components (a shared component contributes zero), but
two distinct saddle connections never overlap along a sub-segment, so the
transversality assumptions hold automatically for inputs built from
:func:`kvol.saddle.enumerate_saddle_connections`.

The module also carries the homological side of closed curves: integer chain
vectors over the edge pairs (``homology_class``) and the intersection form
on them (:class:`IntersectionForm`), one integer matrix read off the
counterclockwise corner order at each vertex class, which serves as the
fast exact pairing for large curve collections.  The form never calls
:func:`intersect`; the two are independent computations of the same
number.  Chains sum rows of one integer table (:class:`_ChainTable`) named
by the paths of a curve's components, so the chains of a whole family are
one gather and one segmented sum.  A saddle connection counts as a curve
only when it closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .plane import (
    canonical_orientation,
    cross,
    same_ray,
    smul,
    vadd,
)
from .saddle import Germ, SaddleConnection
from .surface import TranslationSurface

if TYPE_CHECKING:
    import numpy as np


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

def _interior_pair(alpha: SaddleConnection, beta: SaddleConnection):
    """Signed interior crossings of two saddle connections with witnesses.

    Returns ``(count, witnesses)`` where each witness is a tuple
    ``(face, point, sign)`` with an exact face-local point.

    Two pieces p0 -> p1 and q0 -> q1 in one face meet where
    p0 + s u = q0 + t w, with u = p1 - p0 and w = q1 - q0.  The pieces are
    positive multiples of the holonomies a and b, so cross(u, w) has the
    sign ``sgn`` of cross(a, b), and ``sgn`` times the signs of
    cross(q0 - p0, b), cross(q0 - p1, b), cross(q0 - p0, a) and
    cross(q1 - p0, a) are exactly the signs of s, s - 1, t and t - 1.  Each
    is a difference of levels cross(x, b) and cross(x, a) taken once per
    piece end.  Only a counted crossing divides, to build its witness point.
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

    a, b = alpha.holonomy, beta.holonomy
    det = cross(a, b)
    if det.is_zero():
        # parallel saddle connections never cross transversally
        return 0, []
    sgn = det.sign()

    # cross(x, b) is constant along a beta piece, cross(x, a) along an alpha one
    beta_levels = [
        (j, g, cross(q0, b), cross(q0, a), cross(q1, a))
        for j, (g, q0, q1) in enumerate(beta.pieces)
    ]
    ia_last = len(alpha.pieces) - 1
    jb_last = len(beta.pieces) - 1
    count = 0
    witnesses = []
    for i, (f, p0, p1) in enumerate(alpha.pieces):
        b0, b1, a0 = cross(p0, b), cross(p1, b), cross(p0, a)
        for j, g, qb, qa0, qa1 in beta_levels:
            if g != f:
                continue
            ss = sgn * (qb - b0).sign()
            if ss < 0:
                continue
            s1 = sgn * (qb - b1).sign()
            if s1 > 0:
                continue
            ts = sgn * (qa0 - a0).sign()
            if ts < 0:
                continue
            t1 = sgn * (qa1 - a0).sign()
            if t1 > 0:
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
            witnesses.append((f, vadd(p0, smul((qb - b0) / det, a)), sgn))
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


class _ChainTable:
    """Integer rows over the edge pairs whose sums are connection chains.

    Each straight piece of a saddle connection is homotoped rel endpoints
    onto the counterclockwise boundary arc of its face.  The fractional edge
    parts at the two sides of every crossing cancel exactly (a glued edge is
    traversed in opposite directions), so only whole edges remain: the start
    vertex's outgoing edge, and in each face every edge strictly
    counterclockwise between the entry edge and the exit edge.  The first
    face is entered at the start vertex's outgoing edge and the last left at
    the end vertex's.

    So the chain is a sum of rows of one table, built once per surface: row
    ``start[h]`` is the signed unit vector of half-edge h, and row
    ``arc[h] + e_out`` is the boundary arc of h's face from entry edge h to
    exit edge (or end vertex) ``e_out``.  ``indices`` reads the row indices
    off the paths of a closed curve's components.
    """

    __slots__ = ("rows", "start", "arc", "glue", "signs")

    def __init__(self, S: TranslationSurface):
        import numpy as np
        self.signs = signs = _half_signs(S)
        self.glue = S.glue
        E = len(S.edge_pairs)
        halves = [(f, e) for f, verts in enumerate(S.faces) for e in range(len(verts))]
        self.start = {h: i for i, h in enumerate(halves)}
        nrows = len(halves) + sum(len(verts) ** 2 for verts in S.faces)
        rows = np.zeros((nrows, E), dtype=np.int64)
        for h, i in self.start.items():
            rows[i, S.pair_of[h]] = signs[h]
        self.arc = {}
        base = len(halves)
        for f, verts in enumerate(S.faces):
            k = len(verts)
            for e_in in range(k):
                row0 = self.arc[(f, e_in)] = base + e_in * k
                acc = np.zeros(E, dtype=np.int64)
                for step in range(1, k + 1):
                    e = (e_in + step) % k
                    rows[row0 + e] = acc
                    acc = acc + rows[self.start[(f, e)]]
            base += k * k
        self.rows = rows

    def indices(self, curve: ClosedCurve) -> list[int]:
        """Row indices of the chain of a closed curve, component by component."""
        arc, glue, start = self.arc, self.glue, self.start
        out = []
        for sc in curve.components:
            h, exits, last = sc.path
            out.append(start[h])
            for x in exits:
                out.append(arc[h] + x[1])
                h = glue[x]
            out.append(arc[h] + last)
        return out

    def chain(self, curve: ClosedCurve) -> np.ndarray:
        """The chain of a closed curve over the edge pairs: its rows summed."""
        return self.rows[self.indices(curve)].sum(axis=0)


def homology_class(curve: CurveLike) -> np.ndarray:
    """Integer homology class of a closed curve over the edge pairs.

    Coordinates follow the edge-pair order of the surface; the curve of pair
    ``i``, canonically oriented, maps to the ``i``-th standard basis vector.
    """
    c = _as_curve(curve)
    return _ChainTable(c.surface).chain(c)


# ---------------------------------------------------------------------------
# the intersection form
# ---------------------------------------------------------------------------

class IntersectionForm:
    """The intersection form on edge chains, read off the corner order.

    Closed curves pair through their chains (:class:`_ChainTable`):
    Int(a, b) = a . matrix . b.  The matrix starts at I and, at each vertex
    class v, adds s_l s_j to entry [p_l, p_j] for every two rays l < j in
    the class's counterclockwise corner order; ray l is the outgoing
    half-edge of corner l, on pair p_l with sign s_l against the pair's
    canonical orientation, so a chain a flows out of v along ray l with
    weight a(l) = s_l a[p_l].

    Proof.  A chain is a cycle homologous to its curve.  Push a to the left
    of its direction of travel along every edge and, near each vertex v,
    route it along a small circle around v: the arc just after ray i
    carries a(1) + ... + a(i) clockwise.  b stays on the edges, and its
    ray j crosses that circle with weight b(j), positively against a
    clockwise arc.  The left offset attaches a's strand on ray j just after
    the ray when s_j = +1 and just before it when s_j = -1, so ray j
    crosses the arc after ray j - 1 or after ray j: sum_v sum_{l<j} a(l)
    b(j), plus a(j) b(j) = a[p] b[p] at each edge's head, the identity.
    Another first corner adds a loop around v to a, which pairs to zero
    with b because b's outflows at v sum to 0.

    So matrix + matrix^T = B^T B for the signed vertex-edge incidence
    matrix B, and the pairing is antisymmetric on cycles (B a = 0).  On a
    one-vertex surface the matrix pairs the edge curves.  The form never
    calls :func:`intersect`, so a test comparing the two checks one
    against the other.  An open saddle connection is a ValueError.
    """

    def __init__(self, surface: TranslationSurface):
        import numpy as np
        self.surface = S = surface
        self._table = table = _ChainTable(S)
        mat = np.eye(len(S.edge_pairs), dtype=np.int64)
        for cyc in S.vertex_classes:
            rays = [(S.pair_of[c], table.signs[c]) for c in cyc]
            for j, (q, t) in enumerate(rays):
                for p, s in rays[:j]:
                    mat[p, q] += s * t
        self.matrix = mat

    def _curve(self, obj: CurveLike) -> ClosedCurve:
        """``obj`` as a closed curve on this surface."""
        c = _as_curve(obj)
        if c.surface is not self.surface:
            raise ValueError("curve lives on another surface")
        return c

    def class_vector(self, obj: CurveLike) -> np.ndarray:
        """Integer chain over the edge pairs of a closed curve.

        The chain represents the curve's homology class.  Representatives
        are canonical only up to face boundaries, which pair to zero with
        every cycle, so every pairing is well defined.
        """
        return self._table.chain(self._curve(obj))

    def pair(self, x: Union[CurveLike, np.ndarray], y: Union[CurveLike, np.ndarray]) -> int:
        """Exact intersection number through the form."""
        import numpy as np
        cx = x if isinstance(x, np.ndarray) else self.class_vector(x)
        cy = y if isinstance(y, np.ndarray) else self.class_vector(y)
        return int(cx @ self.matrix @ cy)

    def coord_rows(self, objs: Sequence[CurveLike]) -> np.ndarray:
        """Chains of a family, one row each: a gather and a segmented sum."""
        import numpy as np
        idx: list[int] = []
        starts = []
        for obj in objs:
            starts.append(len(idx))
            idx += self._table.indices(self._curve(obj))
        if not starts:
            return np.zeros((0, len(self.surface.edge_pairs)), dtype=np.int64)
        return np.add.reduceat(self._table.rows[idx], starts, axis=0)

    def gram(self, objs: Sequence[CurveLike]) -> np.ndarray:
        """All pairwise intersection numbers of a family, as an integer matrix."""
        C = self.coord_rows(objs)
        return C @ self.matrix @ C.T


def intersection_form(surface: TranslationSurface) -> IntersectionForm:
    """The intersection form of the surface on its edge chains."""
    return IntersectionForm(surface)
