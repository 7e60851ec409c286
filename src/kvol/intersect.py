"""Algebraic intersection numbers of closed curves on a translation surface.

A closed curve is a cyclic concatenation of saddle connections
(:class:`ClosedCurve`); a saddle connection counts as a curve only when it
closes.  A closed curve has an integer chain vector over the edge pairs
(``homology_class``), and the intersection form on chains
(:class:`IntersectionForm`), one integer matrix read off the
counterclockwise corner order at each vertex class, pairs two curves to
their algebraic intersection number exactly.  Chains sum rows of one
integer table (:class:`_ChainTable`) named by the paths of a curve's
components, so the chains of a whole family are one gather and one
segmented sum.

The library needs only these algebraic numbers.  The geometric count,
transversal crossings of exactly traced pieces plus a corner rule at cone
points, is the tests' independent judge of the form and lives with them,
in ``tests/intersect_oracle.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .plane import canonical_orientation
from .saddle import SaddleConnection
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

    def indices(self, curves: Sequence[ClosedCurve]) -> tuple[list[int], list[int]]:
        """Row indices of the chains of closed curves, component by
        component, and the position in them where each curve's rows start."""
        arc, glue, start = self.arc, self.glue, self.start
        out, starts = [], []
        for curve in curves:
            starts.append(len(out))
            for sc in curve.components:
                h, exits, last = sc.path
                out.append(start[h])
                for x in exits:
                    out.append(arc[h] + x[1])
                    h = glue[x]
                out.append(arc[h] + last)
        return out, starts

    def chain(self, curve: ClosedCurve) -> np.ndarray:
        """The chain of a closed curve over the edge pairs: its rows summed."""
        return self.rows[self.indices([curve])[0]].sum(axis=0)


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
    one-vertex surface the matrix pairs the edge curves.  The form reads
    no traced geometry, so the tests' geometric count checks it
    independently.  An open saddle connection is a ValueError.
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
        if not objs:
            return np.zeros((0, len(self.surface.edge_pairs)), dtype=np.int64)
        idx, starts = self._table.indices([self._curve(obj) for obj in objs])
        return np.add.reduceat(self._table.rows[idx], starts, axis=0)


def intersection_form(surface: TranslationSurface) -> IntersectionForm:
    """The intersection form of the surface on its edge chains."""
    return IntersectionForm(surface)
