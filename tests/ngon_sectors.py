"""The n-gon's direction sectors, their side-transition diagram, and the
subdivision of a saddle connection into unit-length pieces.

This is the test suite's oracle for the paper's subdivision length lemma:
cut an n-gon saddle connection at its crossings with the sides that are not
sandwiched in its direction's sector, and every piece is at least as long as
a side, with equality only for a side.  The library does not use it; the
tests in ``test_saddle.py`` check the lemma with it and ``test_surface.py``
pins the diagrams.  It reads the exact point tracer ``exit_through_face``
and a connection's crossings from ``intersect_oracle``, where the tests keep
that tracer: the library's walk steps levels and builds no point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from kvol.field import CycloReal, trig_value
from kvol.plane import Vec2, canonical_orientation, cross, norm2, vadd, vneg, vsub
from kvol.surface import SurfaceError, build_ngon, direction_vector

import intersect_oracle as oracle
from intersect_oracle import exit_through_face, smul


# -- direction sectors and the side-transition diagram ------------------------


def _point_at_level(a: Vec2, b: Vec2, la: CycloReal, lb: CycloReal, c: CycloReal) -> Vec2:
    """The point of segment ab at level c, for ends a and b at the different
    levels la and lb: levels are linear along a segment."""
    return vadd(a, smul((c - la) / (lb - la), vsub(b, a)))


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
    crossings = list(oracle.crossings(sc))
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
