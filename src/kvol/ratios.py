"""Intersection-to-length ratios and KVol.

KVol of a translation surface X is Vol(X) times the supremum, over pairs of
closed curves, of the algebraic intersection number divided by the product of
lengths.  On the surfaces built here that supremum is attained (or approached)
by very short configurations, which makes it computable by brute force: every
closed curve decomposes homologically, at repeated singularity visits, into
irreducible "atoms" made of at most two saddle connections, and the mediant
inequality

    |sum_ij I_ij| / (sum_i a_i)(sum_j b_j)  <=  max_ij |I_ij| / (a_i b_j)

bounds every composite pair by its best atomic sub-pair.  The brute force
therefore scans atom pairs only.

Three layers of exactness:

* intersection numbers are exact integers from the homology pairing;
* squared lengths of saddle connections are exact field elements; curve
  lengths are sums of square roots, handled as expressions in a real
  multi-quadratic extension with a fully decidable sign routine
  (``u + v*sqrt(D)`` is signed by recursively signing ``u``, ``v`` and
  ``u^2 - v^2 D``);
* floating point appears only as a filter in front of exact work.

One engine scans the pairs.  A single float pass (``_scan_pairs``) computes
every pair's intersection number exactly (a matrix product of the form's
coordinate rows, in doubles below 2^53) and its ratio in floating point,
block by block.  A connection's float length is ``hypot`` of its holonomy
floats, read from the packed digits, so the pass does no field arithmetic.
``float(c)`` of c = sum c_i Phi^i is the double nearest a value within
2^-60 |c| of c (``field._to_float``), so within (2^-53 + 2^-60) |c|,
however far the c_i cancel.  A length, ``hypot`` of the holonomy floats
(under one ulp, 2^-52, of its own error), is then off by at most the relative

    eta = sqrt(2) (2^-53 + 2^-60) + 2^-52 < 4e-16,

and a ratio of two curves of at most two components by at most
2 eta + 2^-50 < 2e-15, on every surface and for every n.  The root of the
float squared length, sqrt(float(|hol|^2)), is off by at most
(2^-53 + 2^-60) / 2 + 2^-52 < 3e-16.  Each use of the float ratio keeps a
margin far above that error:

* near-maximum slack 1e-9 (``_NEAR_MAX``): every pair within this fraction of
  the float maximum goes on to one exact tournament in the radical field
  (``_exact_max``), which returns the exact maximum and all pairs tied with
  it; a true maximizer cannot sit further below the float maximum than the
  float error;
* bound margin 1e-6 (``_BOUND_MARGIN``): bound certification accepts a pair on
  the float ratio alone when it is at most ``bound (1 - 1e-6)`` and decides
  every other pair exactly.

All four callers run this pass: brute force, bound certification, the
directional constant and the parallel check (its pairs above a floor of 0).
``K(d, d')`` needs no square roots - the wedge of two holonomies is a field
element - so its near-maximum pairs are compared entirely in the field, with
the same tournament loop (``_argmax_ties``).

The closed-formula evaluator composes the exact constant ``K_0`` with the
hyperbolic distance from the marked point to the orbit of maximal-ratio
geodesics; it applies to n = 0 mod 4, where the surface has a single
singularity.  For n = 2 mod 4 only the upper bound ``1/(Phi l_m^2)`` is
available (``bound_4m2``), together with the explorer for the conjectured
value ``1/(2 l_0^2)`` on the n-gon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .field import CycloReal, as_field, sqrt_in_field, trig_value
from .hyperbolic import OrbitWitness, nearest_witness
from .intersect import ClosedCurve, IntersectionForm, intersection_form
from .plane import Mat2, canonical_orientation, cross, direction_pair, vneg
from .saddle import SaddleConnection, enumerate_saddle_connections
from .surface import TranslationSurface, build_ngon, build_staircase, direction_vector


class UnrealizedDirectionError(RuntimeError):
    """No saddle connection in the requested direction within the bound."""


class UnsupportedCaseError(RuntimeError):
    """The requested computation is outside the method's hypotheses."""


# ---------------------------------------------------------------------------
# exact arithmetic with square roots of field elements
# ---------------------------------------------------------------------------
#
# An expression is a dict mapping frozensets of radicand indices to field
# coefficients: {S: c} stands for sum of c * prod_{i in S} sqrt(D_i).  The
# radicands D_i are positive with no square root in the field, and two may
# differ by a square factor.  Nothing needs them independent.  ``sign``
# decides u + w sqrt(R) from the signs of u, w and u^2 - w^2 R, for any R > 0.
# A length product l(a)^2 l(b)^2 with a radical term is never a field element:
# each l^2 is a field element or A + 2 sqrt(Q), so every radical coefficient
# is positive; if sqrt(R) = c sqrt(Q) with c > 0 in the field the sqrt(Q)
# terms add up, and otherwise 1, sqrt(Q), sqrt(R), sqrt(QR) are independent.
# So witness sets, ``exact_ratio`` and bound verdicts are the same either way.

_Expr = dict


class _RadicalContext:
    def __init__(self, n: int):
        self.n = n
        self.radicands: list[CycloReal] = []
        self._sqrt_cache: dict[CycloReal, _Expr] = {}
        self._length_sq: dict[ClosedCurve, _Expr] = {}
        self._one = CycloReal.from_rational(n, 1)

    def length_sq(self, curve: ClosedCurve) -> _Expr:
        """(sum of component lengths)^2 of a closed curve as an exact radical
        expression, built once per curve."""
        e = self._length_sq.get(curve)
        if e is None:
            parts = [sc.length_sq for sc in curve.components]
            e = self.const(0)
            for p in parts:
                e = self.add(e, self.const(p))
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    e = self.add(e, self.scale(self.sqrt(parts[i] * parts[j]), 2))
            self._length_sq[curve] = e
        return e

    def const(self, c) -> _Expr:
        v = as_field(self.n, c)
        return {} if v.is_zero() else {frozenset(): v}

    def sqrt(self, D: CycloReal) -> _Expr:
        """An expression for sqrt(D), with D >= 0 exact."""
        cached = self._sqrt_cache.get(D)
        if cached is not None:
            return dict(cached)
        s = D.sign()
        if s < 0:
            raise ValueError("negative radicand")
        if s == 0:
            out: _Expr = {}
        else:
            r = sqrt_in_field(D)
            if r is not None:
                out = {frozenset(): r}
            else:
                self.radicands.append(D)
                out = {frozenset((len(self.radicands) - 1,)): self._one}
        self._sqrt_cache[D] = out
        return dict(out)

    def add(self, e1: _Expr, e2: _Expr) -> _Expr:
        out = dict(e1)
        for S, c in e2.items():
            v = out.get(S)
            v = c if v is None else v + c
            if v.is_zero():
                out.pop(S, None)
            else:
                out[S] = v
        return out

    def scale(self, e: _Expr, c) -> _Expr:
        v = as_field(self.n, c)
        if v.is_zero():
            return {}
        return {S: x * v for S, x in e.items()}

    def mul(self, e1: _Expr, e2: _Expr) -> _Expr:
        out: _Expr = {}
        for S, a in e1.items():
            for T, b in e2.items():
                c = a * b
                for i in S & T:
                    c = c * self.radicands[i]
                U = S ^ T
                v = out.get(U)
                v = c if v is None else v + c
                if v.is_zero():
                    out.pop(U, None)
                else:
                    out[U] = v
        return out

    def sign(self, e: _Expr) -> int:
        """Exact sign of an expression (every radical is a nonnegative root)."""
        e = {S: c for S, c in e.items() if not c.is_zero()}
        if not e:
            return 0
        support = set()
        for S in e:
            support |= S
        if not support:
            return e[frozenset()].sign()
        i = max(support)
        u = {S: c for S, c in e.items() if i not in S}
        w = {S - {i}: c for S, c in e.items() if i in S}
        su = self.sign(u)
        sw = self.sign(w)
        if sw == 0:
            return su
        if su == 0:
            return sw
        if su == sw:
            return su
        diff = self.add(self.mul(u, u), self.scale(self.mul(w, w), -self.radicands[i]))
        return su * self.sign(diff)

    def to_float(self, e: _Expr) -> float:
        total = 0.0
        for S, c in e.items():
            v = float(c)
            for i in S:
                v *= math.sqrt(float(self.radicands[i]))
            total += v
        return total


def _plain_value(e: _Expr) -> Optional[CycloReal]:
    """The field value of a radical-free expression, else None."""
    if not e:
        return None  # zero never arises for a length square
    if len(e) == 1 and frozenset() in e:
        return e[frozenset()]
    return None


# ---------------------------------------------------------------------------
# closed-curve atoms
# ---------------------------------------------------------------------------


def closed_atoms(
    surface: TranslationSurface,
    scs: Sequence[SaddleConnection],
) -> list[ClosedCurve]:
    """Irreducible closed curves assembled from the given saddle connections.

    On a one-singularity surface every saddle connection closes and every
    longer chain decomposes, so the atoms are the single connections.  With
    two singularity classes the atoms are the closing singles plus the
    two-component chains of non-closing connections (in both relative
    orientations); chains of three or more always revisit a class and
    decompose.  Intersection-ratio maxima over all closed curves are attained
    on atoms by the mediant inequality, so scanning atoms is exhaustive.

    A later open connection b runs back to a's start, closing [a, b], or
    from it, closing [a, b reversed]; each open connection is reversed once.
    """
    nclasses = len(surface.vertex_classes)
    if nclasses > 2:
        raise UnsupportedCaseError(
            "curve atoms are only exhaustive for surfaces with at most two "
            f"singularity classes (got {nclasses})"
        )
    curves = [_closing(sc) for sc in scs if sc.start.class_id == sc.end.class_id]
    open_scs = [sc for sc in scs if sc.start.class_id != sc.end.class_id]
    flipped = [sc.reversed() for sc in open_scs]
    for i, a in enumerate(open_scs):
        start = a.start.class_id
        for b, b_rev in zip(open_scs[i + 1 :], flipped[i + 1 :]):
            curves.append(_closing(a, b_rev if b.start.class_id == start else b))
    return curves


def _closing(*components: SaddleConnection) -> ClosedCurve:
    """``ClosedCurve(components)`` for components that ``closed_atoms`` has
    already matched class to class, without the constructor's checks."""
    curve = ClosedCurve.__new__(ClosedCurve)
    curve.surface, curve.components = components[0].surface, components
    return curve


def _curve_key(curve: ClosedCurve):
    return tuple(sc._key() for sc in curve.components)


def _pair_key(a: ClosedCurve, b: ClosedCurve):
    ka, kb = _curve_key(a), _curve_key(b)
    return (ka, kb) if ka <= kb else (kb, ka)


def length_unit(surface: TranslationSurface) -> CycloReal:
    """The length unit of the surface's model, as an exact field element: the
    short side ``l_m = sin(pi/n)`` of the staircase, kept by every transform
    of it, or the side ``l_0 = 1`` of the n-gon."""
    if surface.model == "staircase":
        return trig_value(surface.n, "sin", 1)
    if surface.model == "ngon":
        return CycloReal.from_rational(surface.n, 1)
    raise UnsupportedCaseError(f"no length unit for the model {surface.model!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _label_json(label):
    """A direction label in JSON: "inf" for the horizontal, else its
    co-slope x/y as a float."""
    x, y = direction_pair(label)
    return "inf" if y == 0 else float(x / y)


def _serialize_witness(w) -> dict:
    if isinstance(w, OrbitWitness):
        return {"word": [[gen, k] for gen, k in w.word]}
    a, b, count = w
    return {
        "int": int(count),
        "curves": [
            [sc.to_dict() for sc in c.components] for c in (a, b)
        ],
    }


@dataclass
class KvolReport:
    """Result of a KVol evaluation (brute force or closed formula).

    ``value`` is Vol(X) times the best ratio found; ``exact_ratio`` is the
    best ratio as a field element when it is one (brute force only), with
    ``exact_value`` the corresponding exact Vol * ratio.  ``witnesses`` lists
    the maximizing curve pairs as ``(curve, curve, int)`` triples, or, in
    closed-formula mode, one ``OrbitWitness``: the exact frame ends, shift
    and reduction word of the nearest orbit member, whose float
    ``Geodesic`` is built on first read; in JSON it is the word alone.
    ``converged`` is set in closed-formula mode only: the flag of
    ``nearest_witness``, which certifies the orbit-distance search (its
    bound reached, its rounding bound at most 1e-12).
    """

    mode: str
    value: float
    exact_ratio: Optional[CycloReal]
    exact_value: Optional[CycloReal]
    witnesses: list
    params: dict
    converged: Optional[bool] = None

    def to_dict(self) -> dict:
        params = {"L": None, "K_max": None, "W": None}
        params.update(self.params)
        return {
            "mode": self.mode,
            "value": float(self.value),
            "exact": self.exact_value.to_dict() if self.exact_value is not None else None,
            "exact_ratio": self.exact_ratio.to_dict() if self.exact_ratio is not None else None,
            "witnesses": [_serialize_witness(w) for w in self.witnesses[:64]],
            "witness_count": len(self.witnesses),
            "params": params,
            "converged": self.converged,
        }


@dataclass
class DirectionPairReport:
    """Certified lower bound for the directional constant K(d, d')."""

    d: object
    d_prime: object
    exact: CycloReal
    value: float
    witnesses: list
    params: dict

    def to_dict(self) -> dict:
        return {
            "d": _label_json(self.d),
            "d_prime": _label_json(self.d_prime),
            "value": float(self.value),
            "exact": self.exact.to_dict(),
            "witnesses": [_serialize_witness(w) for w in self.witnesses[:64]],
            "witness_count": len(self.witnesses),
            "params": self.params,
        }


@dataclass
class BoundReport:
    """Exhaustive certification of a ratio bound over atom pairs."""

    n: int
    model: str
    L: float
    bound: CycloReal
    pairs_checked: int
    violations: list
    equalities: list
    max_ratio: float
    max_witnesses: list
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No violation among a nonempty set of checked pairs."""
        return self.pairs_checked > 0 and not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "model": self.model,
            "L": self.L,
            "bound": float(self.bound),
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "violations": [_serialize_witness(w) for w in self.violations[:64]],
            "equalities": [_serialize_witness(w) for w in self.equalities[:64]],
            "equality_count": len(self.equalities),
            "max_ratio": float(self.max_ratio),
            "max_witnesses": [_serialize_witness(w) for w in self.max_witnesses[:8]],
            "counts": self.counts,
        }


@dataclass
class ParallelReport:
    """Pairwise intersection numbers of the closed curves in one direction."""

    direction: object
    count_connections: int
    count_curves: int
    pairs_checked: int
    nonzero: list

    @property
    def ok(self) -> bool:
        """No crossing pair among a nonempty set of checked pairs."""
        return self.pairs_checked > 0 and not self.nonzero

    def to_dict(self) -> dict:
        return {
            "direction": _label_json(self.direction),
            "count_connections": self.count_connections,
            "count_curves": self.count_curves,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "nonzero": [_serialize_witness(w) for w in self.nonzero[:64]],
        }


@dataclass
class ConjectureReport:
    """Best n-gon ratio for n = 2 mod 4, against the conjectured value."""

    n: int
    L: float
    best: KvolReport
    equals_conjecture: bool
    two_side_pair_found: bool
    strictly_below_ngon_bound: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "best": self.best.to_dict(),
            "equals_conjecture": self.equals_conjecture,
            "two_side_pair_found": self.two_side_pair_found,
            "strictly_below_ngon_bound": self.strictly_below_ngon_bound,
        }


# ---------------------------------------------------------------------------
# the pair-scan engine
# ---------------------------------------------------------------------------

_NEAR_MAX = 1e-9  # relative slack below the float maximum kept for exact ranking
_BOUND_MARGIN = 1e-6  # relative margin below a bound left to the exact check
_BLOCK_ENTRIES = 1 << 12  # entries of a pair-scan block (rows x columns), at most


class _Scan(NamedTuple):
    """Result of the float pass; pairs are ``(i, j, Int)`` in scan order."""

    best: float  # float maximum of |Int| / (l_i l_j)
    crossing: int  # pairs with nonzero intersection number
    near_max: list  # pairs with ratio >= best (1 - _NEAR_MAX)
    above: list  # pairs with ratio > floor (empty without a floor)


def _float_length(curve: ClosedCurve) -> float:
    """The scan's length of a curve: the sum of ``hypot`` of each component's
    holonomy floats (``holonomy_float``), which a recorded connection keeps
    from enumeration, so no field vector is built."""
    return sum(math.hypot(*sc.holonomy_float) for sc in curve.components)


def _ratio_blocks(form: IntersectionForm, curves: Sequence[ClosedCurve]):
    """Yield (i0, I_block, R_block) over strictly-upper-triangular pairs.

    A block holds rows ``i0 <= i < i1`` and only the columns ``j >= i0``:
    ``I_block[r, c]`` is the intersection number of curves ``i0+r`` and
    ``i0+c`` and ``R_block[r, c]`` its float ratio, masked to 0 where
    ``c <= r``.  Every block has max(1, ``_BLOCK_ENTRIES // N``) rows (the
    last one fewer), so it holds at most max(``_BLOCK_ENTRIES``, N)
    entries: its arrays, a handful of that size, stay in cache and are all
    the memory the scan takes beyond the N-row inputs.  ``I_block`` is a
    float64 product, exact as max|W| max|C| E < 2^53 (W = C matrix, E edge
    pairs) bounds every partial sum, else an int64 one."""
    import numpy as np
    N = len(curves)
    if N < 2:
        return
    C = form.coord_rows(curves)
    W = C @ form.matrix
    if int(np.abs(W).max()) * int(np.abs(C).max()) * C.shape[1] < 1 << 53:
        W, C = W.astype(np.float64), C.astype(np.float64)
    lf = np.array([_float_length(c) for c in curves])
    block = max(1, _BLOCK_ENTRIES // N)
    low = np.tri(min(block, N), dtype=bool)  # c <= r, in a block's first columns
    for i0 in range(0, N, block):
        k = min(N, i0 + block) - i0
        I = W[i0:i0 + k] @ C[i0:].T
        R = np.abs(I) / (lf[i0:i0 + k, None] * lf[i0:])
        R[:, :k][low[:k, :k]] = 0.0
        yield i0, I, R


def _scan_pairs(
    form: IntersectionForm, curves: Sequence[ClosedCurve], floor: Optional[float] = None
) -> _Scan:
    """One float pass over all unordered pairs of ``curves``.

    Near-maximum candidates are collected against the running maximum and
    filtered again against the final one, so they are exactly the pairs
    with ratio >= best (1 - _NEAR_MAX).
    """
    import numpy as np
    best, crossing, near, above = 0.0, 0, [], []
    for i0, I, R in _ratio_blocks(form, curves):
        crossing += int(np.count_nonzero(R))
        best = max(best, top := float(R.max()))
        if top >= best * (1.0 - _NEAR_MAX) > 0.0:  # at best 0 it would take every pair
            for r, c in zip(*np.nonzero(R >= best * (1.0 - _NEAR_MAX))):
                near.append((float(R[r, c]), (i0 + int(r), i0 + int(c), int(I[r, c]))))
        if floor is not None and top > floor:
            for r, c in zip(*np.nonzero(R > floor)):
                above.append((i0 + int(r), i0 + int(c), int(I[r, c])))
    thr = best * (1.0 - _NEAR_MAX)
    return _Scan(best, crossing, [p for ratio, p in near if ratio >= thr], above)


def _argmax_ties(items, cmp):
    """The first maximal item and the list of all items tied with it.

    ``cmp(x, y)`` is the sign of ``x - y`` in the order being maximized; with
    no items the result is ``(None, [])``.
    """
    best, ties = None, []
    for x in items:
        s = 1 if best is None else cmp(x, best)
        if s > 0:
            best, ties = x, [x]
        elif s == 0:
            ties.append(x)
    return best, ties


def _exact_max(ctx: _RadicalContext, curves: Sequence[ClosedCurve], pairs):
    """Exact tournament of |Int| / (l_i l_j) over pairs ``(i, j, Int)``.

    The items are ``(pair, den)`` with ``den`` the radical expression
    ``(l_i l_j)^2``; returns ``_argmax_ties`` of them.
    """
    items = (
        (p, ctx.mul(ctx.length_sq(curves[p[0]]), ctx.length_sq(curves[p[1]])))
        for p in pairs
    )

    def cmp(x, y):
        #  I_x^2 / den_x  vs  I_y^2 / den_y
        (p, dp), (q, dq) = x, y
        return ctx.sign(ctx.add(ctx.scale(dq, p[2] * p[2]), ctx.scale(dp, -q[2] * q[2])))

    return _argmax_ties(items, cmp)


def _witnesses(curves: Sequence[ClosedCurve], pairs) -> list:
    """``(curve, curve, Int)`` triples of index pairs, in canonical order."""
    return sorted(
        ((curves[i], curves[j], I) for i, j, I in pairs),
        key=lambda w: _pair_key(w[0], w[1]),
    )


# ---------------------------------------------------------------------------
# the headline computations
# ---------------------------------------------------------------------------


def kvol_bruteforce(
    surface: TranslationSurface,
    L,
    *,
    form: Optional[IntersectionForm] = None,
) -> KvolReport:
    """Vol(X) times the exact maximum intersection ratio up to length L.

    Enumerates every saddle connection of length at most ``L``, assembles the
    closed-curve atoms, and maximizes |Int(a, b)| / (l(a) l(b)) with exact
    comparisons.  The result is a certified lower bound for KVol(X) that is
    exact once ``L`` reaches the maximizing configuration.
    """
    scs = enumerate_saddle_connections(surface, L)
    curves = closed_atoms(surface, scs)
    if len(curves) < 2:
        raise UnrealizedDirectionError(
            f"fewer than two closed curves of length <= {float(L):g}"
        )
    if form is None:
        form = intersection_form(surface)
    ctx = _RadicalContext(surface.n)
    best, ties = _exact_max(ctx, curves, _scan_pairs(form, curves).near_max)
    area = surface.area()
    exact_ratio = CycloReal.from_rational(surface.n, 0)  # no crossing pair
    if best is not None:
        (_, _, I), den = best
        plain = _plain_value(den)
        root = None if plain is None else sqrt_in_field(plain)
        exact_ratio = None if root is None else CycloReal.from_rational(surface.n, abs(I)) / root
    if exact_ratio is None:
        exact_value, value = None, float(area) * (abs(I) / math.sqrt(ctx.to_float(den)))
    else:
        exact_value = area * exact_ratio
        value = float(exact_value)
    return KvolReport(
        mode="bruteforce",
        value=value,
        exact_ratio=exact_ratio,
        exact_value=exact_value,
        witnesses=_witnesses(curves, (p for p, _ in ties)),
        params={
            "L": float(L),
            "count_connections": len(scs),
            "count_curves": len(curves),
        },
    )


def _canonical_pair(n: int, d1, d2):
    """Two direction labels as exact co-slopes ordered by value, the
    horizontal ("inf") greatest; reject parallel directions.

    With both vectors turned into the upper half-plane, the co-slope of
    ``u`` is below that of ``v`` exactly when ``cross(u, v) < 0``."""
    u, v = (direction_vector(n, d) for d in (d1, d2))
    u, v = (w if canonical_orientation(w) else vneg(w) for w in (u, v))
    s = cross(u, v).sign()
    if s == 0:
        raise ValueError("directions coincide")
    return (_coslope(u), _coslope(v)) if s < 0 else (_coslope(v), _coslope(u))


def _coslope(v):
    """The label a report keeps for an exact direction vector: "inf" for the
    horizontal, else the co-slope x/y in the field."""
    return "inf" if v[1].is_zero() else v[0] / v[1]


def K_of_directions(
    surface: TranslationSurface,
    d1,
    d2,
    L,
    *,
    form: Optional[IntersectionForm] = None,
) -> DirectionPairReport:
    """Certified lower bound for K(d, d') = sup |Int(a, b)| / |hol(a) ^ hol(b)|.

    The supremum runs over closed curves ``a`` in direction ``d`` and ``b`` in
    direction ``d'`` whose components all point the same way, so that a
    curve's length is |hol|: the atoms of connections of length at most
    ``L`` in each direction, less the unions ``a + reverse(b)`` (recorded
    connections are canonically oriented).  Then |hol(a) ^ hol(b)| =
    l(a) l(b) |sin theta| with one theta per call, so the float pass ranks
    pairs as K does; its near-maximum pairs, which cross between the two
    families (curves of one direction never cross), are compared exactly in
    the field, and the reported value is exact.
    """
    d_lo, d_hi = _canonical_pair(surface.n, d1, d2)
    if form is None:
        form = intersection_form(surface)
    families = []
    for d in (d_lo, d_hi):
        atoms = closed_atoms(surface, enumerate_saddle_connections(surface, L, direction=d))
        families.append(
            [c for c in atoms if all(canonical_orientation(sc.holonomy) for sc in c.components)]
        )
        if not families[-1]:
            raise UnrealizedDirectionError(
                f"no closed curve along direction {d!r} within length {float(L):g}"
            )
    curves = families[0] + families[1]
    split = len(families[0])
    items = []  # (i, j, |Int|, |hol_i ^ hol_j|), the wedge summed over components
    for i, j, I in _scan_pairs(form, curves).near_max:
        if i < split <= j:
            comps = curves[i].components, curves[j].components
            w = sum(cross(p.holonomy, q.holonomy) for p in comps[0] for q in comps[1])
            items.append((i, j, abs(I), abs(w)))
    #  I_x/w_x  vs  I_y/w_y  <=>  sign(I_x w_y - I_y w_x)
    best, ties = _argmax_ties(items, lambda x, y: (y[3] * x[2] - x[3] * y[2]).sign())
    if best is None:
        zero = CycloReal.from_rational(surface.n, 0)
        return DirectionPairReport(d_lo, d_hi, zero, 0.0, [], {"L": float(L)})
    exact = CycloReal.from_rational(surface.n, best[2]) / best[3]
    return DirectionPairReport(
        d=d_lo,
        d_prime=d_hi,
        exact=exact,
        value=float(exact),
        witnesses=_witnesses(curves, (p[:3] for p in ties)),
        params={"L": float(L)},
    )


@lru_cache(maxsize=None)
def k0_constant(n: int) -> CycloReal:
    """The exact constant K_0 = Vol(S_n) / (Phi l_m^2).

    This is the peak value of the KVol landscape: Vol times the maximal
    directional constant, attained on the distinguished vertical geodesics.
    """
    S = build_staircase(n)
    lm = length_unit(S)
    return S.area() / (CycloReal.phi(n) * lm * lm)


def require_closed_formula(n: int) -> None:
    """The closed formula's gate: n = 0 mod 4 and n >= 8, else unsupported."""
    if n % 4 != 0 or n < 8:
        raise UnsupportedCaseError("closed formula requires n ≡ 0 mod 4; use kvol-bound")


def kvol_closed_formula(
    n: int,
    z: complex,
    *,
    k_max: int = 12,
    word_len: int = 10,
) -> KvolReport:
    """KVol at a point of the upper half plane: K_0 / cosh(dist to the orbit
    of maximal-ratio geodesics).

    Valid for n = 0 mod 4 (single singularity class); for n = 2 mod 4 only
    bounds are available - see ``bound_4m2``.  The distance search is exact
    (``nearest_witness``); ``k_max`` and ``word_len`` no longer bound
    it and are only reported in ``params``.
    """
    require_closed_formula(n)
    dist, converged, witness = nearest_witness(z, n)
    k0 = float(k0_constant(n))
    return KvolReport(
        mode="closed_formula",
        value=k0 / math.cosh(dist),
        exact_ratio=None,
        exact_value=None,
        witnesses=[witness],
        params={"L": None, "K_max": k_max, "W": word_len, "dist": dist, "K0": k0},
        converged=converged,
    )


# ---------------------------------------------------------------------------
# bound certification
# ---------------------------------------------------------------------------


def _certify_bound(
    surface: TranslationSurface,
    L,
    bound: CycloReal,
    model: str,
) -> BoundReport:
    """Certify |Int|/(l l') <= bound over all unordered atom pairs up to L.

    Pairs whose float ratio is at most ``bound (1 - _BOUND_MARGIN)`` are
    certified by the float pass; the rest are decided exactly in the radical
    field.  The report carries the violations, the equalities, the float
    maximum with the pairs exactly tied at the maximum, and the counts.

    The reported float maximum uses lengths sqrt(float(|hol|^2)), in the
    float operations of a scan with those lengths, over the near-maximum
    pairs only; it is that scan's maximum to the bit, because that scan's
    argmax is a near-maximum pair.  With relative ratio errors d for these
    lengths and d' for the scan's (module docstring: both below 2e-15), the
    argmax's scan ratio is at least the scan's maximum times
    (1 - d)(1 - d') / ((1 + d)(1 + d')) >= 1 - 2 (d + d'), far inside the
    1e-9 window.
    """
    curves = closed_atoms(surface, enumerate_saddle_connections(surface, L))
    floor = float(bound) * (1.0 - _BOUND_MARGIN)
    scan = _scan_pairs(intersection_form(surface), curves, floor=floor)
    ctx = _RadicalContext(surface.n)
    b2 = bound * bound
    violations, equalities = [], []
    for p in scan.above:
        i, j, I = p
        den = ctx.mul(ctx.length_sq(curves[i]), ctx.length_sq(curves[j]))
        s = ctx.sign(ctx.add(ctx.scale(den, b2), ctx.const(-I * I)))
        if s < 0:
            violations.append(p)
        elif s == 0:
            equalities.append(p)
    _, ties = _exact_max(ctx, curves, scan.near_max)
    max_ratio = max(
        (
            abs(I) / (curves[i].length * curves[j].length)
            for i, j, I in scan.near_max
        ),
        default=0.0,
    )
    npairs = len(curves) * (len(curves) - 1) // 2
    return BoundReport(
        n=surface.n,
        model=model,
        L=float(L),
        bound=bound,
        pairs_checked=npairs,
        violations=_witnesses(curves, violations),
        equalities=_witnesses(curves, equalities),
        max_ratio=max_ratio,
        max_witnesses=_witnesses(curves, (p for p, _ in ties)),
        counts={
            "curves": len(curves),
            "pairs": npairs,
            "crossing_pairs": scan.crossing,
            "exact_checked": len(scan.above),
        },
    )


def verify_ngon_bound(n: int, L=3) -> BoundReport:
    """Certify the n-gon ratio bound 1/l_0^2 over all atom pairs up to L.

    For n = 0 mod 4 the equality cases are expected to be exactly the pairs
    of distinct sides; for n = 2 mod 4 the bound is strict (no equalities).
    The report lists whatever the exact check finds; callers assert.
    """
    bound = CycloReal.from_rational(n, 1)  # sides have unit length
    return _certify_bound(build_ngon(n), L, bound, "ngon")


def side_pairs(n: int) -> int:
    """Number of unordered pairs of distinct sides of the n-gon model."""
    m = n // 2
    return m * (m - 1) // 2


def is_side_pair_witness(w) -> bool:
    """True when a witness is a pair of single-edge curves on distinct sides."""
    a, b, _ = w
    if len(a.components) != 1 or len(b.components) != 1:
        return False
    pa, pb = a.components[0].edge_pair, b.components[0].edge_pair
    return pa is not None and pb is not None and pa != pb


def check_parallel_criterion(surface: TranslationSurface, d, L) -> ParallelReport:
    """Pairwise intersection numbers of all closed curves in one direction.

    Closed curves built from parallel saddle connections never cross each
    other transversally and their algebraic intersection numbers vanish; this
    checks that exactly, over every atom (including the two-component unions
    in both relative orientations) assembled from connections of length at
    most ``L`` in direction ``d`` (``None`` is the horizontal, as for every
    direction label).
    """
    v = direction_vector(surface.n, d)
    scs = enumerate_saddle_connections(surface, L, direction=v)
    if not scs:
        raise UnrealizedDirectionError(
            f"no saddle connection in direction {d!r} within length {float(L):g} "
            "(direction not periodic?)"
        )
    curves = closed_atoms(surface, scs)
    above = _scan_pairs(intersection_form(surface), curves, floor=0.0).above
    return ParallelReport(
        direction=_coslope(v),
        count_connections=len(scs),
        count_curves=len(curves),
        pairs_checked=len(curves) * (len(curves) - 1) // 2,
        nonzero=[(curves[i], curves[j], I) for i, j, I in above],
    )


def bound_4m2(n: int, L, *, M: Optional[Mat2] = None) -> BoundReport:
    """Certify the ratio bound 1/(Phi l_m^2) on a sheared staircase, n = 2 mod 4.

    ``M`` (unimodular) moves the surface inside its Teichmueller disk; the
    bound is uniform over the disk.  Equalities are allowed - the bound is
    attained on the distinguished geodesics - and reported.
    """
    if n % 4 != 2 or n < 10:
        raise UnsupportedCaseError("this bound is for n ≡ 2 mod 4, n >= 10")
    S = build_staircase(n)
    if M is not None:
        det = M.det()
        if not (det * det - 1).is_zero():
            raise ValueError("shear matrix must be unimodular")
        S = S.transform(M)
    lm = length_unit(S)
    bound = CycloReal.from_rational(n, 1) / (CycloReal.phi(n) * lm * lm)
    model = "staircase" if M is None else "staircase (sheared)"
    return _certify_bound(S, L, bound, model)


def explore_conjecture(n: int, L=3) -> ConjectureReport:
    """Search the n-gon (n = 2 mod 4) for the conjectured maximal ratio.

    The conjectured maximizers are pairs of two-side closed curves crossing
    twice, with ratio 2/(2 l_0)^2 = 1/(2 l_0^2).  Reports the exact best
    ratio found up to ``L``, whether it equals the conjectured value, whether
    a maximizing pair of that shape is among the witnesses, and strictness
    below the n-gon bound 1/l_0^2.
    """
    if n % 4 != 2 or n < 10:
        raise UnsupportedCaseError("the conjecture concerns n ≡ 2 mod 4, n >= 10")
    X = build_ngon(n)
    best = kvol_bruteforce(X, L)
    half = CycloReal.from_rational(n, Fraction(1, 2))
    equals = best.exact_ratio is not None and best.exact_ratio == half
    one = CycloReal.from_rational(n, 1)

    def is_two_side_pair(w) -> bool:
        a, b, I = w
        if len(a.components) != 2 or len(b.components) != 2:
            return False
        for c in (a, b):
            for sc in c.components:
                if sc.edge_pair is None or sc.length_sq != one:
                    return False
        return abs(I) == 2

    found = any(is_two_side_pair(w) for w in best.witnesses)
    strict = True  # no crossing pair: the ratio is 0
    if best.witnesses:  # the ratio is below 1 exactly when (l_a l_b)^2 - I^2 > 0
        ctx, (a, b, I) = _RadicalContext(n), best.witnesses[0]
        strict = ctx.sign(ctx.add(ctx.mul(ctx.length_sq(a), ctx.length_sq(b)), ctx.const(-I * I))) > 0
    return ConjectureReport(
        n=n,
        L=float(L),
        best=best,
        equals_conjecture=equals,
        two_side_pair_found=found,
        strictly_below_ngon_bound=strict,
    )
