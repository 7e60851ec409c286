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
* floating point appears only as a sound prefilter: a pair is dismissed
  without exact work when its float ratio sits below the target by a margin
  (1e-6) that dwarfs the float error (~1e-13 relative).

The directional constant ``K(d, d')`` needs no square roots at all - the
wedge of two holonomies is a field element - so it is computed and compared
entirely in the field.

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
from typing import Optional, Sequence

import numpy as np

from .field import CycloReal, fmt_float, sqrt_in_field, trig_value
from .hyperbolic import Geodesic, nearest_gmax_geodesic
from .intersect import ClosedCurve, IntersectionForm, intersection_form
from .plane import Mat2, cross, is_horizontal_label, norm2
from .saddle import SaddleConnection, enumerate_saddle_connections
from .surface import TranslationSurface, build_ngon, build_staircase


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
# context keeps the list of radicands D_i (each positive, none a perfect
# square, pairwise with non-square products, so the radicals are independent
# where it matters and redundant ones are folded away eagerly).

_Expr = dict


class _RadicalContext:
    def __init__(self, n: int):
        self.n = n
        self.radicands: list[CycloReal] = []
        self._sqrt_cache: dict[CycloReal, _Expr] = {}
        self._one = CycloReal.from_rational(n, 1)

    def const(self, c) -> _Expr:
        v = c if isinstance(c, CycloReal) else CycloReal.from_rational(self.n, c)
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
                out = None
                for i, R in enumerate(self.radicands):
                    t = sqrt_in_field(D * R)
                    if t is not None:  # sqrt(D) = (t/R) sqrt(R)
                        out = {frozenset((i,)): t / R}
                        break
                if out is None:
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
        v = c if isinstance(c, CycloReal) else CycloReal.from_rational(self.n, c)
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


def _curve_length_sq_expr(ctx: _RadicalContext, curve: ClosedCurve) -> _Expr:
    """(sum of component lengths)^2 as an exact radical expression."""
    parts = [sc.length_sq for sc in curve.components]
    out = ctx.const(0)
    for p in parts:
        out = ctx.add(out, ctx.const(p))
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            out = ctx.add(out, ctx.scale(ctx.sqrt(parts[i] * parts[j]), 2))
    return out


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
    *,
    max_components: Optional[int] = None,
) -> list[ClosedCurve]:
    """Irreducible closed curves assembled from the given saddle connections.

    On a one-singularity surface every saddle connection closes and every
    longer chain decomposes, so the atoms are the single connections.  With
    two singularity classes the atoms are the closing singles plus the
    two-component chains of non-closing connections (in both relative
    orientations); chains of three or more always revisit a class and
    decompose.  Intersection-ratio maxima over all closed curves are attained
    on atoms by the mediant inequality, so scanning atoms is exhaustive.
    """
    nclasses = len(surface.vertex_classes)
    if nclasses > 2:
        raise UnsupportedCaseError(
            "curve atoms are only exhaustive for surfaces with at most two "
            f"singularity classes (got {nclasses})"
        )
    if max_components is None:
        max_components = 1 if nclasses == 1 else 2
    curves = [
        ClosedCurve([sc]) for sc in scs if sc.start.class_id == sc.end.class_id
    ]
    if max_components >= 2:
        open_scs = [sc for sc in scs if sc.start.class_id != sc.end.class_id]
        for i, a in enumerate(open_scs):
            for b in open_scs[i + 1 :]:
                if (
                    b.start.class_id == a.end.class_id
                    and b.end.class_id == a.start.class_id
                ):
                    curves.append(ClosedCurve([a, b]))
                elif (
                    b.start.class_id == a.start.class_id
                    and b.end.class_id == a.end.class_id
                ):
                    curves.append(ClosedCurve([a, b.reversed()]))
    return curves


def _curve_key(curve: ClosedCurve):
    return tuple(sc._key() for sc in curve.components)


def _pair_key(a: ClosedCurve, b: ClosedCurve):
    ka, kb = _curve_key(a), _curve_key(b)
    return (ka, kb) if ka <= kb else (kb, ka)


def length_unit(surface: TranslationSurface) -> CycloReal:
    """The shortest edge length of the surface, as an exact field element.

    This is the natural length unit of each model (the short side ``l_m`` of
    the staircase, the side ``l_0 = 1`` of the n-gon).  Raises if the minimum
    squared edge length has no square root in the field (possible after an
    irrational shear)."""
    best = None
    for pid in range(len(surface.edge_pairs)):
        h = surface.edge_pairs[pid][0]
        q = norm2(surface.edge_vector(h))
        if best is None or (q - best).sign() < 0:
            best = q
    root = sqrt_in_field(best)
    if root is None:
        raise UnsupportedCaseError("shortest edge length is not a field element")
    return root


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _serialize_witness(w) -> dict:
    if isinstance(w, tuple) and len(w) and isinstance(w[0], Geodesic):
        g, word = w
        geo = (
            {"type": "vertical", "foot": g.foot}
            if g.is_vertical
            else {"type": "circle", "center": g.center, "radius": g.radius}
        )
        return {"geodesic": geo, "word": [[t, k] for t, k in word]}
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
    the maximizing curve pairs as ``(curve, curve, int)`` triples, or the
    minimizing geodesic plus reduction word in closed-formula mode.
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
        for k, v in list(params.items()):
            if isinstance(v, CycloReal):
                params[k] = float(v)
        return {
            "mode": self.mode,
            "value": float(fmt_float(self.value)),
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

    def __iter__(self):
        return iter((self.exact, self.witnesses))

    def to_dict(self) -> dict:
        def lab(x):
            return "inf" if is_horizontal_label(x) else float(x)

        return {
            "d": lab(self.d),
            "d_prime": lab(self.d_prime),
            "value": float(fmt_float(self.value)),
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
        return not self.violations

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
            "max_ratio": float(fmt_float(self.max_ratio)),
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
        return not self.nonzero

    def to_dict(self) -> dict:
        return {
            "direction": "inf" if is_horizontal_label(self.direction) else float(self.direction),
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
# pair scans
# ---------------------------------------------------------------------------


def _coord_rows(form: IntersectionForm, curves: Sequence[ClosedCurve]) -> np.ndarray:
    rows = [form.coords(form.class_vector(c)) for c in curves]
    return np.array(rows, dtype=np.int64)


def _float_lengths(curves: Sequence[ClosedCurve]) -> np.ndarray:
    return np.array(
        [sum(math.sqrt(float(sc.length_sq)) for sc in c.components) for c in curves]
    )


def _ratio_blocks(form: IntersectionForm, curves, lf):
    """Yield (i0, I_block, R_block) over strictly-upper-triangular pairs.

    ``I_block[r, j]`` is the intersection number of curves ``i0+r`` and ``j``;
    entries with ``j <= i0+r`` are masked to ratio 0.
    """
    if len(curves) < 2:
        return
    C = _coord_rows(form, curves)
    W = C @ form.matrix
    N = len(curves)
    block = max(64, min(N, (1 << 22) // max(N, 1)))
    for i0 in range(0, N, block):
        i1 = min(N, i0 + block)
        I = W[i0:i1] @ C.T
        R = np.abs(I) / np.outer(lf[i0:i1], lf)
        cols = np.arange(N)[None, :]
        rows = np.arange(i0, i1)[:, None]
        R[cols <= rows] = 0.0
        yield i0, I, R


def _max_over_pairs(surface, curves, form, *, rel_slack=1e-9):
    """Exact maximum of |Int|/(length*length) over unordered atom pairs.

    Returns ``(ratio_float, exact_ratio_or_None, witnesses, den_expr, I)``
    where the witnesses are all pairs attaining the exact maximum.  A float
    scan locates the near-maximal pairs; an exact tournament in the radical
    field then orders them.
    """
    lf = _float_lengths(curves)
    best_f = 0.0
    for _, _, R in _ratio_blocks(form, curves, lf):
        m = float(R.max()) if R.size else 0.0
        if m > best_f:
            best_f = m
    if best_f == 0.0:
        zero = CycloReal.from_rational(surface.n, 0)
        return 0.0, zero, [], None, 0
    thr = best_f * (1.0 - rel_slack)
    cand = []
    for i0, I, R in _ratio_blocks(form, curves, lf):
        for r, j in zip(*np.nonzero(R >= thr)):
            cand.append((i0 + int(r), int(j), int(I[r, j])))
    ctx = _RadicalContext(surface.n)
    lsq_cache: dict[int, _Expr] = {}

    def lsq(i: int) -> _Expr:
        e = lsq_cache.get(i)
        if e is None:
            e = _curve_length_sq_expr(ctx, curves[i])
            lsq_cache[i] = e
        return e

    def den_of(p) -> _Expr:
        return ctx.mul(lsq(p[0]), lsq(p[1]))

    best = cand[0]
    best_den = den_of(best)
    ties = [best]
    for p in cand[1:]:
        den = den_of(p)
        # compare I_p^2 / den  vs  I_best^2 / best_den
        s = ctx.sign(
            ctx.add(
                ctx.scale(best_den, p[2] * p[2]),
                ctx.scale(den, -best[2] * best[2]),
            )
        )
        if s > 0:
            best, best_den, ties = p, den, [p]
        elif s == 0:
            ties.append(p)
    witnesses = sorted(
        ((curves[i], curves[j], I) for i, j, I in ties),
        key=lambda w: _pair_key(w[0], w[1]),
    )
    I = abs(best[2])
    exact_ratio = None
    plain = _plain_value(best_den)
    if plain is not None:
        root = sqrt_in_field(plain)
        if root is not None:
            exact_ratio = CycloReal.from_rational(surface.n, I) / root
    if exact_ratio is not None:
        ratio_f = float(exact_ratio)
    else:
        ratio_f = I / math.sqrt(ctx.to_float(best_den))
    return ratio_f, exact_ratio, witnesses, best_den, I


# ---------------------------------------------------------------------------
# the headline computations
# ---------------------------------------------------------------------------


def kvol_bruteforce(
    surface: TranslationSurface,
    L,
    *,
    max_components: Optional[int] = None,
    form: Optional[IntersectionForm] = None,
) -> KvolReport:
    """Vol(X) times the exact maximum intersection ratio up to length L.

    Enumerates every saddle connection of length at most ``L``, assembles the
    closed-curve atoms, and maximizes |Int(a, b)| / (l(a) l(b)) with exact
    comparisons.  The result is a certified lower bound for KVol(X) that is
    exact once ``L`` reaches the maximizing configuration.
    """
    scs = enumerate_saddle_connections(surface, L)
    curves = closed_atoms(surface, scs, max_components=max_components)
    if len(curves) < 2:
        raise UnrealizedDirectionError(
            f"fewer than two closed curves of length <= {float(L):g}"
        )
    if form is None:
        form = intersection_form(surface)
    ratio_f, exact_ratio, witnesses, _, _ = _max_over_pairs(surface, curves, form)
    area = surface.area()
    exact_value = area * exact_ratio if exact_ratio is not None else None
    value = float(exact_value) if exact_value is not None else float(area) * ratio_f
    return KvolReport(
        mode="bruteforce",
        value=value,
        exact_ratio=exact_ratio,
        exact_value=exact_value,
        witnesses=witnesses,
        params={
            "L": float(L),
            "count_connections": len(scs),
            "count_curves": len(curves),
        },
    )


def _canonical_pair(n: int, d1, d2):
    """Order two direction labels with the horizontal (infinite slope ratio)
    greatest; reject equal directions."""
    h1, h2 = is_horizontal_label(d1), is_horizontal_label(d2)
    if h1 and h2:
        raise ValueError("directions coincide")
    if h1:
        return d2, "inf"
    if h2:
        return d1, "inf"
    c1 = d1 if isinstance(d1, CycloReal) else CycloReal.from_rational(n, Fraction(d1))
    c2 = d2 if isinstance(d2, CycloReal) else CycloReal.from_rational(n, Fraction(d2))
    s = (c2 - c1).sign()
    if s == 0:
        raise ValueError("directions coincide")
    return (c1, c2) if s > 0 else (c2, c1)


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
    direction ``d'``; the scan covers all atoms assembled from saddle
    connections of length at most ``L`` in each direction.  Every quantity is
    a field element, so the maximum and the reported value are exact.
    """
    d_lo, d_hi = _canonical_pair(surface.n, d1, d2)
    if form is None:
        form = intersection_form(surface)
    families = []
    for d in (d_lo, d_hi):
        scs = enumerate_saddle_connections(surface, L, direction=d)
        if not scs:
            raise UnrealizedDirectionError(
                f"no saddle connection in direction {d!r} within length {float(L):g}"
            )
        atoms = closed_atoms(surface, scs)
        curves = []
        for c in atoms:
            hx, hy = c.components[0].holonomy
            for sc in c.components[1:]:
                hx, hy = hx + sc.holonomy[0], hy + sc.holonomy[1]
            if not (hx.is_zero() and hy.is_zero()):
                curves.append((c, (hx, hy)))
        if not curves:
            raise UnrealizedDirectionError(
                f"no closed curve with nonzero holonomy in direction {d!r} "
                f"within length {float(L):g}"
            )
        families.append(curves)
    best = None  # (|I|, |wedge|)
    ties = []
    for a, ha in families[0]:
        for b, hb in families[1]:
            w = cross(ha, hb)
            if w.is_zero():
                continue
            if w.sign() < 0:
                w = -w
            I = abs(form.pair(a, b))
            if I == 0:
                continue
            if best is None:
                best, ties = (I, w), [(a, b, I)]
                continue
            #  I/w  vs  I_best/w_best  <=>  sign(I * w_best - I_best * w)
            s = (best[1] * I - w * best[0]).sign()
            if s > 0:
                best, ties = (I, w), [(a, b, I)]
            elif s == 0:
                ties.append((a, b, I))
    if best is None:
        zero = CycloReal.from_rational(surface.n, 0)
        return DirectionPairReport(d_lo, d_hi, zero, 0.0, [], {"L": float(L)})
    exact = CycloReal.from_rational(surface.n, best[0]) / best[1]
    witnesses = sorted(ties, key=lambda w: _pair_key(w[0], w[1]))
    return DirectionPairReport(
        d=d_lo,
        d_prime=d_hi,
        exact=exact,
        value=float(exact),
        witnesses=witnesses,
        params={"L": float(L)},
    )


@lru_cache(maxsize=None)
def k0_constant(n: int) -> CycloReal:
    """The exact constant K_0 = Vol(S_n) / (Phi l_m^2).

    This is the peak value of the KVol landscape: Vol times the maximal
    directional constant, attained on the distinguished vertical geodesics.
    """
    S = build_staircase(n)
    phi = CycloReal.phi(n)
    lm = trig_value(n, "sin", 1)
    return S.area() / (phi * lm * lm)


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
    bounds are available - see ``bound_4m2``.
    """
    if n % 4 != 0 or n < 8:
        raise UnsupportedCaseError("closed formula requires n ≡ 0 mod 4; use kvol-bound")
    dist, converged, geod, word = nearest_gmax_geodesic(
        complex(z), n, k_max=k_max, word_len=word_len
    )
    k0 = k0_constant(n)
    return KvolReport(
        mode="closed_formula",
        value=float(k0) / math.cosh(dist),
        exact_ratio=None,
        exact_value=None,
        witnesses=[(geod, word)],
        params={"L": None, "K_max": k_max, "W": word_len, "dist": dist, "K0": float(k0)},
        converged=converged,
    )


# ---------------------------------------------------------------------------
# bound certification
# ---------------------------------------------------------------------------


def _certify_bound(surface, curves, form, bound: CycloReal, *, margin=1e-6):
    """Certify |Int|/(l l') <= bound over all unordered atom pairs.

    Pairs whose float ratio is below ``bound (1 - margin)`` are certified by
    the float computation (whose relative error is ~1e-13); the rest are
    decided exactly in the radical field.  Returns violation and equality
    witness lists, the float maximum with its witnesses, and certification
    counts.
    """
    lf = _float_lengths(curves)
    boundf = float(bound)
    near = []
    best_f = 0.0
    best_pairs = []
    total = 0
    for i0, I, R in _ratio_blocks(form, curves, lf):
        total += int(np.count_nonzero(R)) if R.size else 0
        m = float(R.max()) if R.size else 0.0
        if m > best_f * (1.0 + 1e-12):
            best_f = m
            best_pairs = []
        if m >= best_f * (1.0 - 1e-12) and m > 0:
            for r, j in zip(*np.nonzero(R >= best_f * (1.0 - 1e-12))):
                best_pairs.append((i0 + int(r), int(j), int(I[r, j])))
        for r, j in zip(*np.nonzero(R > boundf * (1.0 - margin))):
            near.append((i0 + int(r), int(j), int(I[r, j])))
    npairs = len(curves) * (len(curves) - 1) // 2
    ctx = _RadicalContext(surface.n)
    lsq_cache: dict[int, _Expr] = {}

    def lsq(i):
        e = lsq_cache.get(i)
        if e is None:
            e = _curve_length_sq_expr(ctx, curves[i])
            lsq_cache[i] = e
        return e

    b2 = bound * bound
    violations, equalities = [], []
    for i, j, I in near:
        den = ctx.mul(lsq(i), lsq(j))
        s = ctx.sign(ctx.add(ctx.scale(den, b2), ctx.const(-I * I)))
        w = (curves[i], curves[j], I)
        if s < 0:
            violations.append(w)
        elif s == 0:
            equalities.append(w)
    best_pairs = sorted(set(best_pairs))
    max_witnesses = sorted(
        ((curves[i], curves[j], I) for i, j, I in best_pairs),
        key=lambda w: _pair_key(w[0], w[1]),
    )
    violations.sort(key=lambda w: _pair_key(w[0], w[1]))
    equalities.sort(key=lambda w: _pair_key(w[0], w[1]))
    counts = {
        "curves": len(curves),
        "pairs": npairs,
        "crossing_pairs": total,
        "exact_checked": len(near),
    }
    return violations, equalities, best_f, max_witnesses, counts, npairs


def verify_ngon_bound(n: int, L=3, *, form: Optional[IntersectionForm] = None) -> BoundReport:
    """Certify the n-gon ratio bound 1/l_0^2 over all atom pairs up to L.

    For n = 0 mod 4 the equality cases are expected to be exactly the pairs
    of distinct sides; for n = 2 mod 4 the bound is strict (no equalities).
    The report lists whatever the exact check finds; callers assert.
    """
    X = build_ngon(n)
    scs = enumerate_saddle_connections(X, L)
    curves = closed_atoms(X, scs)
    if form is None:
        form = intersection_form(X)
    bound = CycloReal.from_rational(n, 1)  # sides have unit length
    violations, equalities, best_f, max_w, counts, npairs = _certify_bound(
        X, curves, form, bound
    )
    return BoundReport(
        n=n,
        model="ngon",
        L=float(L),
        bound=bound,
        pairs_checked=npairs,
        violations=violations,
        equalities=equalities,
        max_ratio=best_f,
        max_witnesses=max_w,
        counts=counts,
    )


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


def check_parallel_criterion(
    surface: TranslationSurface,
    d,
    L,
    *,
    form: Optional[IntersectionForm] = None,
) -> ParallelReport:
    """Pairwise intersection numbers of all closed curves in one direction.

    Closed curves built from parallel saddle connections never cross each
    other transversally and their algebraic intersection numbers vanish; this
    checks that exactly, over every atom (including the two-component unions
    in both relative orientations) assembled from connections of length at
    most ``L`` in direction ``d``.
    """
    scs = enumerate_saddle_connections(surface, L, direction=d)
    if not scs:
        raise UnrealizedDirectionError(
            f"no saddle connection in direction {d!r} within length {float(L):g} "
            "(direction not periodic?)"
        )
    curves = closed_atoms(surface, scs)
    if form is None:
        form = intersection_form(surface)
    nonzero = []
    pairs = 0
    if curves:
        G = form.gram(curves)
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                pairs += 1
                if G[i, j] != 0:
                    nonzero.append((curves[i], curves[j], int(G[i, j])))
    return ParallelReport(
        direction=d,
        count_connections=len(scs),
        count_curves=len(curves),
        pairs_checked=pairs,
        nonzero=nonzero,
    )


def bound_4m2(
    n: int,
    L,
    *,
    M: Optional[Mat2] = None,
    form: Optional[IntersectionForm] = None,
) -> BoundReport:
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
        form = None  # the form of the base surface does not transfer
    scs = enumerate_saddle_connections(S, L)
    curves = closed_atoms(S, scs)
    if form is None:
        form = intersection_form(S)
    phi = CycloReal.phi(n)
    lm = trig_value(n, "sin", 1)
    bound = CycloReal.from_rational(n, 1) / (phi * lm * lm)
    violations, equalities, best_f, max_w, counts, npairs = _certify_bound(
        S, curves, form, bound
    )
    return BoundReport(
        n=n,
        model="staircase" if M is None else "staircase (sheared)",
        L=float(L),
        bound=bound,
        pairs_checked=npairs,
        violations=violations,
        equalities=equalities,
        max_ratio=best_f,
        max_witnesses=max_w,
        counts=counts,
    )


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
    if best.exact_ratio is not None:
        strict = (one - best.exact_ratio).sign() > 0
    else:
        strict = best.value / float(X.area()) < 1.0 - 1e-9
    return ConjectureReport(
        n=n,
        L=float(L),
        best=best,
        equals_conjecture=equals,
        two_side_pair_found=found,
        strictly_below_ngon_bound=strict,
    )
