"""Upper half-plane geometry of the deformation disk of a surface.

A point ``z = x + iy`` of the upper half plane stands for the surface
``M_z . S`` with ``M_z = [[1, x], [0, y]]``; in general a matrix ``M`` with
positive determinant maps to ``point_of_surface(M) = (d i + b)/(c i + a)``,
which is invariant under rescaling of ``M``.  Right multiplication by an
affine symmetry ``g`` of ``S`` acts on the disk through the Moebius action
of ``conj(g^-1)`` where ``conj`` flips the signs of the off-diagonal
entries; for the shear generators this gives ``z -> z + phi`` and
``z -> z/(phi z + 1)``, and the reflection acts by ``z -> -conj(z)``.

Direction labels are read by ``plane.direction_pair``, as on the surface,
but the disk mirrors them: a disk label ``d`` is the surface direction of
co-slope ``-d``, the tangent vector ``(-d, 1)``, and it names the ideal
boundary point ``x = d`` (horizontal, "inf", is the point at infinity).  So
``angle_sine(0.5+1j, "inf", 1.0)`` measures the angle between the surface
directions ``"inf"`` and ``-1``.  With this pairing the angle identity

    sin(theta(z, d, d')) * cosh(dist(z, geodesic(d, d'))) = 1

holds exactly for every surface point and every pair of labels.

Points, distances and the orbit search of ``dist_to_Gmax`` are double
precision, with one search per query.  One point (``nearest_witness``) is
framed and searched in Python floats by ``_nearest_point``, with no array;
batches and deep-cusp points run in numpy blocks.  Both do the same double
operations in the same order, so their results are identical to the bit.
numpy is imported only where arrays are built, and mpmath never (an ``mpc``
argument is handled with its caller's mpmath).  Reduction to the fundamental
domain steps the point in integer fixed point, at a precision chosen per
call from ``|x|/y``.  A given word is applied only by ``_step_pairs``,
exactly on pairs over Z[Phi]: ``apply_word`` evaluates its matrix once, in
integer fixed point at a precision proven from the sizes.  A query's
witness (``nearest_witness``) is kept as exact data, the search's frame
ends, the shift and the reduction word; its float ``Geodesic``, mapped back
exactly and rounded to doubles at the end, is built on first read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .field import (
    ComputationLimitError,
    _element,
    _fold,
    _horner,
    _phi_float,
    _root_enclosure,
    accurate_float,
    field_degree,
)
from .plane import Mat2, direction_pair


def _as_float_matrix(M) -> tuple[float, float, float, float]:
    if isinstance(M, Mat2):
        return float(M.a), float(M.b), float(M.c), float(M.d)
    (a, b), (c, d) = M
    return float(a), float(b), float(c), float(d)


def point_of_surface(M) -> complex:
    """The disk point of the surface ``M . S``: ``(d i + b)/(c i + a)``.

    Requires ``det M > 0``; the value only depends on ``M`` up to scale, and
    ``[[1, x], [0, y]]`` maps to ``x + i y``.
    """
    a, b, c, d = _as_float_matrix(M)
    if a * d - b * c <= 0:
        raise ValueError("point_of_surface needs a positive determinant")
    return complex(b, d) / complex(a, c)


def _read_label(label) -> tuple[tuple[float, float], float]:
    """The float tangent vector and boundary point of a disk label: the
    label's pair ``(x, y)`` mirrored to ``(-x, y)``, and ``x/y``."""
    x, y = (float(c) for c in direction_pair(label))
    return (-x, y), (x / y if y else math.inf)


def angle_sine(at, d1, d2) -> float:
    """``|sin|`` of the angle between two direction labels on a surface.

    ``at`` is a matrix (the surface ``at . S``) or a disk point ``z`` standing
    for ``[[1, Re z], [0, Im z]]``.  The flat metric of the deformed surface
    measures the angle between the images of the label vectors.
    """
    if isinstance(at, complex):
        a, b, c, d = 1.0, at.real, 0.0, at.imag
    else:
        a, b, c, d = _as_float_matrix(at)
    (u1, v1), _ = _read_label(d1)
    (u2, v2), _ = _read_label(d2)
    w1 = (a * u1 + b * v1, c * u1 + d * v1)
    w2 = (a * u2 + b * v2, c * u2 + d * v2)
    crossed = w1[0] * w2[1] - w1[1] * w2[0]
    n1 = math.hypot(*w1)
    n2 = math.hypot(*w2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("degenerate direction")
    return abs(crossed) / (n1 * n2)


@dataclass(frozen=True)
class Geodesic:
    """A complete geodesic of the upper half plane.

    Either a vertical line (``foot``, second endpoint at infinity) or a
    half-circle centered on the real axis (``center``, ``radius``).
    """

    foot: Optional[float] = None
    center: Optional[float] = None
    radius: Optional[float] = None

    @staticmethod
    def vertical(a: float) -> "Geodesic":
        return Geodesic(foot=float(a))

    @staticmethod
    def circle(c: float, r: float) -> "Geodesic":
        if r <= 0:
            raise ValueError("radius must be positive")
        return Geodesic(center=float(c), radius=float(r))

    @staticmethod
    def from_endpoints(p: float, q: float) -> "Geodesic":
        if math.isinf(p) and math.isinf(q):
            raise ValueError("coincident endpoints at infinity")
        if math.isinf(p):
            return Geodesic.vertical(q)
        if math.isinf(q):
            return Geodesic.vertical(p)
        if p == q:
            raise ValueError("coincident endpoints")
        return Geodesic.circle((p + q) / 2.0, abs(p - q) / 2.0)

    @property
    def is_vertical(self) -> bool:
        return self.foot is not None

    def endpoints(self) -> tuple[float, float]:
        if self.is_vertical:
            return (self.foot, math.inf)
        return (self.center - self.radius, self.center + self.radius)

    def sinh_dist(self, z: complex) -> float:
        x, y = z.real, z.imag
        if y <= 0:
            raise ValueError("point is not in the upper half plane")
        if self.is_vertical:
            return abs(x - self.foot) / y
        c, r = self.center, self.radius
        return abs((x - c) * (x - c) + y * y - r * r) / (2.0 * r * y)

    def dist_to(self, z: complex) -> float:
        return math.asinh(self.sinh_dist(z))

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_vertical:
            return f"Geodesic(x = {self.foot:.9g})"
        return f"Geodesic(center {self.center:.9g}, radius {self.radius:.9g})"


def geodesic_of_directions(d1, d2) -> Geodesic:
    """The geodesic joining the boundary points of two direction labels."""
    return Geodesic.from_endpoints(_read_label(d1)[1], _read_label(d2)[1])


# ---------------------------------------------------------------------------
# the shear group and its fundamental domain
# ---------------------------------------------------------------------------

def in_fundamental_domain(z, n: int, *, tol: float = 1e-9):
    """Membership in the strip-minus-two-circles fundamental domain.

    The domain is ``|Re z| <= phi/2`` minus the open disks of radius
    ``1/phi`` centered at ``+-1/phi``; the tolerance is applied outward, so
    boundary points count as inside.  ``z`` is a complex number or an array
    of them; the answer is a bool or a bool array in kind.

    A complex runs in Python floats with the array code's operations.
    ``math.hypot`` and ``np.hypot`` may round one ulp apart, which flips the
    test only within one ulp of ``r - tol``, so a complex whose
    ``math.hypot`` lies within two ulps of it takes the array code.
    """
    phi = _phi_float(n)
    r = 1.0 / phi
    if type(z) is complex:
        x, y = z.real, z.imag
        hs, edge = (math.hypot(x - r, y), math.hypot(x + r, y)), r - tol
        if all(abs(h - edge) > 2.0 * math.ulp(edge) for h in hs):
            return y > 0 and abs(x) <= phi / 2 + tol and min(hs) >= edge
    import numpy as np
    z = np.asarray(z)
    x, y = z.real, z.imag
    inside = (
        (y > 0)
        & (np.abs(x) <= phi / 2 + tol)
        & (np.hypot(x - r, y) >= r - tol)
        & (np.hypot(x + r, y) >= r - tol)
    )
    return inside if inside.ndim else bool(inside)


def _phi_fixed(n: int, p: int) -> int:
    """``Phi 2^p`` rounded to an integer, within one unit, from the cached
    rigorous enclosure at the next multiple of 64 bits past ``p + 64``."""
    lo, hi, shift = _root_enclosure(n, 1, (p // 64 + 2) * 64)
    return (((lo + hi) << p) + (1 << shift)) >> (shift + 1)


def _man_exp(v) -> tuple[int, int]:
    """A finite double or ``mpf`` as integers ``(man, exp)``, its value
    ``man 2^exp``."""
    if isinstance(v, float):
        num, den = v.as_integer_ratio()
        return num, 1 - den.bit_length()
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


def _fixed(man: int, exp: int, p: int) -> int:
    """``man 2^(exp + p)`` rounded to an integer."""
    s = exp + p
    return man << s if s >= 0 else (man + (1 << (-s - 1))) >> -s


def _upper_point(z):
    """``z`` (a complex unless an mpc or mpf), mpmath for an mpc or mpf, else
    None, and ``_man_exp`` of its parts; without mpmath loaded none can be."""
    mp = sys.modules.get("mpmath")
    if mp is None or not isinstance(z, (mp.mpc, mp.mpf)):
        z, mp = complex(z), None
    finite = mp.isfinite if mp else math.isfinite
    if not (finite(z.real) and finite(z.imag) and z.imag > 0):
        raise ValueError("point is not a finite point of the upper half plane")
    return z, mp, _man_exp(z.real), _man_exp(z.imag)


# a TV step is taken only this far inside its disk, so rounding in the test
# on the double never admits a point just outside
_DISK_MARGIN = 1e-12
# bits of the reduction's fixed point past its stated error bound
_GUARD_BITS = 8


def reduce_to_fundamental_domain(z, n: int, *, max_steps: int = 10000):
    """Move a point into the fundamental domain of ``<z+phi, z/(phi z+1)>``.

    Returns the reduced point and the word that was applied, as a list of at
    most ``max_steps`` tokens ``("TH", k)`` (``z -> z + k phi``) and
    ``("TV", k)`` (``z -> z/(k phi z + 1)``); ``apply_word`` replays it.  A
    point that needs more tokens raises ``ComputationLimitError``.  The input
    may be a ``complex`` or an ``mpmath.mpc``; the reduced point is returned
    in kind.

    Each token is chosen from the double nearest the current point:
    ``TH^-k`` with ``k = round(x/phi)`` while that is nonzero, else ``TV^+-1``
    while the point lies inside the disk
    ``|z -+ 1/phi| < 1/phi - _DISK_MARGIN``.  The point itself is carried in
    fixed point, as two integers ``X``, ``Y`` over ``2^p`` with ``p`` fixed
    at entry, and the double is ``X/2^p + i Y/2^p``, correctly rounded by
    integer division.  ``phi`` is the integer ``F``, ``Phi 2^p`` rounded
    (``_phi_fixed``).  ``TH^k`` adds ``k F`` to ``X``; ``TV^k`` forms
    ``D = k phi z + 1`` rounded to ``2^-p`` and rounds each coordinate of
    ``w = z conj(D)/|D|^2`` to ``2^-p``.

    Error.  Every step is an isometry, so an error made at one step is
    carried to the end unchanged in hyperbolic distance, and the errors of
    the steps add.  ``TH`` keeps ``Im z``, and a ``TV`` step is only taken
    inside a disk where ``|k phi z + 1| < 1`` (``_DISK_MARGIN`` keeps the test
    on the double from admitting a point just outside), so it raises ``Im z``:
    ``Im z`` never falls below ``y0``, its value at entry, and a Euclidean
    error ``e`` at any point of the path is at most ``e/y0`` in hyperbolic
    distance.  Rounding the input to ``2^-p`` costs ``2^-p/y0``, and per
    step, with ``F/2^p`` within ``2^-p`` of ``phi``:

    * ``TH^k`` is exact but for ``F``, which moves the point by
      ``|k| 2^-p``.  ``k`` is nonzero only for ``|x| >= phi/2``, so
      ``|k| <= |x|/phi + 1/2 <= 2|z|``, and ``|z|/Im z`` stays below about
      ``(|x0| + 2)/y0`` along the path: before a ``TH`` step ``|x|`` is
      ``|x0|`` or comes from a ``TV`` image ``w`` with
      ``|w|/Im w <= |z|/Im z``, and a ``TV`` step starts inside a disk of
      radius ``1/phi`` on ``+-1/phi``, where ``|z| < 2``.  So the step is
      off by at most ``2^(1-p) (|x0| + 2)/y0``.
    * ``TV^k``: ``Im w = Im z/|D|^2``, so an error ``dD`` in ``D`` moves
      ``w`` by ``|z| |dD|/|D|^2``, that is ``|z| |dD|/Im z`` in hyperbolic
      distance.  ``F`` and the rounding of ``D`` give
      ``|dD| <= (|z| + 1) 2^-p``, and ``|z| < 2``: at most ``6 2^-p/y0``.
      Rounding ``w`` adds ``2^-p/y0``.

    Each step is thus off by at most ``4 2^-p (|x0| + 2)/y0``, and
    ``p = base + ceil(log2((|x0| + 2)/y0)) + bitlen(max_steps)`` plus
    ``_GUARD_BITS`` keeps the summed error below ``2^-base`` in hyperbolic
    distance.  ``base`` is 300 bits for a ``complex`` input, whose reduced
    point then differs from the exact image by under ``2^-290 Im z`` in each
    coordinate, far below one rounding of the returned double; for an
    ``mpc`` input it is ``max(mp.prec + 60, 300)``, 60 bits past the
    caller's precision, and the caller's precision is only read.
    """
    z, mp, (mx, ex), (my, ey) = _upper_point(z)
    # |x0| + 2 < 2^top and y0 >= 2^(bitlen(my) + ey - 1)
    top = max(mx.bit_length() + ex, 1) + 1
    spread = max(top - (my.bit_length() + ey - 1), 0)
    base = max(mp.mp.prec + 60, 300) if mp else 300
    p = base + spread + max_steps.bit_length() + _GUARD_BITS
    F, one, half = _phi_fixed(n, p), 1 << p, 1 << (p - 1)
    X, Y = _fixed(mx, ex, p), _fixed(my, ey, p)
    phi = _phi_float(n)
    r = 1.0 / phi
    word: list[tuple[str, int]] = []
    while True:
        zc = complex(X / one, Y / one)
        k = -round(zc.real / phi)
        # the disks are disjoint: s is +-1 inside the one on -+1/phi, else 0
        s = 0 if k else (abs(zc + r) < r - _DISK_MARGIN) - (abs(zc - r) < r - _DISK_MARGIN)
        if not (k or s):
            break
        if len(word) == max_steps:
            raise ComputationLimitError("fundamental-domain reduction did not terminate")
        if k:
            word.append(("TH", k))
            X += k * F
        else:
            word.append(("TV", s))
            Dx = ((s * F * X + half) >> p) + one
            Dy = (s * F * Y + half) >> p
            den = Dx * Dx + Dy * Dy
            X, Y = (
                (((X * Dx + Y * Dy) << (p + 1)) + den) // (den << 1),
                (((Y * Dx - X * Dy) << (p + 1)) + den) // (den << 1),
            )
    if not mp:
        return zc, word
    # X/2^p + i Y/2^p exactly, whatever the caller's precision
    return mp.mp.make_mpc((mp.libmp.from_man_exp(X, -p), mp.libmp.from_man_exp(Y, -p))), word


def apply_word(word: Iterable[tuple[str, int]], z, n: int):
    """Apply a token word (as produced by the reduction) to a point.

    Accepts a ``complex`` or an ``mpmath.mpc`` and returns the same kind; a
    point off the half plane raises the reduction's ``ValueError``, an
    unknown token that of ``_step_pairs``.  The word's exact matrix
    ``[[a, b], [c, d]]`` (``word_matrix``) is evaluated once, as
    ``w = (a z + b)/(c z + d)`` in integer fixed point at ``p`` bits, as the
    reduction steps its point, and the exact quotient of those integers is
    rounded once to the caller's precision.

    Precision.  An entry ``e = sum e_i Phi^i`` is at most ``A(e) =
    sum |e_i| 2^i``, as ``0 < Phi < 2``.  Evaluated exactly at
    ``_phi_fixed(n, q)/2^q``, ``q = p + bitlen(degree)``, and rounded to
    ``2^-p``, it is off by under ``2^(1-p) A(e)``; ``z`` is rounded to
    ``2^-p`` in each coordinate.  With ``r = |x| + |y| + 1``, ``N = a z + b``
    and ``D = c z + d``, formed exactly from these, are then off by under
    ``5 2^-p`` times ``A(a) r + A(b)`` and ``A(c) r + A(d)``, whose product
    over ``y`` is ``B``.  The determinant is 1, so ``Im w = y/|D|^2``: to
    first order ``w`` moves by ``(|dN| |D| + |N| |dD|)/y`` in hyperbolic
    distance, under ``16 2^-p B`` in all, as is the relative error of
    ``D``, since ``|N| |D| >= y``, so the first order holds.  ``p = base +
    _GUARD_BITS + ceil(log2(2 B))``, from integer bounds on ``r`` and ``y``,
    keeps ``w`` within ``2^-base`` in hyperbolic distance, each coordinate
    within ``2^-base Im w``: ``base`` is 300 for a ``complex``,
    ``mp.prec + 60`` for an ``mpc``, and the caller's precision is only read.
    """
    M = word_matrix(word, n)
    z, mp, (mx, ex), (my, ey) = _upper_point(z)
    # r < 2^rho and y >= 2^(ty - 1)
    ty = my.bit_length() + ey
    rho = max(mx.bit_length() + ex, ty, 0) + 2
    A = lambda e: sum(abs(v) << i for i, v in enumerate(e._num))
    top = ((A(M.a) << rho) + A(M.b)).bit_length() + ((A(M.c) << rho) + A(M.d)).bit_length()
    p = (mp.mp.prec + 60 if mp else 300) + _GUARD_BITS + 2 + top - ty
    q = p + field_degree(n).bit_length()
    F = _phi_fixed(n, q)
    # an entry at F/2^q, an integer over 2^(q len), rounded to 2^-p
    a, b, c, d = (_fixed(_horner(e._num, F, q), -q * len(e._num), p) for e in (M.a, M.b, M.c, M.d))
    X, Y = _fixed(mx, ex, p), _fixed(my, ey, p)
    # N and D over 2^(2p), and w = N conj(D)/|D|^2
    Nx, Ny, Dx, Dy = a * X + (b << p), a * Y, c * X + (d << p), c * Y
    re, im, den = Nx * Dx + Ny * Dy, Ny * Dx - Nx * Dy, Dx * Dx + Dy * Dy
    if mp:
        part = lambda v: mp.libmp.from_rational(v, den, mp.mp.prec, mp.libmp.round_nearest)
        return mp.mp.make_mpc((part(re), part(im)))
    return complex(re / den, im / den)


def _step_pairs(pairs, word: Iterable[tuple[str, int]], n: int) -> list:
    """Projective pairs ``(P : Q)`` over Z[Phi], as integer numerator lists,
    each stepped exactly through a token word: ``("TH", k)`` adds
    ``k Phi Q`` to ``P`` and ``("TV", k)`` adds ``k Phi P`` to ``Q``."""
    d = field_degree(n)
    times_phi = lambda p: _fold(n, [0, *p], d)
    for gen, k in word:
        if gen == "TH":
            pairs = [([x + k * y for x, y in zip(P, times_phi(Q))], Q) for P, Q in pairs]
        elif gen == "TV":
            pairs = [(P, [x + k * y for x, y in zip(Q, times_phi(P))]) for P, Q in pairs]
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return pairs


def word_matrix(word: Iterable[tuple[str, int]], n: int) -> Mat2:
    """The exact disk-action matrix of a token word: its columns are the
    images of ``(1 : 0)`` and ``(0 : 1)``."""
    zero = [0] * field_degree(n)
    one = [1] + zero[1:]
    (a, c), (b, d) = _step_pairs([(one, zero), (zero, one)], word, n)
    return Mat2(n, *(_element(n, v, 1) for v in (a, b, c, d)))


# ---------------------------------------------------------------------------
# distance to the orbit of the maximal-ratio geodesics
# ---------------------------------------------------------------------------
#
# The distinguished family is gamma(inf, 0) and gamma(inf, +-1/(k phi)) for
# k >= 1.  On boundary points TV^s fixes 0 and sends inf to 1/(s phi) and
# 1/(k phi) to 1/((k + s) phi), so the <TV>-orbit S_0 of the family is every
# geodesic joining two points of P = {inf, 0} u {1/(j phi) : j != 0}.  A point
# is first moved into the strip |x| <= phi/2 by a power TH^-m, and the search
# runs over S_0 there; for the original point that is the translate TH^m S_0.
# In the frame w = -1/(phi (z - m phi)) the translate TH^m S_0 is every
# geodesic joining two points of Z u {inf}: 1/(j phi) + m phi goes to -j, inf
# to 0 and m phi to inf.

# beyond this frame height the index search is cut short and not converged
_MAX_HEIGHT = 1e6
# entries per vectorized block of the index search
_BLOCK = 1 << 15
# one point whose search row has at most this many offsets is searched in
# Python floats.  Measured crossover on a 2-CPU x86-64 host (Python 3.11.7,
# numpy 2.4): one row costs the same both ways at about 48 offsets (the loop
# takes about 28 us plus 3 us per offset, one numpy block about 160 us)
_ROW_OFFSETS = 32


def _offset_blocks(count):
    """Blocks ``(rows, k)`` that together cover every offset index
    ``k < count[row]``, each about ``_BLOCK`` entries large."""
    import numpy as np
    order = np.argsort(count, kind="stable")
    c = count[order]
    start = 0
    while start < c.size:
        # (rows taken) * (largest count among them), nondecreasing in rows
        span = np.arange(1, c.size - start + 1) * c[start:]
        end = start + max(1, int(np.searchsorted(span, _BLOCK, side="right")))
        rows = order[start:end]
        top = int(c[end - 1])
        step = max(1, _BLOCK // rows.size)
        for k0 in range(0, top, step):
            yield rows, np.arange(k0, min(top, k0 + step))[None, :]
        start = end


def _lattice_search(u, v):
    """The geodesic joining two points of ``Z u {inf}`` nearest ``u + iv``.

    Takes arrays ``u``, ``v``.  Returns ``sinh`` of the distance, the
    endpoints ``a`` and ``b`` (``b = inf`` for the vertical ``Re w = a``)
    and whether the search reached its bound, ``v <= _MAX_HEIGHT``.

    Row ``i`` tries ``floor(min(v_i, _MAX_HEIGHT)) + 2`` offsets, which
    ``_offset_blocks`` batches into numpy blocks.  ``_search_row`` searches
    one row in Python floats with the same double operations in the same
    order, the same masks and the same tie order (candidate-major, then by
    offset, the first minimum winning, and it replaces the vertical only when
    strictly smaller), so on a row of at most ``_ROW_OFFSETS`` offsets, which
    the block code searches as one block, the two agree to the bit.

    The search is exhaustive.  The vertical at ``a`` has
    ``sinh dist = |u - a|/v``, least at the nearest integer.  With offsets
    ``p = u - a`` and ``q = b - u``, the circle on integers ``a < b`` has
    ``sinh dist = |v^2 - p q| / ((p + q) v)``.

    * Both ends on one side, say ``a < b < u`` (so ``q < 0``): the value is
      ``(v^2 + |p q|) / ((|p| - |q|) v) > |q|/v``, so the vertical at ``b``
      is nearer, and the nearest vertical nearer still.
    * Straddling, ``p, q >= 0``: let ``s`` be the smaller offset and ``t``
      the other.  For fixed ``s`` the value falls in ``t`` up to
      ``v^2/s``, where it is zero, and rises after it, so the best lattice
      ``t`` is one of the two around ``v^2/s`` (the first lattice ``t`` when
      ``v^2/s`` lies below it).  If ``s > v + 1``, moving the near end one
      step toward ``u`` is strictly better: ``t >= s > v`` gives
      ``v^2/t < v < s - 1``, and where ``s t >= v^2`` the value has
      derivative ``(t^2 + v^2) / ((s + t)^2 v) > 0`` in ``s``.  So the
      optimum has ``s <= v + 1``, and it suffices to enumerate
      ``s = g, g + 1, ... <= v + 1`` on each side, ``g`` the distance from
      ``u`` to the nearest integer on that side, with two ``t`` each.

    Points with ``v > _MAX_HEIGHT`` only enumerate up to that height.
    """
    import numpy as np
    a = np.floor(u + 0.5)
    best = np.abs(u - a) / v
    b = np.full(u.shape, np.inf)
    fl = np.floor(u)
    f = u - fl
    count = np.floor(np.minimum(v, _MAX_HEIGHT)).astype(np.int64) + 2
    for rows, k in _offset_blocks(count):
        uf, ff, vv = fl[rows, None], f[rows, None], v[rows, None]
        v2 = vv * vv
        s_left, s_right = ff + k, 1.0 - ff + k
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # index of the lattice t just below v^2/s, counted from the first
            l_left = np.maximum(np.floor(v2 / s_left - (1.0 - ff)), 0.0)
            l_right = np.maximum(np.floor(v2 / s_right - ff), 0.0)
            s = np.stack([s_left, s_left, s_right, s_right])
            t = np.stack([1.0 - ff + l_left, 2.0 - ff + l_left, ff + l_right, 1.0 + ff + l_right])
            val = np.abs(v2 - s * t) / ((s + t) * vv)
        # s = 0 puts u on the vertical at a, which already gives zero
        val = np.where((k < count[rows, None]) & (s > 0) & np.isfinite(val), val, np.inf)
        ends_a = np.stack([uf - k, uf - k, uf - l_right, uf - l_right - 1.0])
        ends_b = np.stack([uf + 1.0 + l_left, uf + 2.0 + l_left, uf + 1.0 + k, uf + 1.0 + k])
        # (candidate, row, k) -> (row, candidate * k)
        flat = lambda x: x.transpose(1, 0, 2).reshape(rows.size, -1)
        val = flat(val)
        j = np.argmin(val, axis=1)
        got = val[np.arange(rows.size), j]
        better = got < best[rows]
        hit = rows[better]
        best[hit] = got[better]
        a[hit] = flat(ends_a)[better, j[better]]
        b[hit] = flat(ends_b)[better, j[better]]
    return best, a, b, v <= _MAX_HEIGHT


def _search_row(u, vv):
    """One row of ``_lattice_search`` in Python floats, with the block
    code's operations, masks and tie order: ``sinh`` of the distance and the
    ends ``a``, ``b``.  The row must have at most ``_ROW_OFFSETS`` offsets.
    A zero denominator, skipped here, gives the block code a value that is
    not finite, which it masks."""
    a = float(math.floor(u + 0.5))
    best = abs(u - a) / vv
    uf = float(math.floor(u))
    ff = u - uf
    count = math.floor(min(vv, _MAX_HEIGHT)) + 2
    v2 = vv * vv
    ks = range(count)
    s_left = [ff + k for k in ks]
    s_right = [1.0 - ff + k for k in ks]
    # index of the lattice t just below v^2/s, as np.maximum(np.floor(x), 0.0)
    # in floats, inf and nan passing through
    l_left, l_right = (
        [float(max(math.floor(x), 0)) if x < math.inf else x for x in xs]
        for xs in (
            [v2 / s - (1.0 - ff) if s > 0 else math.nan for s in s_left],
            [v2 / s - ff if s > 0 else math.nan for s in s_right],
        )
    )
    s = s_left + s_left + s_right + s_right
    t = (
        [1.0 - ff + l for l in l_left]
        + [2.0 - ff + l for l in l_left]
        + [ff + l for l in l_right]
        + [1.0 + ff + l for l in l_right]
    )
    j = -1
    for i, (si, ti) in enumerate(zip(s, t)):
        den = (si + ti) * vv
        if si > 0 and den:
            val = abs(v2 - si * ti) / den
            if val < best:
                best, j = val, i
    if j < 0:
        return best, a, math.inf
    c, k = divmod(j, count)
    if c < 2:
        return best, uf - k, (uf + 1.0 if c == 0 else uf + 2.0) + l_left[k]
    return best, uf - l_right[k] if c == 2 else uf - l_right[k] - 1.0, uf + 1.0 + k


# the largest rounding bound of a certified search value
_ROUNDING_TOL = 1e-12


def _nearest(xs, ys, n: int):
    """Nearest member of ``TH^m S_0`` to each point ``xs + i ys``, where
    ``m = round(x/phi)`` moves the point into the strip ``|x| <= phi/2``.

    Returns ``sinh`` of the distance, the shift ``m`` and the endpoints
    ``a``, ``b`` of the witness in the frame ``w = -1/(phi (z - m phi))``,
    and the convergence flag.  ``TH`` is in the group, so the shift changes
    no distance to the orbit.  One ``_lattice_search`` row per point.

    At a point of the strip no translate ``TH^m S_0`` with ``m != 0``, in
    particular none with ``|m| >= 2``, is nearer than ``S_0``.  The finite
    points of ``P`` lie in ``[-1/phi, 1/phi]``, so for ``m >= 1`` every
    member of ``TH^m S_0`` lies right of the vertical at its least endpoint
    ``p >= phi - 1/phi``.  That vertical separates it from ``z``, so it is
    at least ``asinh((p - x)/y)`` away, while the vertical at ``1/phi`` in
    ``S_0`` is ``asinh(|x - 1/phi|/y)`` away, and
    ``|x - 1/phi| <= phi - 1/phi - x`` follows from ``2x <= phi`` and
    ``phi^2 >= 2``.  The case ``m <= -1`` is the mirror image.  So the
    result is the distance to ``S = TH^-1 S_0 u S_0 u TH S_0`` for points of
    the strip, and to the matching translate of ``S`` elsewhere.

    The six images ``z' = TV^s(z + t phi)`` (``s = +-1``, ``t`` in
    ``0, +-1``) of a point ``z`` of the closed domain ``D`` are no nearer
    ``S`` than ``z`` is, so searching them cannot expose a nearer orbit
    member.  Each ``z'`` lies in the closed strip, reaching
    ``|x| = phi/2`` only from the corners of ``D``, so its shift is
    ``m' = 0`` except for rounding ties at a corner.  For ``t = 0``,
    ``TV^s`` moves the frame of ``z`` by the integer ``-s``, and the search
    over ``Z u {inf}`` gives the same value.  For ``t = +-1``, ``S_0`` is
    ``TV``-invariant, so ``dist(z', S_0) = dist(z, TH^-t S_0)``, which the
    strip argument above puts at or beyond ``dist(z, S_0)``; applied at
    ``z'``, the same argument covers the corner ties.  An image's search is
    bounded whenever the point's is: for ``t = 0`` the frame height is the
    same, otherwise it is at most ``1/phi^2``.

    The flag certifies the search.  It is set when the search reached its
    bound and the rounding bound below, taken at the winning value, is at
    most ``_ROUNDING_TOL``; the value is then within that much of ``sinh``
    of the exact distance from the double point to ``S``.  Orbit members
    outside ``S`` are not ruled out: none has been found (random words of
    length at most 6, ``tests/test_hyperbolic.py``), and the six images
    above could never rule them out either.

    Rounding bound.  With ``e = 2^-53``, ``s`` a candidate's value and
    ``p``, ``q`` its offsets, to first order:

    * frame: ``dx = x - m phi`` is exact in the rounded ``phi`` (``m = 0``,
      or ``|m| = 1`` at a corner tie, where Sterbenz applies) and within
      ``2e`` of its value with the exact ``phi``, so ``u`` and ``v`` are
      within ``9e`` relatively.  The value's derivative in ``u`` is at most
      ``1/v``, and its derivative in ``v`` times ``v`` is at most ``1 + s``,
      since ``(v^2 + p q)/((p + q) v) <= 2 sqrt(p q)/(p + q) + s``: that is
      ``9e (|u|/v + 1 + s)``;
    * ``f = u - floor(u)`` is exact (Sterbenz) except for
      ``-1/2 < u < 0``, where ``1 + u`` is rounded by at most ``e/2``, the
      search at a point moved by ``e/2``: ``e/(2v)``.  Where ``1 + u``
      rounds to 1, the value and the exact least value both lie in
      ``[0, |u|/v]``, and ``|u| <= e/2``.  High in the cusp at infinity,
      where ``v`` is about ``1/(phi y)`` and ``u`` is tiny, this term leads;
    * the offsets are within ``2e`` relatively:
      ``2e (p q + v^2)/((p + q) v) <= 2e (1 + s)``;
    * the value itself: ``e (v^2 + p q)/((p + q) v) + 4e s <= 5e (1 + s)``.

    The sum is ``e ((1/2 + 9|u|)/v + 16 (1 + s))``; the stated bound
    ``2^-51 ((1 + 3|u|)/v + 4 (1 + s))`` leaves ``3.5e/v`` for the
    second-order terms.  It grows with the value, so it also bounds the
    distance from the winning value to the exact least one.  The index of
    the lattice ``t`` just below ``v^2/p`` is off by one only where a
    lattice ``t`` lies within rounding of ``v^2/p``, and that ``t`` is then
    one of the two searched.  The bound reaches ``_ROUNDING_TOL`` near
    ``y = 2^51 * 1e-12/phi`` in the cusp at infinity, about 1,200 for
    ``n = 8``; every higher point reads ``False``.

    Past ``Im z`` of about ``1.3e154`` the squares in the frame's
    denominator overflow, and below ``|z - m phi|`` of about ``1.5e-154``
    their sum leaves the normal range.  Those points alone take the frame
    from the point scaled to unit size; their flag reads ``False``."""
    import numpy as np
    phi = _phi_float(n)
    m = np.round(xs / phi)
    dx = xs - m * phi
    with np.errstate(all="ignore"):
        sq = dx * dx + ys * ys
        den = phi * sq
        u, v = -dx / den, ys / den
        huge = ~np.isfinite(den) | (sq < sys.float_info.min)
        if huge.any():
            s = np.maximum(np.abs(dx[huge]), ys[huge])
            dxs, ysc = dx[huge] / s, ys[huge] / s
            dens = phi * (dxs * dxs + ysc * ysc)
            u[huge], v[huge] = -dxs / dens / s, ysc / dens / s
        sinh, a, b, bounded = _lattice_search(u, v)
        rounding = 2.0**-51 * ((1.0 + 3.0 * np.abs(u)) / v + 4.0 * (1.0 + sinh))
    return sinh, m, a, b, bounded & (rounding <= _ROUNDING_TOL)


def _nearest_point(x: float, y: float, n: int):
    """``_nearest`` of one point in Python floats, with the same double
    operations in the same order: ``(sinh, m, a, b, flag)``, ``m`` an int.
    Only zeros may differ in sign, where numpy's round and floor keep it:
    m at x = -0.0, then floor(u) at u = -0.0; but at u = +-0 the vertical at
    0 is at distance 0, which no candidate beats, so no result changes.
    A point whose frame asks for more than ``_ROW_OFFSETS`` offsets, deep
    in the cusp at 0, takes ``_nearest`` on one row."""
    phi = _phi_float(n)
    m = round(x / phi)  # half to even, as np.round
    dx = x - m * phi
    sq = dx * dx + y * y
    den = phi * sq
    if den == math.inf or sq < sys.float_info.min:
        s = max(abs(dx), y)
        dxs, ysc = dx / s, y / s
        dens = phi * (dxs * dxs + ysc * ysc)
        u, v = -dxs / dens / s, ysc / dens / s
    else:
        u, v = -dx / den, y / den
    if math.floor(min(v, _MAX_HEIGHT)) + 2 > _ROW_OFFSETS:
        import numpy as np
        sinh, m, a, b, flag = _nearest(np.array([x]), np.array([y]), n)
        return float(sinh[0]), int(m[0]), float(a[0]), float(b[0]), bool(flag[0])
    sinh, a, b = _search_row(u, v)
    # the row reached its bound: v < _ROW_OFFSETS <= _MAX_HEIGHT
    rounding = 2.0**-51 * ((1.0 + 3.0 * abs(u)) / v + 4.0 * (1.0 + sinh))
    return sinh, m, a, b, rounding <= _ROUNDING_TOL


# points per chunk of dist_to_Gmax_batch: one search row each, whose
# temporaries take about 8 MB, so a grid is never one batch
_CELLS = 3066


def dist_to_Gmax_batch(zs: Sequence[complex], n: int):
    """Vectorized ``dist_to_Gmax`` over many points.

    Returns a float array of distances and a bool array of convergence
    flags.  Points outside the fundamental domain are reduced first; the
    search runs over chunks of ``_CELLS`` points.
    """
    import numpy as np
    zs = np.asarray(zs, dtype=complex)
    xs, ys = zs.real.copy(), zs.imag.copy()
    for i in np.flatnonzero(~in_fundamental_domain(zs, n)):
        w, _ = reduce_to_fundamental_domain(complex(zs[i]), n)
        xs[i], ys[i] = w.real, w.imag
    dists = np.empty(zs.size)
    flags = np.empty(zs.size, dtype=bool)
    for start in range(0, zs.size, _CELLS):
        part = slice(start, start + _CELLS)
        sinh, _, _, _, flags[part] = _nearest(xs[part], ys[part], n)
        dists[part] = np.arcsinh(sinh)
    return dists, flags


def dist_to_Gmax(z: complex, n: int) -> tuple[float, bool]:
    """Distance from a disk point to the orbit of the maximal-ratio verticals.

    The point is reduced to the fundamental domain (the orbit is invariant)
    and the nearest member of ``S``, which lies in the orbit, is found by the
    exhaustive index search of ``_nearest``.  ``S`` is part of the orbit, so
    the distance is never below the true one.  The flag is the certificate
    of ``_nearest``: the search reached its bound and its stated rounding
    bound is at most ``_ROUNDING_TOL``.  It does not rule out orbit members
    outside ``S``.
    """
    dists, flags = dist_to_Gmax_batch([z], n)
    return float(dists[0]), bool(flags[0])


def _witness_geodesic(ends, undo, n: int) -> Geodesic:
    """The geodesic with frame endpoints ``ends`` (integers, or inf), mapped
    exactly through ``w -> -1/(Phi w)`` and then the token word ``undo``.
    Field elements, and one inverse, are built only from the final pairs."""
    zero = [0] * field_degree(n)
    phi = _fold(n, [0, 1] + zero[2:], len(zero))
    # -1/(Phi w) sends (e : 1) to (-1 : Phi e) and (1 : 0) to (0 : Phi)
    starts = [
        (zero, phi) if math.isinf(e) else ([-1, *zero[1:]], [int(e) * c for c in phi]) for e in ends
    ]
    (P1, Q1), (P2, Q2) = [[_element(n, v, 1) for v in pq] for pq in _step_pairs(starts, undo, n)]
    if Q1.is_zero() or Q2.is_zero():
        P, Q = (P2, Q2) if Q1.is_zero() else (P1, Q1)
        return Geodesic.vertical(accurate_float(P * Q.inverse()))
    # from the exact center and half-width: rounding the ends first can merge
    # them into one double far from the strip
    p, q, inv = P1 * Q2, P2 * Q1, (2 * Q1 * Q2).inverse()
    return Geodesic.circle(accurate_float((p + q) * inv), accurate_float(abs((q - p) * inv)))


@dataclass(frozen=True)
class OrbitWitness:
    """The nearest orbit member that a closed-formula query found, as exact
    data.

    ``ends`` are the endpoints ``a``, ``b`` of ``_nearest``'s witness in the
    frame ``w = -1/(phi (z - m phi))`` of the reduced point: integers, held
    exactly as doubles, or inf.  ``shift`` is ``m``, ``word`` the
    fundamental-domain reduction word of the query point and ``n`` the
    staircase.  ``geodesic`` is the witness in the frame of the query point
    as a float ``Geodesic``: built on first read by ``_witness_geodesic``,
    which maps the ends back exactly over Z[Phi] with one field inverse, and
    kept from then on.

    It unpacks as ``(geodesic, word)``, reading the geodesic: callers of a
    closed-formula report take its witness as ``geod, word =
    rep.witnesses[0]``, the pair the report held when it stored the
    geodesic itself.
    """

    ends: tuple[float, float]
    shift: int
    word: list
    n: int

    @cached_property
    def geodesic(self) -> Geodesic:
        # w -> -1/(phi w) into the strip, TH^m back to the reduced point,
        # then undo the reduction word
        undo = [("TH", self.shift)] + [(gen, -k) for gen, k in reversed(self.word)]
        return _witness_geodesic(self.ends, undo, self.n)

    def __iter__(self):
        return iter((self.geodesic, self.word))


def nearest_witness(z: complex, n: int) -> tuple[float, bool, OrbitWitness]:
    """``dist_to_Gmax`` of one point, with the nearest member of ``S`` that
    the search found: ``(dist, converged, witness)``.

    The point is reduced to the fundamental domain unless it lies in it,
    and ``_nearest_point`` searches it in Python floats, to the bits of
    ``_nearest``.  ``converged`` is the flag of ``dist_to_Gmax``.  The
    witness keeps the search's frame ends, its shift and the reduction word;
    no field element is built until its ``geodesic`` is read.
    """
    z = complex(z)
    w, word = (z, []) if in_fundamental_domain(z, n) else reduce_to_fundamental_domain(z, n)
    sinh, m, a, b, converged = _nearest_point(w.real, w.imag, n)
    return math.asinh(sinh), converged, OrbitWitness((a, b), m, word, n)


def nearest_gmax_geodesic(z: complex, n: int) -> tuple[float, bool, Geodesic, list]:
    """Like ``dist_to_Gmax`` but also reports a minimizing geodesic.

    Returns ``(dist, converged, geodesic, word)``: the geodesic of
    ``nearest_witness``'s witness, in the frame of the input point (its
    endpoints are computed exactly from the search indices and mapped back
    through the inverse reduction word), built at once, and ``word`` the
    fundamental-domain reduction word that was used.
    """
    dist, converged, witness = nearest_witness(z, n)
    return dist, converged, witness.geodesic, list(witness.word)
