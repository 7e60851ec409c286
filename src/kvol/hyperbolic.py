"""Upper half-plane geometry of the deformation disk of a surface.

A point ``z = x + iy`` of the upper half plane stands for the surface
``M_z . S`` with ``M_z = [[1, x], [0, y]]``; in general a matrix ``M`` with
positive determinant maps to ``point_of_surface(M) = (d i + b)/(c i + a)``,
which is invariant under rescaling of ``M``.  Right multiplication by an
affine symmetry ``g`` of ``S`` acts on the disk through the Moebius action
of ``conj(g^-1)`` where ``conj`` flips the signs of the off-diagonal
entries; for the shear generators this gives ``z -> z + phi`` and
``z -> z/(phi z + 1)``, and the reflection acts by ``z -> -conj(z)``.

Directions are labelled by their co-slope; the label ``d`` corresponds to
the tangent vector ``(-d, 1)`` (horizontal = "inf" -> ``(1, 0)``) and to the
ideal boundary point ``x = d``.  With these pairings the angle identity

    sin(theta(z, d, d')) * cosh(dist(z, geodesic(d, d'))) = 1

holds exactly for every surface point and every pair of labels.

Everything here is double precision; exactness lives in the flat modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import mpmath

from .field import CycloReal, _phi_float
from .plane import Mat2, is_horizontal_label

__all__ = [
    "point_of_surface",
    "moebius",
    "induced_action",
    "angle_sine",
    "Geodesic",
    "geodesic_of_directions",
    "dist_points",
    "in_fundamental_domain",
    "reduce_to_fundamental_domain",
    "apply_word",
    "word_matrix",
    "dist_to_Gmax",
]

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


def moebius(M, z: complex) -> complex:
    """Moebius action ``z -> (a z + b)/(c z + d)`` on the upper half plane.

    Matrices of negative determinant act through the complex conjugate, so
    they still map the upper half plane to itself.
    """
    a, b, c, d = _as_float_matrix(M)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    if det < 0:
        z = z.conjugate()
    return (a * z + b) / (c * z + d)


def induced_action(g: Mat2) -> Mat2:
    """The exact matrix whose Moebius action realizes ``M -> M g`` on points.

    ``point_of_surface(M g) == moebius(induced_action(g), point_of_surface(M))``
    for every ``M`` of positive determinant.
    """
    inv = g.inverse()
    return Mat2(g.n, inv.a, -inv.b, -inv.c, inv.d)


def _direction_vector(label) -> tuple[float, float]:
    if is_horizontal_label(label):
        return (1.0, 0.0)
    return (-float(label), 1.0)


def _boundary_point(label) -> float:
    if is_horizontal_label(label):
        return math.inf
    return float(label)


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
    u1, v1 = _direction_vector(d1)
    u2, v2 = _direction_vector(d2)
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
    return Geodesic.from_endpoints(_boundary_point(d1), _boundary_point(d2))


def dist_points(z: complex, w: complex) -> float:
    """Hyperbolic distance between two points of the upper half plane."""
    if z.imag <= 0 or w.imag <= 0:
        raise ValueError("points must be in the upper half plane")
    d2 = abs(z - w) ** 2
    return math.acosh(1.0 + d2 / (2.0 * z.imag * w.imag))


# ---------------------------------------------------------------------------
# the shear group and its fundamental domain
# ---------------------------------------------------------------------------

def _phi_mpf(n: int) -> mpmath.mpf:
    # 2 cos(pi/n) at the current working precision
    return 2 * mpmath.cos(mpmath.pi / n)


def _entry_mpf(x: CycloReal) -> mpmath.mpf:
    phi = _phi_mpf(x.n)
    acc = mpmath.mpf(0)
    for c in reversed(x.coeffs):
        acc = acc * phi + mpmath.mpf(c.numerator) / c.denominator
    return acc


def _moebius_exact(m: Mat2, z, prec: int):
    """Evaluate the Moebius action of an exact matrix at ``prec`` bits."""
    with mpmath.workprec(prec):
        zz = mpmath.mpc(z)
        a, b, c, d = map(_entry_mpf, (m.a, m.b, m.c, m.d))
        return (a * zz + b) / (c * zz + d)


def in_fundamental_domain(z: complex, n: int, *, tol: float = 1e-9) -> bool:
    """Membership in the strip-minus-two-circles fundamental domain.

    The domain is ``|Re z| <= phi/2`` minus the open disks of radius
    ``1/phi`` centered at ``+-1/phi``; the tolerance is applied outward, so
    boundary points count as inside.
    """
    phi = _phi_float(n)
    if z.imag <= 0:
        return False
    if abs(z.real) > phi / 2 + tol:
        return False
    r = 1.0 / phi
    return abs(z - r) >= r - tol and abs(z + r) >= r - tol


def reduce_to_fundamental_domain(
    z, n: int, *, tol: float = 1e-12, max_steps: int = 10000
):
    """Move a point into the fundamental domain of ``<z+phi, z/(phi z+1)>``.

    Returns the reduced point and the word that was applied, as a list of
    tokens ``("TH", k)`` (``z -> z + k phi``) and ``("TV", k)``
    (``z -> z/(k phi z + 1)``); ``apply_word`` replays it.

    The word is accumulated as an exact matrix and the current position is
    re-evaluated from the original input at every step in high-precision
    arithmetic, so the result does not accumulate rounding drift even when
    the input sits deep in a cusp (where ``Im z`` can be far below 1e-12
    and stepwise double-precision updates would lose most digits).  The
    input may be a ``complex`` or an ``mpmath.mpc``; the reduced point is
    returned in kind.
    """
    exact_in = isinstance(z, (mpmath.mpc, mpmath.mpf))
    zz = mpmath.mpc(z)
    if zz.imag <= 0:
        raise ValueError("point is not in the upper half plane")
    phi_x = CycloReal.phi(n)
    one = CycloReal.from_rational(n, 1)
    zero = CycloReal.from_rational(n, 0)
    acc = Mat2(n, one, zero, zero, one)
    phi = _phi_float(n)
    r = 1.0 / phi
    word: list[tuple[str, int]] = []
    base_prec = max(mpmath.mp.prec + 60, 300) if exact_in else 300
    for _ in range(max_steps):
        prec = base_prec + 6 * len(word)
        zc = _moebius_exact(acc, zz, prec)
        x = float(zc.real)
        k = round(x / phi)
        if k:
            acc = Mat2(n, one, phi_x * (-k), zero, one) * acc
            word.append(("TH", -k))
        elif abs(complex(zc) + r) < r - tol:
            acc = Mat2(n, one, zero, phi_x, one) * acc
            word.append(("TV", 1))
        elif abs(complex(zc) - r) < r - tol:
            acc = Mat2(n, one, zero, -phi_x, one) * acc
            word.append(("TV", -1))
        else:
            return (zc if exact_in else complex(zc)), word
    raise RuntimeError("fundamental-domain reduction did not terminate")


def apply_word(word: Iterable[tuple[str, int]], z, n: int):
    """Apply a token word (as produced by the reduction) to a point.

    Accepts a ``complex`` or an ``mpmath.mpc`` and returns the same kind.
    Evaluation runs at high working precision internally: long words can
    contract a point so close to the real axis that naive double-precision
    updates destroy it.
    """
    word = list(word)
    exact_in = isinstance(z, (mpmath.mpc, mpmath.mpf))
    base = mpmath.mp.prec + 60 if exact_in else 300
    with mpmath.workprec(base + 6 * len(word)):
        phi = _phi_mpf(n)
        zz = mpmath.mpc(z)
        for gen, k in word:
            if gen == "TH":
                zz = zz + k * phi
            elif gen == "TV":
                zz = zz / (k * phi * zz + 1)
            else:
                raise ValueError(f"unknown generator {gen!r}")
    return +zz if exact_in else complex(zz)


def word_matrix(word: Iterable[tuple[str, int]], n: int) -> Mat2:
    """The exact disk-action matrix of a token word."""
    phi = CycloReal.phi(n)
    one = CycloReal.from_rational(n, 1)
    zero = CycloReal.from_rational(n, 0)
    m = Mat2(n, one, zero, zero, one)
    for gen, k in word:
        if gen == "TH":
            step = Mat2(n, one, phi * k, zero, one)
        elif gen == "TV":
            step = Mat2(n, one, zero, phi * k, one)
        else:
            raise ValueError(f"unknown generator {gen!r}")
        m = step * m
    return m


# ---------------------------------------------------------------------------
# distance to the orbit of the maximal-ratio geodesics
# ---------------------------------------------------------------------------

_MIN_RADIUS = 1e-5


def _orbit_candidates(n: int, k_max: int, word_len: int):
    """Images of the base vertical family under short group words.

    The base family holds the verticals ``x = 0`` and ``x = +-1/(k phi)``
    for ``k <= k_max``; the group is generated by ``x -> x +- phi`` and
    ``x -> x/(+-phi x + 1)`` acting on ideal endpoints.  Queries are always
    reduced to the fundamental strip first, so geodesics are stored modulo
    the translation ``x -> x + phi`` (every candidate is re-centered into
    ``[-phi/2, phi/2]`` and evaluated at the three nearby translates at
    query time).  Circles smaller than ``_MIN_RADIUS`` are dropped: they sit
    too deep in a cusp to ever realize the minimum at the heights queried.
    The result is split into vertical feet and circle (center, radius)
    arrays, each tripled by the ``-phi/0/+phi`` shifts.
    """
    phi = _phi_float(n)

    def mob(s: int, x: float) -> float:
        # endpoint action of the vertical shear power s: x -> x/(s phi x + 1)
        if math.isinf(x):
            return 1.0 / (s * phi)
        den = s * phi * x + 1.0
        if den == 0.0:
            return math.inf
        return x / den

    def canonical(pair):
        p, q = pair
        if math.isinf(p):
            p, q = q, p
        if math.isinf(q):  # vertical with foot p
            shift = phi * round(p / phi)
            return (p - shift, math.inf)
        c = (p + q) / 2.0
        shift = phi * round(c / phi)
        lo, hi = min(p, q) - shift, max(p, q) - shift
        return (lo, hi)

    def key_of(pair):
        p, q = pair
        return (round(p, 9), "inf" if math.isinf(q) else round(q, 9))

    seeds = [(0.0, math.inf)]
    for k in range(1, k_max + 1):
        seeds.append((1.0 / (k * phi), math.inf))
        seeds.append((-1.0 / (k * phi), math.inf))

    seen: dict = {}
    frontier = []
    for pair in map(canonical, seeds):
        key = key_of(pair)
        if key not in seen:
            seen[key] = pair
            frontier.append(pair)
    for _ in range(word_len):
        nxt = []
        for base in frontier:
            # expand from each translate so the shear sees every pole offset
            for shift in (-phi, 0.0, phi):
                p, q = base[0] + shift, base[1] + shift
                for s in (1, -1):
                    pair = canonical((mob(s, p), mob(s, q)))
                    if not math.isinf(pair[1]):
                        if (pair[1] - pair[0]) / 2.0 < _MIN_RADIUS:
                            continue
                    key = key_of(pair)
                    if key not in seen:
                        seen[key] = pair
                        nxt.append(pair)
        frontier = nxt

    feet = []
    centers = []
    radii = []
    for p, q in seen.values():
        if math.isinf(q):
            feet.append(p)
        else:
            centers.append((p + q) / 2.0)
            radii.append((q - p) / 2.0)
    import numpy as np

    feet_arr = np.array(feet, dtype=float)
    cen_arr = np.array(centers, dtype=float)
    rad_arr = np.array(radii, dtype=float)
    shifts = np.array([-phi, 0.0, phi])
    feet_arr = (feet_arr[:, None] + shifts).ravel()
    cen_arr, rad_arr = (
        (cen_arr[:, None] + shifts).ravel(),
        np.repeat(rad_arr, 3),
    )
    return feet_arr, cen_arr, rad_arr


_CANDIDATES: dict = {}


def _candidates(n: int, k_max: int, word_len: int):
    key = (n, k_max, word_len)
    if key not in _CANDIDATES:
        _CANDIDATES[key] = _orbit_candidates(n, k_max, word_len)
    return _CANDIDATES[key]


def _min_sinh_batch(xs, ys, cands):
    """Per-point minimum of ``sinh dist`` over a candidate family.

    Vectorized over points; the circle list is first pruned by a sound
    necessary condition: a circle of radius ``r`` has ``sinh dist <= s``
    somewhere at height ``y`` only when ``r >= y (sqrt(s^2+1) - s)``, with
    ``s`` the bound already achieved by the verticals.
    """
    import numpy as np

    feet, centers, radii = cands
    best = np.full(xs.shape, np.inf)
    if feet.size:
        best = np.min(np.abs(xs[:, None] - feet[None, :]), axis=1) / ys
    if centers.size:
        thresh = float(np.min(ys * (np.sqrt(best**2 + 1.0) - best)))
        keep = radii >= thresh
        cen, rad = centers[keep], radii[keep]
        for lo in range(0, cen.size, 65536):
            c = cen[lo : lo + 65536]
            r = rad[lo : lo + 65536]
            vals = np.abs(
                (xs[:, None] - c[None, :]) ** 2
                + (ys**2)[:, None]
                - (r**2)[None, :]
            ) / (2.0 * r[None, :] * ys[:, None])
            best = np.minimum(best, vals.min(axis=1))
    return best


def dist_to_Gmax_batch(
    zs: Sequence[complex],
    n: int,
    *,
    k_max: int = 12,
    word_len: int = 10,
    tol: float = 1e-9,
):
    """Vectorized ``dist_to_Gmax`` over many points.

    Returns a float array of distances and a bool array of convergence
    flags.  Each point is reduced to the fundamental domain first.
    """
    import numpy as np

    reduced = [reduce_to_fundamental_domain(complex(z), n)[0] for z in zs]
    xs = np.array([w.real for w in reduced])
    ys = np.array([w.imag for w in reduced])
    s0 = _min_sinh_batch(xs, ys, _candidates(n, k_max, word_len))
    s1 = _min_sinh_batch(xs, ys, _candidates(n, k_max + 2, word_len + 2))
    d0 = np.arcsinh(s0)
    d1 = np.arcsinh(s1)
    return d1, np.abs(d0 - d1) <= tol


def dist_to_Gmax(
    z: complex,
    n: int,
    *,
    k_max: int = 12,
    word_len: int = 10,
    tol: float = 1e-9,
) -> tuple[float, bool]:
    """Distance from a disk point to the orbit of the maximal-ratio verticals.

    The point is first reduced to the fundamental domain (the orbit is
    invariant, and reduction makes the search local).  The returned flag
    reports convergence: the value is recomputed with the family truncation
    and the word length both enlarged by two, and the flag is set when the
    two estimates agree within the tolerance.  The deeper estimate is
    returned.
    """
    dists, flags = dist_to_Gmax_batch([z], n, k_max=k_max, word_len=word_len, tol=tol)
    return float(dists[0]), bool(flags[0])


def _moebius_boundary(M, x: float) -> float:
    """Image of a boundary point (real or +-inf) under an exact matrix."""
    a, b, c, d = (float(M.a), float(M.b), float(M.c), float(M.d))
    if math.isinf(x):
        return a / c if c != 0.0 else math.inf
    den = c * x + d
    if den == 0.0:
        return math.inf
    return (a * x + b) / den


def nearest_gmax_geodesic(
    z: complex,
    n: int,
    *,
    k_max: int = 12,
    word_len: int = 10,
    tol: float = 1e-9,
) -> tuple[float, bool, Geodesic, list]:
    """Like ``dist_to_Gmax`` but also reports a minimizing geodesic.

    Returns ``(dist, converged, geodesic, word)`` with the geodesic expressed
    in the frame of the input point (the reduction word is inverted and
    applied to its endpoints) and ``word`` the fundamental-domain reduction
    word that was used.
    """
    import numpy as np

    w, word = reduce_to_fundamental_domain(complex(z), n)
    x, y = w.real, w.imag
    xs = np.array([x])
    ys = np.array([y])
    s0 = _min_sinh_batch(xs, ys, _candidates(n, k_max, word_len))[0]
    feet, centers, radii = _candidates(n, k_max + 2, word_len + 2)
    best = math.inf
    geod = None
    if feet.size:
        i = int(np.argmin(np.abs(x - feet)))
        best = abs(x - feet[i]) / y
        geod = Geodesic.vertical(float(feet[i]))
    if centers.size:
        vals = np.abs((x - centers) ** 2 + y * y - radii**2) / (2.0 * radii * y)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            geod = Geodesic.circle(float(centers[i]), float(radii[i]))
    dist = math.asinh(best)
    converged = abs(math.asinh(float(s0)) - dist) <= tol
    if word:
        Minv = word_matrix(word, n).inverse()
        p, q = geod.endpoints()
        geod = Geodesic.from_endpoints(
            _moebius_boundary(Minv, p), _moebius_boundary(Minv, q)
        )
    return dist, converged, geod, list(word)
