"""Exact planar primitives: 2-vectors over Q(Phi), 2x2 matrices, orientation signs.

Vectors are plain (x, y) tuples of CycloReal so they stay cheap in the hot
enumeration loops; Mat2 is a small immutable matrix class used for the Veech
group, the staircase/n-gon conversion and SL(2,R) transforms.

The one geometric predicate is the orientation sign ``cross(u, v).sign()``:
which side of a line a point lies on.  The surface tracer decides where a
line leaves a face from such signs of levels and builds no point, so the
module has no parametric line solver.
"""

from __future__ import annotations

import math

from .field import CycloReal, as_field

Vec2 = tuple[CycloReal, CycloReal]


def vadd(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def vsub(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def vneg(u: Vec2) -> Vec2:
    return (-u[0], -u[1])


def cross(u: Vec2, v: Vec2) -> CycloReal:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec2, v: Vec2) -> CycloReal:
    return u[0] * v[0] + u[1] * v[1]


def norm2(u: Vec2) -> CycloReal:
    return u[0] * u[0] + u[1] * u[1]


def vfloat(u: Vec2) -> tuple[float, float]:
    return (float(u[0]), float(u[1]))


def is_zero_vec(u: Vec2) -> bool:
    return u[0].is_zero() and u[1].is_zero()


def parallel(u: Vec2, v: Vec2) -> bool:
    return cross(u, v).is_zero()


def same_ray(u: Vec2, v: Vec2) -> bool:
    """True if u and v are positive multiples of each other (both nonzero)."""
    return parallel(u, v) and dot(u, v).sign() > 0


def direction_pair(label) -> tuple:
    """The one reading of a direction label, as a raw pair ``(x, y)``.

    ``None``, ``"inf"`` and float infinity label the horizontal ``(1, 0)``; a
    tuple ``(x, y)`` is the vector itself; any other value is a co-slope
    ``d = x/y``, the vector ``(d, 1)`` (vertical = 0).  The entries come back
    as given, for the caller to convert: to the field (``surface``), to
    floats (``hyperbolic``) or to JSON (``ratios``).
    """
    if label is None or label == "inf" or (isinstance(label, float) and math.isinf(label)):
        return (1, 0)
    if isinstance(label, tuple):
        x, y = label
        if x == 0 and y == 0:
            raise ValueError("zero direction vector")
        return (x, y)
    return (label, 1)


def canonical_orientation(u: Vec2) -> bool:
    """Upper half-plane convention: y > 0, or y == 0 and x > 0."""
    sy = u[1].sign()
    return sy > 0 or (sy == 0 and u[0].sign() > 0)


class Mat2:
    """Immutable 2x2 matrix [[a, b], [c, d]] with CycloReal entries."""

    __slots__ = ("n", "a", "b", "c", "d")

    def __init__(self, n: int, a, b, c, d):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", as_field(n, a))
        object.__setattr__(self, "b", as_field(n, b))
        object.__setattr__(self, "c", as_field(n, c))
        object.__setattr__(self, "d", as_field(n, d))

    def __setattr__(self, *_):
        raise AttributeError("Mat2 is immutable")

    def det(self) -> CycloReal:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.n,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        dt = self.det()
        if dt.is_zero():
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.n, self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def apply(self, v: Vec2) -> Vec2:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.n, self.a, self.b, self.c, self.d) == (
            other.n, other.a, other.b, other.c, other.d,
        )

    def __hash__(self):
        return hash((self.n, self.a, self.b, self.c, self.d))

    def as_floats(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((float(self.a), float(self.b)), (float(self.c), float(self.d)))

    def __repr__(self):
        (a, b), (c, d) = self.as_floats()
        return f"Mat2(n={self.n}, [[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"
