"""Exact planar primitives: 2-vectors over Q(Phi), 2x2 matrices, segment tests.

Vectors are plain (x, y) tuples of CycloReal so they stay cheap in the hot
enumeration loops; Mat2 is a small immutable matrix class used for the Veech
group, the staircase/n-gon conversion and SL(2,R) transforms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .field import CycloReal, Rational

Vec2 = tuple[CycloReal, CycloReal]
Scalar = Union[CycloReal, int, Fraction]


def vec(n: int, x, y) -> Vec2:
    cx = x if isinstance(x, CycloReal) else CycloReal.from_rational(n, x)
    cy = y if isinstance(y, CycloReal) else CycloReal.from_rational(n, y)
    return (cx, cy)


def vadd(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def vsub(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def vneg(u: Vec2) -> Vec2:
    return (-u[0], -u[1])


def smul(c: Scalar, u: Vec2) -> Vec2:
    return (c * u[0], c * u[1])


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


def is_horizontal_label(d) -> bool:
    """True for the labels of the horizontal direction: None, "inf",
    "horizontal", "h" and float infinity."""
    if d is None:
        return True
    if isinstance(d, str):
        return d in ("inf", "horizontal", "h")
    return isinstance(d, float) and math.isinf(d)


def canonical_orientation(u: Vec2) -> bool:
    """Upper half-plane convention: y > 0, or y == 0 and x > 0."""
    sy = u[1].sign()
    return sy > 0 or (sy == 0 and u[0].sign() > 0)


def line_intersection(p: Vec2, u: Vec2, q: Vec2, v: Vec2) -> Optional[tuple[CycloReal, CycloReal]]:
    """Parameters (s, t) with p + s*u == q + t*v, or None if u, v are parallel."""
    den = cross(u, v)
    if den.is_zero():
        return None
    w = vsub(q, p)
    s = cross(w, v) / den
    t = cross(w, u) / den
    return s, t


class Mat2:
    """Immutable 2x2 matrix [[a, b], [c, d]] with CycloReal entries."""

    __slots__ = ("n", "a", "b", "c", "d")

    def __init__(self, n: int, a, b, c, d):
        conv = lambda v: v if isinstance(v, CycloReal) else CycloReal.from_rational(n, v)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", conv(a))
        object.__setattr__(self, "b", conv(b))
        object.__setattr__(self, "c", conv(c))
        object.__setattr__(self, "d", conv(d))

    def __setattr__(self, *_):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls, n: int) -> "Mat2":
        return cls(n, 1, 0, 0, 1)

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
