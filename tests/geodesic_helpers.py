"""Float readings of a ``kvol.hyperbolic.Geodesic`` that only the tests
take: its two boundary points and the hyperbolic distance to a point."""

from __future__ import annotations

import math


def endpoints(geo) -> tuple[float, float]:
    """The geodesic's boundary points; a vertical line ends at infinity."""
    if geo.is_vertical:
        return (geo.foot, math.inf)
    return (geo.center - geo.radius, geo.center + geo.radius)


def sinh_dist(geo, z: complex) -> float:
    """sinh of the hyperbolic distance from ``z`` to the geodesic."""
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("point is not in the upper half plane")
    if geo.is_vertical:
        return abs(x - geo.foot) / y
    c, r = geo.center, geo.radius
    return abs((x - c) * (x - c) + y * y - r * r) / (2.0 * r * y)


def dist_to(geo, z: complex) -> float:
    """The hyperbolic distance from ``z`` to the geodesic."""
    return math.asinh(sinh_dist(geo, z))
