"""A seeded sweep of the cone search at the extremes of the disk and of the
field degree.

Each case is the staircase S_n, n even in 8..16 and at 56 and 64, at a disk
point z = x + iy drawn with ``random.Random``: x = a/b with |x| <= 30 and y
log-uniform in [1/100, 2], drawn as the square of a rational r.  The surface
is M S_n with M = [[1, x], [0, y]] / r, of unit determinant, which stands
for the same point as M_z = [[1, x], [0, y]]; its cap c l_m is the cap
c sqrt(y) l_m of M_z S_n.  Scaled by 1 / r, a deep point keeps the lengths
of its surface near those of S_n, so the looser prune of the rerun below
(an absolute slack of 0.25 in squared length) costs as much at y = 1/100 as
at y = 1.  c keeps each case to a few dozen connections at most.

Four judges read each case:

* every connection traces exactly along its recorded path
  (``intersect_oracle.pieces``);
* the list equals a rerun whose float tests never decide (an infinite sign
  margin) and whose prune is looser;
* the enumeration filtered to one connection's direction is the unfiltered
  list's connections parallel to it;
* the holonomies equal those found on M TH^k S_n, another presentation of
  the same surface (TH, the horizontal shear by Phi, is an affine symmetry
  of S_n), with k = -round(x / Phi), or 1 where that is 0, so that its
  faces are sheared by x + k Phi instead of x.  The other judges compare
  the search with itself; this one finds a connection the search loses.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from kvol import saddle
from kvol.field import CycloReal, trig_value
from kvol.plane import Mat2, cross
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import build_staircase
import intersect_oracle as oracle

_NS = (8, 10, 12, 14, 16, 56, 64)
_PER_N = 2
_CAP_LM = 4
_CASES = [(n, i) for n in _NS for i in range(_PER_N)]


def _point(n: int, i: int) -> tuple[Fraction, Fraction]:
    """x and r, y = r^2, of case i at n."""
    rng = random.Random(f"sweep:{n}:{i}")
    b = rng.randint(1, 9)
    x = Fraction(rng.randint(-30 * b, 30 * b), b)
    r = Fraction(math.exp(rng.uniform(math.log(1 / 100), math.log(2)) / 2)).limit_denominator(30)
    return x, r


def _surface(n: int, x, r: Fraction):
    return build_staircase(n).transform(Mat2(n, 1 / r, x / r, 0, r))


@lru_cache(maxsize=None)
def _case(n: int, i: int):
    """(surface, cap) of case i at n."""
    return _surface(n, *_point(n, i)), trig_value(n, "sin", 1) * _CAP_LM


def _rows(scs):
    return [(sc.holonomy, sc.path, sc.start.corner, sc.end.corner, sc.edge_pair) for sc in scs]


def _ids(case):
    return f"n{case[0]}-{case[1]}"


@pytest.mark.parametrize("case", _CASES, ids=_ids)
def test_connections_trace_their_paths(case):
    S, L = _case(*case)
    scs = enumerate_saddle_connections(S, L)
    assert scs
    for sc in scs:
        oracle.pieces(sc)  # raises when the trace leaves the recorded path


@pytest.mark.parametrize("case", _CASES, ids=_ids)
def test_exact_decisions_give_the_same_list(case, monkeypatch):
    S, L = _case(*case)
    default = _rows(enumerate_saddle_connections(S, L))
    monkeypatch.setattr(saddle, "_SIGN_MARGIN", math.inf)
    monkeypatch.setattr(saddle, "_PRUNE_SLACK", 0.25)
    assert _rows(enumerate_saddle_connections(S, L)) == default


@pytest.mark.parametrize("case", _CASES, ids=_ids)
def test_direction_filter_keeps_the_parallel_connections(case):
    S, L = _case(*case)
    scs = enumerate_saddle_connections(S, L)
    d = scs[random.Random(f"sweep:{case}").randrange(len(scs))].holonomy
    parallel = [sc for sc in scs if cross(sc.holonomy, d).sign() == 0]
    assert _rows(enumerate_saddle_connections(S, L, direction=d)) == _rows(parallel)


@pytest.mark.parametrize("case", _CASES, ids=_ids)
def test_another_presentation_has_the_same_holonomies(case):
    n = case[0]
    S, L = _case(*case)
    x, r = _point(*case)
    phi = CycloReal.phi(n)
    k = -round(x / float(phi)) or 1
    other = _surface(n, phi * k + x, r)
    got = [sc.holonomy for sc in enumerate_saddle_connections(other, L)]
    assert got == [sc.holonomy for sc in enumerate_saddle_connections(S, L)]
