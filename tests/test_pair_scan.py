"""Tests for the pair-scan engine: the blocked float pass and the exact
tournament behind brute force and bound certification.

The anchors are the engine's own results under other settings: a scan split
into several blocks gives the single-block results, and an exact tournament
over every crossing pair, with no float filter, finds the same maximum and
the same ties as the filtered brute force.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kvol import ratios
from kvol.field import CycloReal, _phi_float, accurate_float, field_degree, trig_value
from kvol.intersect import intersection_form
from kvol.plane import Mat2, norm2, vfloat
from kvol.ratios import (
    _exact_max,
    _pair_key,
    _RadicalContext,
    bound_4m2,
    closed_atoms,
    kvol_bruteforce,
    verify_ngon_bound,
)
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import build_ngon, build_staircase


def witness_keys(report):
    return [(_pair_key(a, b), I) for a, b, I in report.witnesses]


def scan_ngon10(monkeypatch, block_entries):
    """Brute force and bound report of the n=10 n-gon at L = 3, with the
    number of blocks the last pair scan used."""
    monkeypatch.setattr(ratios, "_BLOCK_ENTRIES", block_entries)
    starts = []
    blocks = ratios._ratio_blocks

    def counted(form, curves):
        starts.clear()
        for block in blocks(form, curves):
            starts.append(block[0])
            yield block

    monkeypatch.setattr(ratios, "_ratio_blocks", counted)
    brute = kvol_bruteforce(build_ngon(10), 3)
    bound = verify_ngon_bound(10).to_dict()
    return brute, bound, len(starts)


def test_multi_block_scan_matches_single_block(monkeypatch):
    brute1, bound1, nblocks = scan_ngon10(monkeypatch, ratios._BLOCK_ENTRIES)
    assert brute1.params["count_curves"] == 310
    assert nblocks == 1
    brute4, bound4, nblocks = scan_ngon10(monkeypatch, 1)
    assert nblocks >= 4
    assert brute4.exact_value == brute1.exact_value
    assert witness_keys(brute4) == witness_keys(brute1)
    assert bound4 == bound1


def test_near_max_filtered_against_final_maximum(monkeypatch):
    # one row per block: 0.9 leads block 0, 1 - 5e-10 is within the slack of
    # the final maximum 1.0, which only the last block reaches
    rows = [(1, 0.9, 9), (2, 1.0 - 5e-10, 7), (3, 1.0, 5)]
    blocks = []
    for i0, (j, ratio, count) in enumerate(rows):
        R, I = np.zeros((1, 4)), np.zeros((1, 4), dtype=np.int64)
        R[0, j], I[0, j] = ratio, count
        blocks.append((i0, I, R))
    monkeypatch.setattr(ratios, "_ratio_blocks", lambda form, curves: iter(blocks))
    scan = ratios._scan_pairs(None, None, floor=0.95)
    assert scan.best == 1.0 and scan.crossing == 3
    assert scan.near_max == [(1, 2, 7), (2, 3, 5)]
    assert scan.above == [(1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None, floor=0.0).above == [(0, 1, 9), (1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None).above == []


@pytest.mark.parametrize(
    "X, L",
    [
        (build_ngon(8), 2),
        (build_staircase(10), trig_value(10, "sin", 1) * 3),
    ],
    ids=["ngon8-L2", "staircase10-3lm"],
)
def test_float_filter_drops_no_maximizer(X, L):
    curves = closed_atoms(X, enumerate_saddle_connections(X, L))
    form = intersection_form(X)
    G = form.gram(curves)
    crossing = [(i, j, int(G[i, j])) for i, j in zip(*np.nonzero(np.triu(G, 1)))]
    ctx = _RadicalContext(X.n)
    ((_, _, I), den), ties = _exact_max(ctx, curves, crossing)

    report = kvol_bruteforce(X, L, form=form)
    assert report.exact_ratio is not None
    r2 = report.exact_ratio * report.exact_ratio
    assert ctx.sign(ctx.add(ctx.scale(den, r2), ctx.const(-I * I))) == 0
    all_ties = sorted((_pair_key(curves[i], curves[j]), I) for (i, j, I), _ in ties)
    assert all_ties == witness_keys(report)
    assert len(crossing) > len(ties)


def _brute_point(x, y):
    """S_8 sheared to the disk point (x, y), with its 20 l_m cap on the
    area-normalised surface, as the brute-force benchmark draws them."""
    one = CycloReal.from_rational(8, 1)
    M = Mat2(8, one, x if isinstance(x, CycloReal) else one * x, one * 0, one * y)
    L = trig_value(8, "sin", 1) * Fraction(20 * math.sqrt(y)).limit_denominator(1000)
    return build_staircase(8).transform(M), L


_BRUTE_POINTS = [
    (0, Fraction(9, 10)),
    (CycloReal.phi(8).inverse(), Fraction(3, 5)),
    (Fraction(1, 5), Fraction(7, 10)),
    (Fraction(29, 64), Fraction(41, 64)),
]


def test_scan_does_no_field_arithmetic(monkeypatch):
    # lengths are floats that enumeration already converted, and the class
    # rows come from the form's table, not from a cache keyed by holonomies
    S, L = _brute_point(Fraction(1, 5), Fraction(7, 10))
    curves = closed_atoms(S, enumerate_saddle_connections(S, L))
    form = intersection_form(S)
    calls = {"mul": 0, "hash": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("__hash__", "hash")):
        monkeypatch.setattr(CycloReal, attr, counting(name, getattr(CycloReal, attr)))
    scan = ratios._scan_pairs(form, curves)
    monkeypatch.undo()
    assert len(curves) > 300 and scan.near_max
    assert calls == {"mul": 0, "hash": 0}


def _conversion_error(c: CycloReal) -> float:
    """The bound on |float(c) - c| that the ratios docstring states."""
    phi, d = _phi_float(c.n), field_degree(c.n)
    return (4 * d + 4) * 2.0**-52 * sum(abs(a / c._den) * phi**i for i, a in enumerate(c._num))


def _length_errors(scs):
    """The largest stated relative length errors (hypot of the holonomy
    floats, and the root of the float squared length) over the connections,
    each checked against a reference length."""
    eta_hypot = eta_norm = 0.0
    for sc in scs:
        x, y = sc.holonomy
        n2 = norm2(sc.holonomy)
        ref = math.sqrt(accurate_float(n2))
        e_hypot = (_conversion_error(x) + _conversion_error(y)) / ref + 2.0**-52
        e_norm = _conversion_error(n2) / (2 * accurate_float(n2)) + 2.0**-52
        # the reference itself is off by up to 2^-52
        assert abs(math.hypot(*vfloat(sc.holonomy)) - ref) <= (e_hypot + 2.0**-52) * ref
        assert abs(math.sqrt(float(n2)) - ref) <= (e_norm + 2.0**-52) * ref
        eta_hypot, eta_norm = max(eta_hypot, e_hypot), max(eta_norm, e_norm)
    return eta_hypot, eta_norm


@pytest.mark.parametrize(
    "family",
    [pytest.param(p, id=f"brute-{i}") for i, p in enumerate(_BRUTE_POINTS)]
    + [pytest.param(n, id=f"ngon{n}") for n in (8, 10, 12, 16, 20, 24)],
)
def test_float_length_error_is_far_below_the_margins(family):
    if isinstance(family, int):
        S, L = build_ngon(family), 3
        stated = 2e-12
    else:
        S, L = _brute_point(*family)
        stated = 1e-13
    eta_hypot, eta_norm = _length_errors(enumerate_saddle_connections(S, L))
    assert eta_hypot < stated and eta_norm < stated
    # ratio errors: the near-maximum window holds every pair within both
    # scans' errors of the maximum, and the bound margin dwarfs them
    d_hypot, d_norm = 2 * eta_hypot + 2.0**-50, 2 * eta_norm + 2.0**-50
    assert 2 * (d_hypot + d_norm) < ratios._NEAR_MAX / 100
    assert d_hypot < ratios._BOUND_MARGIN / 100_000


# SHA-256 of BoundReport.to_dict() as JSON with sorted keys, as computed when
# the pair scan took every length from the float of its exact square
_PINNED_BOUNDS = {
    "ngon8": "0b3a30a273638852003b11a81e2fc20bfdf12516055cd942333fa8818ee0d716",
    "ngon10": "7ad011306f46dad943732528b1624c8dc0aee4a6f80d5175900910217215be4e",
    "ngon12": "488bedbd5d64a4a4c335a0b5f2511f2c6b0f8a33a245010162c35486d599a594",
    "stair10": "db70053b7e306612bdd80597b5f31f451b493a1d00f8aa0af25885050a831c30",
    "sheared10": "84b1f360bb36d3dc8152fc67b450d99a779df5b284b1e38005719823a47b50ef",
}


def _bound_report(case):
    lm = trig_value(10, "sin", 1)
    if case.startswith("ngon"):
        return verify_ngon_bound(int(case[4:]))
    if case == "stair10":
        return bound_4m2(10, lm * 5)
    return bound_4m2(10, lm * 5, M=Mat2(10, 1, Fraction(2, 7), 0, 1))


@pytest.mark.parametrize("case", sorted(_PINNED_BOUNDS))
def test_pinned_bound_reports(case):
    report = _bound_report(case).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED_BOUNDS[case]
