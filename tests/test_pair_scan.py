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

from kvol import ratios, saddle
from kvol.field import CycloReal, trig_value
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

from pair_judges import gram


def _sheared8():
    return build_staircase(8).transform(Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40)))


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
    brute1, bound1, nblocks = scan_ngon10(monkeypatch, 1 << 22)
    assert brute1.params["count_curves"] == 310
    assert nblocks == 1
    brute4, bound4, nblocks = scan_ngon10(monkeypatch, 1)
    assert nblocks >= 4
    assert brute4.exact_value == brute1.exact_value
    assert witness_keys(brute4) == witness_keys(brute1)
    assert bound4 == bound1


def test_near_max_filtered_against_final_maximum(monkeypatch):
    # one row per block: 0.9 leads block 0, 1 - 5e-10 is within the slack of
    # the final maximum 1.0, which only the last block reaches; block i0
    # holds the columns j >= i0
    rows = [(1, 0.9, 9), (2, 1.0 - 5e-10, 7), (3, 1.0, 5)]
    blocks = []
    for i0, (j, ratio, count) in enumerate(rows):
        R, I = np.zeros((1, 4 - i0)), np.zeros((1, 4 - i0), dtype=np.int64)
        R[0, j - i0], I[0, j - i0] = ratio, count
        blocks.append((i0, I, R))
    monkeypatch.setattr(ratios, "_ratio_blocks", lambda form, curves: iter(blocks))
    scan = ratios._scan_pairs(None, None, floor=0.95)
    assert scan.best == 1.0 and scan.crossing == 3
    assert scan.near_max == [(1, 2, 7), (2, 3, 5)]
    assert scan.above == [(1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None, floor=0.0).above == [(0, 1, 9), (1, 2, 7), (2, 3, 5)]
    assert ratios._scan_pairs(None, None).above == []


def test_block_rows_need_not_divide_the_curve_count(monkeypatch):
    # 419 curves in blocks of 10 rows: the last block holds 9, and every
    # block only the columns from its first row on
    X = _sheared8()
    curves = closed_atoms(X, enumerate_saddle_connections(X, trig_value(8, "sin", 1) * 20))
    form = intersection_form(X)
    assert len(curves) == 419
    monkeypatch.setattr(ratios, "_BLOCK_ENTRIES", 1 << 22)
    whole = ratios._scan_pairs(form, curves, floor=1.0)
    monkeypatch.setattr(ratios, "_BLOCK_ENTRIES", 10 * 419)
    shapes = [R.shape for _i0, _I, R in ratios._ratio_blocks(form, curves)]
    assert shapes[0] == (10, 419) and shapes[-1] == (9, 9) and len(shapes) == 42
    assert len(whole.above) > 1000
    assert ratios._scan_pairs(form, curves, floor=1.0) == whole


@pytest.mark.parametrize(
    "X, L",
    [
        (_sheared8(), trig_value(8, "sin", 1) * 20),
        (build_staircase(10).transform(Mat2(10, 1, Fraction(10, 47), 0, Fraction(50, 47))),
         trig_value(10, "sin", 1) * 12),
        (build_ngon(10), 5),
    ],
    ids=["sheared8-20lm", "sheared10-12lm", "ngon10-L5"],
)
def test_float_product_is_the_int_product(X, L):
    """Every block's intersection numbers come from a float64 product equal
    to the int64 one, and its ratios have the bits of the int64 block's."""
    curves = closed_atoms(X, enumerate_saddle_connections(X, L))
    form = intersection_form(X)
    C = form.coord_rows(curves)
    W = C @ form.matrix
    lf = np.array([ratios._float_length(c) for c in curves])
    rows = 0
    for i0, I, R in ratios._ratio_blocks(form, curves):
        i1 = i0 + len(I)
        J = W[i0:i1] @ C[i0:].T
        Q = np.abs(J) / np.outer(lf[i0:i1], lf[i0:])
        Q[np.tri(i1 - i0, len(curves) - i0, dtype=bool)] = 0.0
        assert I.dtype == np.float64 and J.dtype == np.int64
        assert np.array_equal(I, J) and np.array_equal(R.view(np.int64), Q.view(np.int64))
        rows += len(I)
    assert rows == len(curves) and len(I) < rows


def test_int_product_past_the_float_bound():
    """Chains with max|W| max|C| E >= 2^53 take the int64 product: here a
    pair's intersection number is odd and above 2^53, so no double holds it."""
    from types import SimpleNamespace

    a = (1 << 27) + 1
    C = np.array([[a, 0], [0, a], [1, 1]], dtype=np.int64)
    form = SimpleNamespace(coord_rows=lambda curves: C, matrix=np.array([[1, 1], [0, 1]]))
    curve = SimpleNamespace(components=[SimpleNamespace(holonomy_float=(3.0, 4.0))])
    ((i0, I, R),) = ratios._ratio_blocks(form, [curve] * 3)
    assert i0 == 0 and I.dtype == np.int64
    assert int(I[0, 1]) == a * a and float(a * a) != a * a and R[0, 1] == float(a * a) / 25
    assert [int(x) for x in I[:, 2]] == [2 * a, a, 3]


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
    G = gram(form, curves)
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


# SHA-256 of kvol_bruteforce(...).to_dict() as JSON with sorted keys, at the
# _BRUTE_POINTS, as computed when enumeration built every field holonomy and
# the pair scan formed full N x N blocks; the float fields re-pinned when
# ``float`` became the correctly rounded table conversion, the rest unchanged
_PINNED_BRUTE = [
    "537f8fdc0ea8a67b89d72f6f7bec553b4fcba5f1c51e60cfab5115444504b6f9",
    "c8c843c2447b5407e2e5e00831e2989e8185f2e259948a89ce864f3249c8b1f0",
    "1a1bad72c8e3022dea1443cdd17ea06f2790508b5ab2b5c895ce8a4d7e564ea6",
    "1e8411fc82c90f9207dc7276fcc610e40bbfdf6db9ed5e5162caa040940ac709",
]


@pytest.mark.parametrize("point, digest", list(zip(_BRUTE_POINTS, _PINNED_BRUTE)))
def test_pinned_brute_reports(point, digest):
    report = kvol_bruteforce(*_brute_point(*point)).to_dict()
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


# the float pass as (curves, best.hex(), crossing, near-maximum and above
# counts, SHA-256 of the JSON of [best.hex(), crossing, near_max, above])
_PINNED_SCANS = {
    "ngon10-L3-floor0.3": (
        lambda: (build_ngon(10), 3, 0.3),
        (310, "0x1.0000000000000p-1", 35115, 5, 85),
        "a5e7f9b876b6b64dfc9d21d9f418f77c2f2ea63cbf22ab59b59c4c0dc294218e",
    ),
    "sheared8-20lm": (
        lambda: (_sheared8(), trig_value(8, "sin", 1) * 20, None),
        (419, "0x1.2f88f2a5a7c4dp+2", 83862, 1, 0),
        "922a188b4476f4fbff16887e3201c31ace8812abe65b8001f71059a00184b00a",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_SCANS))
def test_pinned_scans(case):
    make, counts, digest = _PINNED_SCANS[case]
    X, L, floor = make()
    curves = closed_atoms(X, enumerate_saddle_connections(X, L))
    scan = ratios._scan_pairs(intersection_form(X), curves, floor=floor)
    got = (len(curves), scan.best.hex(), scan.crossing, len(scan.near_max), len(scan.above))
    assert got == counts
    blob = json.dumps([scan.best.hex(), scan.crossing, scan.near_max, scan.above])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_field_holonomies_built_for_near_maximum_curves_only(monkeypatch):
    # enumeration keeps every recorded holonomy packed; brute force unpacks
    # only the components of near-maximum pairs, for the exact tournament and
    # the witnesses, and its report reads nothing more
    X, L = _sheared8(), trig_value(8, "sin", 1) * 20
    curves = closed_atoms(X, enumerate_saddle_connections(X, L))
    near_max = ratios._scan_pairs(intersection_form(X), curves).near_max
    near = {id(sc) for i, j, _ in near_max for k in (i, j) for sc in curves[k].components}
    calls = {"vector": 0}

    def counted(lat, u):
        calls["vector"] += 1
        return vector(lat, u)

    vector = saddle._Lattice.vector
    monkeypatch.setattr(saddle._Lattice, "vector", counted)
    scs = enumerate_saddle_connections(X, L)
    search = calls["vector"]  # orientation and length tests at the boundary
    assert search < len(scs) // 10
    calls["vector"] = 0
    kvol_bruteforce(X, L).to_dict()
    assert len(near) == 2
    assert calls["vector"] == search + len(near)


def _judge(c: CycloReal):
    """c at 200 bits, from its exact coefficients."""
    import mpmath

    with mpmath.workprec(200):
        phi = 2 * mpmath.cos(mpmath.pi / c.n)
        return mpmath.polyval([mpmath.mpf(a.numerator) / a.denominator for a in reversed(c.coeffs)], phi)


def _conversion_error(c: CycloReal) -> float:
    """The bound on |float(c) - c| that the ratios docstring states: half
    an ulp plus 2^-60, relative."""
    return (2.0**-53 + 2.0**-60) * abs(float(_judge(c)))


def _length_errors(scs):
    """The largest stated relative length errors (hypot of the holonomy
    floats, and the root of the float squared length) over the connections,
    each checked against a 200-bit length."""
    import mpmath

    eta_hypot = eta_norm = 0.0
    for sc in scs:
        x, y = sc.holonomy
        n2 = norm2(sc.holonomy)
        with mpmath.workprec(200):
            ref = mpmath.sqrt(_judge(n2))
        fref = float(ref)
        e_hypot = (_conversion_error(x) + _conversion_error(y)) / fref + 2.0**-52
        e_norm = _conversion_error(n2) / (2 * fref * fref) + 2.0**-52
        assert abs(math.hypot(*vfloat(sc.holonomy)) - ref) <= e_hypot * fref
        assert abs(math.sqrt(float(n2)) - ref) <= e_norm * fref
        eta_hypot, eta_norm = max(eta_hypot, e_hypot), max(eta_norm, e_norm)
    return eta_hypot, eta_norm


@pytest.mark.parametrize(
    "family",
    [pytest.param(p, id=f"brute-{i}") for i, p in enumerate(_BRUTE_POINTS)]
    + [pytest.param(n, id=f"ngon{n}") for n in (8, 10, 12, 16, 20, 24)],
)
def test_float_length_error_is_far_below_the_margins(family):
    S, L = (build_ngon(family), 3) if isinstance(family, int) else _brute_point(*family)
    eta_hypot, eta_norm = _length_errors(enumerate_saddle_connections(S, L))
    assert eta_hypot < 4e-16 and eta_norm < 4e-16
    # ratio errors: the near-maximum window holds every pair within both
    # scans' errors of the maximum, and the bound margin dwarfs them
    d_hypot, d_norm = 2 * eta_hypot + 2.0**-50, 2 * eta_norm + 2.0**-50
    assert 2 * (d_hypot + d_norm) < ratios._NEAR_MAX / 100
    assert d_hypot < ratios._BOUND_MARGIN / 100_000


# SHA-256 of BoundReport.to_dict() as JSON with sorted keys, as computed when
# the pair scan took every length from the float of its exact square; the
# float fields re-pinned when ``float`` became the correctly rounded table
# conversion, the rest unchanged
_PINNED_BOUNDS = {
    "ngon8": "0b3a30a273638852003b11a81e2fc20bfdf12516055cd942333fa8818ee0d716",
    "ngon10": "7ad011306f46dad943732528b1624c8dc0aee4a6f80d5175900910217215be4e",
    "ngon12": "488bedbd5d64a4a4c335a0b5f2511f2c6b0f8a33a245010162c35486d599a594",
    "stair10": "d8ea5134c29abd8fac17b04dffbf4fb050d8f7f472d44dd9cf290e68523f7c93",
    "sheared10": "eef7faa19d46c20c23eef9aff4e319a7b429c234c62b71ed400a5b55765f182b",
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
