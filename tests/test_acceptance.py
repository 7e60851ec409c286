"""Acceptance suite: the ten headline guarantees of the package, each with
pinned tolerances and (where stated) runtime budgets.

Every test carries a ``criterion`` label; a conftest hook prints a visible
``[criterion NN ...] PASS/FAIL`` line per test so the suite doubles as a
checklist.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import mpmath

from kvol.cli import main as cli_main
from kvol.field import CycloReal, trig_value
from kvol.hyperbolic import (
    angle_sine,
    apply_word,
    dist_to_Gmax,
    geodesic_of_directions,
    in_fundamental_domain,
    point_of_surface,
    reduce_to_fundamental_domain,
)
from kvol.intersect import ClosedCurve, intersection_form
from kvol.plane import Mat2
from kvol.ratios import (
    K_of_directions,
    bound_4m2,
    check_parallel_criterion,
    closed_atoms,
    explore_conjecture,
    is_side_pair_witness,
    k0_constant,
    kvol_bruteforce,
    kvol_closed_formula,
    verify_ngon_bound,
)
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import (
    build_ngon,
    build_staircase,
    cylinder_decomposition,
    staircase_lengths,
    veech_generators,
)

from geodesic_helpers import dist_to
from intersect_oracle import intersect


def criterion(label):
    def mark(fn):
        fn.criterion = label
        return fn

    return mark


def F(n, v):
    return CycloReal.from_rational(n, Fraction(v))


def lm(n):
    return trig_value(n, "sin", 1)


@criterion("criterion 01 octagon brute force")
def test_criterion_01_octagon_brute_force():
    """Max ratio exactly 1 with the six distinct-side pairs as witnesses;
    value 2/tan(pi/8) within 1e-9; under 60 s."""
    t0 = time.perf_counter()
    X = build_ngon(8)
    rep = kvol_bruteforce(X, 3)
    elapsed = time.perf_counter() - t0
    assert rep.exact_ratio == F(8, 1)  # 1/l_0^2 with unit sides
    assert len(rep.witnesses) == 6
    assert all(is_side_pair_witness(w) for w in rep.witnesses)
    pairs = {
        frozenset((w[0].components[0].edge_pair, w[1].components[0].edge_pair))
        for w in rep.witnesses
    }
    assert len(pairs) == 6
    assert abs(rep.value - 2 / math.tan(math.pi / 8)) < 1e-9
    assert abs(rep.value - 4.8284271247) < 1e-9
    assert elapsed <= 60, f"took {elapsed:.1f}s"


@criterion("criterion 02 dodecagon brute force")
def test_criterion_02_dodecagon_brute_force():
    """Value 6 + 3 sqrt(3) within 1e-9; under 5 min."""
    t0 = time.perf_counter()
    X = build_ngon(12)
    rep = kvol_bruteforce(X, 3)
    elapsed = time.perf_counter() - t0
    phi = CycloReal.phi(12)
    assert rep.exact_value == phi * phi * 3  # 6 + 3 sqrt(3)
    assert abs(rep.value - 11.1961524227) < 1e-9
    assert elapsed <= 300, f"took {elapsed:.1f}s"


@criterion("criterion 03 directional constants")
def test_criterion_03_directional_constants():
    """K(inf, 1/(k Phi)) = 1/(Phi l_m^2) for k in {1, 2, 3, inf} and
    K(inf, (Phi^2-1)/(Phi^3-2 Phi)) = 1/((Phi^3-2 Phi) l_m^2), exactly,
    on both staircases, L = 8 l_m."""
    for n in (8, 12):
        S = build_staircase(n)
        form = intersection_form(S)
        phi = CycloReal.phi(n)
        one = F(n, 1)
        L = lm(n) * 8
        v1 = one / (phi * lm(n) * lm(n))
        v2 = one / ((phi**3 - phi * 2) * lm(n) * lm(n))
        for k in (1, 2, 3):
            got = K_of_directions(S, "inf", one / (phi * k), L, form=form)
            assert got.exact == v1, (n, k)
        got = K_of_directions(S, "inf", 0, L, form=form)  # k = inf
        assert got.exact == v1, (n, "inf")
        d2 = (phi * phi - one) / (phi**3 - phi * 2)
        got = K_of_directions(S, "inf", d2, L, form=form)
        assert got.exact == v2, n


@criterion("criterion 04 closed formula vs brute force")
def test_criterion_04_formula_consistency():
    """At 20 seeded points the L = 30 l_m brute force never exceeds the
    closed formula by 1e-9 and agrees within 2%; on the distinguished
    vertical and on x = 0 it attains K_0 = 4 + 2 sqrt(2); under 10 min."""
    t0 = time.perf_counter()
    n = 8
    S = build_staircase(n)
    phi = CycloReal.phi(n)
    phif = float(phi)
    one = F(n, 1)
    L = lm(n) * 30
    k0 = k0_constant(n)

    rng = random.Random(2024)
    points = []
    while len(points) < 20:
        x = Fraction(rng.uniform(0.0, phif / 2)).limit_denominator(64)
        y = Fraction(rng.uniform(0.4, 1.3)).limit_denominator(64)
        if in_fundamental_domain(complex(x, y), n):
            points.append((x, y))

    converged = 0
    for x, y in points:
        formula = kvol_closed_formula(n, complex(x, y))
        if not formula.converged:
            continue
        converged += 1
        brute = kvol_bruteforce(S.transform(Mat2(n, 1, one * x, 0, one * y)), L)
        assert brute.value <= formula.value + 1e-9, (x, y)
        assert abs(brute.value - formula.value) <= 0.02 * formula.value, (x, y)
    assert converged >= 15

    heights = [Fraction(11, 20), Fraction(7, 10), Fraction(17, 20),
               Fraction(1), Fraction(23, 20)]
    for x_exact in (one / phi, one * 0):
        for y in heights:
            brute = kvol_bruteforce(
                S.transform(Mat2(n, 1, x_exact, 0, one * y)), L
            )
            assert abs(brute.value - float(k0)) < 1e-9, (float(x_exact), y)
            assert brute.exact_value == k0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600, f"took {elapsed:.1f}s"


@criterion("criterion 05 angle-distance identity")
def test_criterion_05_angle_distance_identity():
    """|sin theta * cosh(dist) - 1| < 1e-9 on 100 seeded (M, d, d') triples,
    including the octagon anchor sin = 1/sqrt(2), cosh = sqrt(2)."""
    M8 = Mat2(8, 1, CycloReal.phi(8) * Fraction(1, 2), 0, lm(8))
    z8 = point_of_surface(M8)
    d1, d2 = "inf", 1.0 / float(CycloReal.phi(8))
    s = angle_sine(M8, d1, d2)
    c = math.cosh(dist_to(geodesic_of_directions(d1, d2), z8))
    assert abs(s - 1 / math.sqrt(2)) < 1e-9
    assert abs(c - math.sqrt(2)) < 1e-9
    assert abs(s * c - 1) < 1e-9

    rng = random.Random(5)
    checked = 0
    while checked < 100:
        M = [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
        if M[0][0] * M[1][1] - M[0][1] * M[1][0] < 0.1:
            continue
        d1 = rng.choice(["inf", rng.uniform(-3, 3)])
        d2 = rng.uniform(-3, 3)
        if d1 != "inf" and abs(d1 - d2) < 1e-3:
            continue
        z = point_of_surface(M)
        s = angle_sine(M, d1, d2)
        c = math.cosh(dist_to(geodesic_of_directions(d1, d2), z))
        assert abs(s * c - 1) < 1e-9, (M, d1, d2)
        checked += 1


@criterion("criterion 06 intersection oracles")
def test_criterion_06_intersection_oracles():
    """Torus determinant formula on all winding pairs in [-3, 3]; geometric
    crossings equal the homology form on full octagon/dodecagon enumerations;
    both perturbation sides agree."""
    torus = build_ngon(4)
    by_hol = {}
    for sc in enumerate_saddle_connections(torus, 4.25):
        for c in (sc, sc.reversed()):
            x, y = c.holonomy
            by_hol[(int(x.coeffs[0]), int(y.coeffs[0]))] = c
    windings = {}
    for p in range(-3, 4):
        for q in range(-3, 4):
            if (p, q) == (0, 0):
                continue
            g = math.gcd(abs(p), abs(q))
            windings[(p, q)] = ClosedCurve([by_hol[(p // g, q // g)]] * g)
    for (p, q), a in windings.items():
        for (r, s), b in windings.items():
            assert intersect(a, b).total == p * s - q * r, (p, q, r, s)

    for n in (8, 12):
        X = build_ngon(n)
        form = intersection_form(X)
        curves = closed_atoms(X, enumerate_saddle_connections(X, 3))
        for i, a in enumerate(curves):
            for b in curves[i + 1:]:
                want = form.pair(a, b)
                plus = intersect(a, b, positive_side=True)
                minus = intersect(a, b, positive_side=False)
                assert plus.total == want, n
                assert minus.total == want, n


@criterion("criterion 07 twisted staircase suite")
def test_criterion_07_twisted_staircase_suite():
    """For n = 10, 14: parallel curves have exactly zero intersection, the
    n-gon bound is strict, the staircase bound holds on the model and its
    vertical shear, and the decagon search finds the double-crossing pair at
    ratio exactly 1/2."""
    for n in (10, 14):
        S = build_staircase(n)
        for d in (0, "inf"):
            rep = check_parallel_criterion(S, d, lm(n) * 6)
            assert rep.ok and rep.pairs_checked > 0, (n, d)

        ngon = verify_ngon_bound(n, 3)
        assert ngon.ok and not ngon.equalities, n
        assert ngon.max_ratio < 1 - 1e-9, n

        base = bound_4m2(n, lm(n) * 5)
        assert base.ok, n
        sheared = bound_4m2(n, lm(n) * 5, M=veech_generators(n)["TV"])
        assert sheared.ok, n

    dec = explore_conjecture(10, 3)
    assert dec.equals_conjecture  # best ratio exactly 1/(2 l_0^2) with l_0 = 1
    assert dec.two_side_pair_found
    assert dec.strictly_below_ngon_bound


@criterion("criterion 08 fundamental domain round trip")
def test_criterion_08_reduction_round_trip():
    """1000 seeded words of length <= 30 on 10 interior points: reduction
    recovers the start point within 1e-9; the orbit distance is invariant
    within 1e-9 under words of length <= 10."""
    n = 8
    phi = float(CycloReal.phi(n))
    rng = random.Random(31)

    def interior(z):
        r = 1 / phi
        return (
            0.05 < z.imag < 2.0
            and abs(z.real) < phi / 2 - 0.02
            and abs(z - r) > r + 0.02
            and abs(z + r) > r + 0.02
        )

    points = []
    while len(points) < 10:
        z = complex(rng.uniform(-phi / 2, phi / 2), rng.uniform(0.1, 1.9))
        if interior(z):
            points.append(z)

    def word(maxlen, ks):
        return [
            (rng.choice(("TH", "TV")), rng.choice(ks))
            for _ in range(rng.randint(1, maxlen))
        ]

    # long words push points so deep into cusps that a double cannot hold
    # them; the round trip runs on the high-precision (mpc) path
    with mpmath.workprec(400):
        for z in points:
            for _ in range(100):
                w = word(30, (-3, -2, -1, 1, 2, 3))
                image = apply_word(w, mpmath.mpc(z), n)
                back, _ = reduce_to_fundamental_domain(image, n)
                assert abs(complex(back) - z) < 1e-9, (z, w)

    for z in points:
        d0, ok0 = dist_to_Gmax(z, n)
        assert ok0
        for _ in range(10):
            w = word(10, (-1, 1))
            d1, ok1 = dist_to_Gmax(apply_word(w, z, n), n)
            if ok1:
                assert abs(d1 - d0) < 1e-9, (z, w)


@criterion("criterion 09 cylinder moduli")
def test_criterion_09_cylinder_moduli():
    """Horizontal and vertical moduli are exactly {Phi, Phi/2}; the single
    Phi/2 cylinder sits on the horizontal side when n = 0 mod 4 and on the
    vertical side when n = 2 mod 4."""
    for n in (8, 10, 12, 14):
        S = build_staircase(n)
        phi = CycloReal.phi(n)
        half = phi / 2
        horizontal = cylinder_decomposition(S, None)
        vertical = cylinder_decomposition(S, 0)
        widths, heights = staircase_lengths(n)
        assert len(horizontal) == len(heights)
        assert len(vertical) == len(widths)
        if n % 4 == 0:
            exceptional, regular = horizontal, vertical
        else:
            exceptional, regular = vertical, horizontal
        assert all(c.modulus == phi for c in regular), n
        assert sorted({str(c.modulus) for c in exceptional}) == sorted(
            {str(phi), str(half)}
        ), n
        assert sum(c.modulus == half for c in exceptional) == 1, n
        assert all(c.modulus in (phi, half) for c in exceptional), n


@criterion("criterion 10 landscape grid")
def test_criterion_10_landscape_grid(tmp_path):
    """A 60x60 closed-formula grid over the positive half of the fundamental
    domain has its minimum in the cell containing the n-gon point and its
    maxima only on cells meeting the orbit of the distinguished geodesics."""
    out = tmp_path / "grid.csv"
    code = cli_main(["kvol-grid", "--n", "8", "--resolution", "60",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,kvol,dist,converged"
    rows = [line.split(",") for line in lines[1:]]
    assert 0 < len(rows) < 3600
    cells = [
        (float(x), float(y), float(kv), float(dist), flag == "true")
        for x, y, kv, dist, flag in rows
    ]

    phi = float(CycloReal.phi(8))
    dx = (phi / 2) / 60
    dy = 1.25 / 60
    zn = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))

    # the corner cell containing the n-gon point has its center just inside
    # the excluded disk (the domain circle passes through the corner), so it
    # is filtered out; the minimum sits in that cell or an adjacent one
    x_min, y_min, v_min, _, _ = min(cells, key=lambda c: c[2])
    assert abs(zn.real - x_min) <= 1.5 * dx + 1e-12
    assert abs(zn.imag - y_min) <= 1.5 * dy + 1e-12

    v_max = max(c[2] for c in cells)
    half_diag = math.hypot(dx, dy) / 2
    for x, y, kv, dist, _ in cells:
        if kv >= v_max - 1e-9:
            # hyperbolic distance ~ euclidean/y at this scale: the witness
            # geodesic passes through (or grazes) the maximizing cell
            assert dist * y <= 1.5 * half_diag, (x, y, dist)
