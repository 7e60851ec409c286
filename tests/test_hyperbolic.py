"""Upper half-plane geometry: disk points, reduction, distances."""

import functools
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kvol import hyperbolic
from kvol.cli import main
from kvol.field import ComputationLimitError, CycloReal, _phi_float
from kvol.hyperbolic import (
    Geodesic,
    _as_float_matrix,
    _nearest,
    _nearest_point,
    angle_sine,
    apply_word,
    dist_to_Gmax,
    dist_to_Gmax_batch,
    geodesic_of_directions,
    in_fundamental_domain,
    point_of_surface,
    reduce_to_fundamental_domain,
    nearest_gmax_geodesic,
    nearest_witness,
    word_matrix,
)
from kvol.plane import Mat2, vfloat
from kvol.ratios import kvol_closed_formula
from kvol.surface import conversion_matrix, direction_vector, veech_generators

from geodesic_helpers import dist_to, endpoints, sinh_dist


def dist_points(z: complex, w: complex) -> float:
    """Hyperbolic distance between two points of the upper half plane."""
    if z.imag <= 0 or w.imag <= 0:
        raise ValueError("points must be in the upper half plane")
    d2 = abs(z - w) ** 2
    return math.acosh(1.0 + d2 / (2.0 * z.imag * w.imag))


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


def _identity(n):
    one = CycloReal.from_rational(n, 1)
    zero = CycloReal.from_rational(n, 0)
    return Mat2(n, one, zero, zero, one)


def _phi(n):
    return float(CycloReal.phi(n))


def _interior_points(n, count, seed):
    rng = random.Random(seed)
    phi = _phi(n)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-0.95, 0.95) * phi / 2, rng.uniform(0.45, 1.5))
        if in_fundamental_domain(z, n, tol=-1e-6):
            pts.append(z)
    return pts


def _random_word(rng, length):
    return [(rng.choice(["TH", "TV"]), rng.choice([-1, 1])) for _ in range(length)]


def _reduction_digest(n, rng):
    """Words and reduced doubles of 2,000 seeded points, x in [-50, 50] and
    y log-uniform in [1e-9, 10], hashed."""
    h = hashlib.sha256()
    for _ in range(2000):
        z = complex(rng.uniform(-50.0, 50.0), math.exp(rng.uniform(math.log(1e-9), math.log(10.0))))
        zr, word = reduce_to_fundamental_domain(z, n)
        h.update(repr((word, repr(zr))).encode())
    return h.hexdigest()


def _seeded_set(n):
    """20,000 seeded points, x in [-50, 50] and y log-uniform in [1e-9, 10]."""
    rng = random.Random(37000 + n)
    return [
        complex(rng.uniform(-50.0, 50.0), math.exp(rng.uniform(math.log(1e-9), math.log(10.0))))
        for _ in range(20000)
    ]


def _reduce_oracle(z, n):
    """The reduction's token rule, with the point stepped in mpmath at 1,000
    bits: the reduction's word and reduced double, computed independently
    of its fixed point.  A run of TV steps is one token TV^j, j the nearest
    multiple of phi to Re(-1/z) and at least 1 in size."""
    phi = _phi_float(n)
    r = 1.0 / phi
    word = []
    with mpmath.workprec(1000):
        phi_mp = 2 * mpmath.cos(mpmath.pi / n)
        zz = mpmath.mpc(z)
        while True:
            zc = complex(zz)
            k = round(zc.real / phi)
            if k:
                gen, k = "TH", -k
            elif abs(zc + r) < r - hyperbolic._DISK_MARGIN:
                gen, k = "TV", 1
            elif abs(zc - r) < r - hyperbolic._DISK_MARGIN:
                gen, k = "TV", -1
            else:
                return zc, word
            if gen == "TV":
                k *= max(1, round(abs(zc.real) / (zc.real * zc.real + zc.imag * zc.imag) / phi))
            word.append((gen, k))
            zz = zz + k * phi_mp if gen == "TH" else zz / (k * phi_mp * zz + 1)


def _apply_oracle(word, z, n):
    """A token word applied one token at a time in mpmath at 2,000 bits,
    independently of the word's matrix: the exact image, for comparison."""
    with mpmath.workprec(2000):
        phi = 2 * mpmath.cos(mpmath.pi / n)
        zz = mpmath.mpc(z)
        for gen, k in word:
            zz = zz + k * phi if gen == "TH" else zz / (k * phi * zz + 1)
        return zz


def _oracle_cases(n, count, seed):
    """Seeded (word, point) pairs: 1-40 tokens with |k| <= 3, x in [-2, 2]
    and y log-uniform in [1e-6, 2]."""
    rng = random.Random(seed)
    ks = [-3, -2, -1, 1, 2, 3]
    for _ in range(count):
        word = [(rng.choice(["TH", "TV"]), rng.choice(ks)) for _ in range(rng.randint(1, 40))]
        z = complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(math.log(1e-6), math.log(2.0))))
        yield word, z


class TestPointOfSurface:
    def test_identity_maps_to_i(self):
        assert point_of_surface(_identity(8)) == 1j

    def test_shear_point(self):
        g = veech_generators(8)
        assert abs(point_of_surface(g["TH"]) - complex(_phi(8), 1)) < 1e-15

    def test_triangular_matrix_reads_off_coordinates(self):
        assert abs(point_of_surface(((1, 0.25), (0, 0.75))) - complex(0.25, 0.75)) < 1e-15

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_polygon_model_point(self, n):
        z = point_of_surface(conversion_matrix(n).inverse())
        expected = complex(math.cos(math.pi / n), math.sin(math.pi / n))
        assert abs(z - expected) < 1e-12

    def test_scale_invariance(self):
        M = ((1.3, 0.4), (0.2, 2.0))
        M2 = ((2.6, 0.8), (0.4, 4.0))
        assert abs(point_of_surface(M) - point_of_surface(M2)) < 1e-15

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            point_of_surface(((1, 0), (0, -1)))

    @pytest.mark.parametrize("gen", ["TH", "TV"])
    def test_right_action_identity(self, gen):
        # point(M g) equals the induced Moebius action applied to point(M)
        g = veech_generators(8)[gen]
        act = induced_action(g)
        rng = random.Random(17)
        for _ in range(200):
            a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
            if a * d - b * c <= 0.1:
                continue
            gf = [[float(g.a), float(g.b)], [float(g.c), float(g.d)]]
            mg = (
                (a * gf[0][0] + b * gf[1][0], a * gf[0][1] + b * gf[1][1]),
                (c * gf[0][0] + d * gf[1][0], c * gf[0][1] + d * gf[1][1]),
            )
            lhs = point_of_surface(mg)
            rhs = moebius(act, point_of_surface(((a, b), (c, d))))
            assert abs(lhs - rhs) < 1e-12


class TestInducedAction:
    def test_horizontal_shear_translates(self):
        g = veech_generators(8)["TH"]
        z = complex(0.3, 0.7)
        assert abs(moebius(induced_action(g), z) - (z + _phi(8))) < 1e-15

    def test_vertical_shear(self):
        g = veech_generators(8)["TV"]
        z = complex(0.3, 0.7)
        phi = _phi(8)
        assert abs(moebius(induced_action(g), z) - z / (phi * z + 1)) < 1e-15

    def test_reflection_conjugates(self):
        g = veech_generators(8)["R"]
        z = complex(0.3, 0.7)
        assert abs(moebius(induced_action(g), z) - (-z.conjugate())) < 1e-15


class TestAnglesAndGeodesics:
    def test_angle_anchor(self):
        z8 = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        s = angle_sine(z8, "inf", 1.0 / _phi(8))
        assert abs(s - 1 / math.sqrt(2)) < 1e-12

    def test_distance_anchor(self):
        z8 = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        geo = geodesic_of_directions("inf", 1.0 / _phi(8))
        assert geo.is_vertical
        assert abs(dist_to(geo, z8) - math.asinh(1.0)) < 1e-12
        assert abs(math.cosh(dist_to(geo, z8)) - math.sqrt(2)) < 1e-12

    def test_angle_cosh_identity(self):
        # sin(angle) * cosh(dist to the connecting geodesic) == 1
        rng = random.Random(7)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
            d1 = rng.choice(["inf", rng.uniform(-3, 3)])
            d2 = rng.uniform(-3, 3)
            if d1 != "inf" and abs(d1 - d2) < 1e-6:
                continue
            s = angle_sine(z, d1, d2)
            c = math.cosh(dist_to(geodesic_of_directions(d1, d2), z))
            assert abs(s * c - 1.0) < 1e-9

    def test_disk_label_is_mirrored_surface_label(self):
        # a disk label d is the surface direction of co-slope -d
        def surface_sine(z, e1, e2):
            M = Mat2(8, 1, Fraction(z.real), 0, Fraction(z.imag))
            w1, w2 = (vfloat(M.apply(direction_vector(8, e))) for e in (e1, e2))
            return abs(w1[0] * w2[1] - w1[1] * w2[0]) / (math.hypot(*w1) * math.hypot(*w2))

        z = 0.5 + 1j
        assert angle_sine(z, "inf", 1.0) == pytest.approx(surface_sine(z, "inf", -1), rel=1e-15)
        assert angle_sine(z, "inf", 1.0) != pytest.approx(surface_sine(z, "inf", 1), rel=1e-3)
        rng = random.Random(11)
        for _ in range(60):
            z = complex(rng.randint(-30, 30) / 8, rng.randint(1, 30) / 8)
            d1 = rng.choice(["inf", Fraction(rng.randint(-30, 30), 10)])
            d2 = Fraction(rng.randint(-30, 30), 10)
            if d1 == d2:
                continue
            mirror = lambda d: d if d == "inf" else -d
            want = surface_sine(z, mirror(d1), mirror(d2))
            assert angle_sine(z, d1, d2) == pytest.approx(want, rel=1e-12)
        # a vector label reads as its co-slope
        assert angle_sine(z, (2, -4), "inf") == angle_sine(z, -0.5, "inf")
        assert geodesic_of_directions((1, 2), (-3, 0)) == Geodesic.vertical(0.5)

    def test_circle_distance_formula(self):
        geo = Geodesic.circle(0.0, 1.0)
        assert abs(dist_to(geo, 2j) - math.log(2)) < 1e-12
        assert dist_to(geo, 1j) == 0.0

    def test_from_endpoints(self):
        assert Geodesic.from_endpoints(math.inf, 0.5).is_vertical
        geo = Geodesic.from_endpoints(3.0, 1.0)
        assert (geo.center, geo.radius) == (2.0, 1.0)
        assert endpoints(geo) == (1.0, 3.0)
        with pytest.raises(ValueError):
            Geodesic.from_endpoints(1.0, 1.0)

    def test_point_distance(self):
        assert abs(dist_points(1j, 2j) - math.log(2)) < 1e-12
        assert dist_points(1j, 1j) == 0.0


class TestReduction:
    def test_interior_points_fixed(self):
        for z in _interior_points(8, 10, seed=3):
            zr, word = reduce_to_fundamental_domain(z, 8)
            assert word == []
            assert zr == z

    def test_double_round_trips(self):
        rng = random.Random(5)
        for z in _interior_points(8, 10, seed=3):
            for _ in range(20):
                word = _random_word(rng, 12)
                w = apply_word(word, z, 8)
                zr, _ = reduce_to_fundamental_domain(w, 8)
                assert abs(zr - z) < 1e-9

    def test_high_precision_round_trips(self):
        # long random words can contract a point to Im below 1e-12, beyond
        # what the double format can carry; the mpc path stays exact
        rng = random.Random(11)
        with mpmath.workprec(400):
            for z in _interior_points(8, 4, seed=3):
                z0 = mpmath.mpc(z)
                for _ in range(10):
                    word = _random_word(rng, 30)
                    w = apply_word(word, z0, 8)
                    zr, _ = reduce_to_fundamental_domain(w, 8)
                    assert abs(complex(zr) - z) < 1e-9

    def test_word_replays_to_reduced_point(self):
        rng = random.Random(23)
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 2.0))
            zr, word = reduce_to_fundamental_domain(z, 8)
            assert in_fundamental_domain(zr, 8)
            assert abs(apply_word(word, z, 8) - zr) < 1e-9

    def test_word_matrix_matches_apply_word(self):
        rng = random.Random(29)
        for _ in range(30):
            word = [(rng.choice(["TH", "TV"]), rng.choice([-2, -1, 1, 2])) for _ in range(8)]
            z = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
            assert abs(apply_word(word, z, 8) - moebius(word_matrix(word, 8), z)) < 1e-9

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            reduce_to_fundamental_domain(complex(0.2, -1.0), 8)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_apply_word_matches_token_oracle(self, n):
        # 700 pairs per degree: doubles equal to the rounded exact image, and
        # 400-bit results within 2^-390 Im w of it past the rounding of each
        # coordinate to 400 bits, 2^-400 |coordinate|
        for word, z in _oracle_cases(n, 700, seed=n):
            exact = _apply_oracle(word, z, n)
            assert apply_word(word, z, n) == complex(exact), (word, z)
            with mpmath.workprec(400):
                w = apply_word(word, mpmath.mpc(z), n)
                tol = mpmath.ldexp(exact.imag, -390)
                for got, want in ((w.real, exact.real), (w.imag, exact.imag)):
                    assert abs(got - want) <= tol + mpmath.ldexp(abs(want), -400), (word, z)

    @pytest.mark.parametrize(
        "z",
        [
            complex(0.2, -1.0),
            complex(0.2, 0.0),
            complex(math.nan, 1.0),
            complex(0.2, math.inf),
            mpmath.mpc(0.2, -1),
            mpmath.mpc(mpmath.inf, 1),
            mpmath.mpc(0.2, mpmath.nan),
        ],
    )
    def test_apply_word_rejects_what_the_reduction_rejects(self, z):
        with pytest.raises(ValueError) as reduced:
            reduce_to_fundamental_domain(z, 8)
        with pytest.raises(ValueError) as applied:
            apply_word([("TH", 1), ("TV", -1)], z, 8)
        assert str(applied.value) == str(reduced.value)

    def test_apply_word_rejects_unknown_token(self):
        with pytest.raises(ValueError, match="unknown generator"):
            apply_word([("TH", 1), ("TX", 1)], complex(0.1, 0.9), 8)

    def test_domain_membership(self):
        phi = _phi(8)
        assert in_fundamental_domain(1j, 8)
        assert in_fundamental_domain(complex(phi / 2, 0.4), 8)
        assert not in_fundamental_domain(complex(phi / 2 + 0.01, 0.4), 8)
        assert not in_fundamental_domain(complex(1 / phi, 0.1), 8)

    def test_domain_test_matches_reference_near_edges(self):
        # points within 2e-9 of the strip edges and of both circles, where the
        # outward tolerance 1e-9 decides; checked against the test written
        # out with Python complex arithmetic
        rng = random.Random(41)
        for n in (8, 12):
            phi = _phi(n)
            r = 1 / phi

            def reference(z):
                if z.imag <= 0 or abs(z.real) > phi / 2 + 1e-9:
                    return False
                return abs(z - r) >= r - 1e-9 and abs(z + r) >= r - 1e-9

            pts = []
            for _ in range(400):
                off = rng.uniform(-2e-9, 2e-9)
                y = rng.uniform(0.05, 1.5)
                pts += [complex(sign * (phi / 2 + off), y) for sign in (1, -1)]
                t = rng.uniform(0.05, math.pi - 0.05)
                rad = r + off
                pts += [complex(sign * r + rad * math.cos(t), rad * math.sin(t)) for sign in (1, -1)]
            want = [reference(z) for z in pts]
            assert 0 < sum(want) < len(want)
            assert [in_fundamental_domain(z, n) for z in pts] == want
            assert in_fundamental_domain(np.array(pts), n).tolist() == want

    def test_pinned_double_reductions(self):
        # re-pinned when a run of TV steps became one token: the reduced
        # doubles kept their bits, the words changed
        digest = _reduction_digest(8, random.Random(2000))
        assert digest == "6939ad1ade37b69f9ff3855d32ac381b9aa95a5ad11da6a6ee62811bafddea1f"

    def test_pinned_deep_mpc_reductions(self):
        # 300 images under 30-token words with |k| <= 3, kept at 400 bits;
        # re-pinned as above
        rng = random.Random(300)
        h = hashlib.sha256()
        with mpmath.workprec(400):
            for z in _interior_points(8, 10, seed=3):
                z0 = mpmath.mpc(z)
                for _ in range(30):
                    word = [(rng.choice(["TH", "TV"]), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(30)]
                    zr, red = reduce_to_fundamental_domain(apply_word(word, z0, 8), 8)
                    h.update(repr((red, repr(complex(zr)))).encode())
        assert h.hexdigest() == "8b6b9510972ff2db50af1f4be99109d32761d62117794479bbd0f036909da2a9"

    def test_working_precision_does_not_leak(self):
        before = mpmath.mp.prec
        reduce_to_fundamental_domain(complex(3.3, 1e-6), 8)
        apply_word([("TV", 1), ("TH", -2)], complex(0.1, 0.9), 8)
        with mpmath.workprec(200):
            w = apply_word([("TV", 3)] * 5, mpmath.mpc(0.2, 0.7), 8)
            reduce_to_fundamental_domain(w, 8)
            assert mpmath.mp.prec == 200
        with pytest.raises(ComputationLimitError):
            reduce_to_fundamental_domain(complex(5.0, 0.01), 8, max_steps=1)
        assert mpmath.mp.prec == before

    @pytest.mark.parametrize("z", [complex(1e10, 1e-10), complex(-1e50, 1e-50)])
    def test_far_point_keeps_its_digits(self, z):
        # |x|/y = 1e100 costs about 330 bits of the working precision; the
        # inverse word must bring the reduced double back to within 1e-9 of
        # z in hyperbolic distance
        zr, word = reduce_to_fundamental_domain(z, 8)
        assert in_fundamental_domain(zr, 8)
        with mpmath.workprec(1000):
            back = apply_word([(gen, -k) for gen, k in reversed(word)], mpmath.mpc(zr), 8)
            assert abs(back - z) / z.imag < 1e-9

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_scaled_frame_below_the_normal_range(self, n):
        # dx^2 + y^2 below the least normal double: zero at the first and
        # last point, subnormal at the second
        for z in (1e-200j, 1e-160j, complex(1e-170, 1e-165)):
            got = _nearest_point(z.real, z.imag, n)
            want = [c[0] for c in _nearest(np.array([z.real]), np.array([z.imag]), n)]
            assert all(math.isfinite(v) for v in got[:3]) and got[4] is False
            assert (got[1], got[4]) == (int(want[1]), bool(want[4]))
            assert _same_bits((got[0], got[2], got[3]), (want[0], want[2], want[3]))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (12, "b13b659560414ec1b4f3b36a1f950be356ad2c6d7ad3eec21f0a0b0e460baefd"),
            (16, "360df66029e2ca2af6031017172690d0825d06b9c3a50a856f244f089661a07a"),
        ],
    )
    def test_pinned_double_reductions_other_degrees(self, n, digest):
        # re-pinned as above
        assert _reduction_digest(n, random.Random(2000 + n)) == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (8, "fc746441ec22b1ad6b7717265bb988828b3f957830530b55770ed1f92803184c"),
            (12, "f205f3c64237dceec46af14d61c97bc068354f5bedf7945c7437ee2e1f6e6bf6"),
            (16, "12b3a4ff81d2d967057004fd4e21ea7cf733db25ad3793eaf2a8b81ad10c963f"),
        ],
    )
    def test_seeded_sets_reduce_in_few_tokens(self, n, digest):
        # the digests hash the reduced doubles alone, and come from the
        # reduction that took TV one step at a time (with its step budget
        # raised for the two points each at n = 8 and 16 that needed more
        # than 10,000 tokens), so taking a run as one token moved no point
        pts = _seeded_set(n)
        h = hashlib.sha256()
        for z in pts:
            zr, word = reduce_to_fundamental_domain(z, n)
            assert len(word) <= 32
            h.update((zr.real.hex() + zr.imag.hex()).encode())
        assert h.hexdigest() == digest
        for z in pts[:100]:
            assert reduce_to_fundamental_domain(z, n) == _reduce_oracle(z, n), z

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_first_decision_boundaries_match_oracle(self, n):
        # points within 1e-13 of the first token's decision boundaries: x/phi
        # at a half-integer, and the circles |z -+ 1/phi| = 1/phi - margin
        rng = random.Random(n)
        phi = _phi_float(n)
        r = 1.0 / phi
        rho = r - hyperbolic._DISK_MARGIN
        pts = []
        for _ in range(150):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            pts.append(complex((rng.randint(-30, 29) + 0.5) * phi + rng.uniform(-1e-13, 1e-13), y))
            for center in (r, -r):
                t = rng.uniform(0.01, math.pi - 0.01)
                rad = rho + rng.uniform(-1e-13, 1e-13)
                pts.append(complex(center + rad * math.cos(t), rad * math.sin(t)))
        for z in pts:
            assert reduce_to_fundamental_domain(z, n) == _reduce_oracle(z, n), z

    @pytest.mark.parametrize(
        "z, max_steps, word",
        [
            (complex(1.5, 0.9), 1, [("TH", -1)]),
            (complex(5.0, 0.01), 3, [("TH", -3), ("TV", 1), ("TH", -3)]),
            (1j, 0, []),
        ],
    )
    def test_word_of_exactly_max_steps(self, z, max_steps, word):
        zr, got = reduce_to_fundamental_domain(z, 8, max_steps=max_steps)
        assert got == word
        assert in_fundamental_domain(zr, 8)
        if max_steps:
            with pytest.raises(ComputationLimitError):
                reduce_to_fundamental_domain(z, 8, max_steps=max_steps - 1)


def _near_axis_points(n):
    """Points that reduce to a real part far below their imaginary part:
    x the double next to k phi for k = 1..40, at y = 1/2, 1e-3 and 1e-9,
    and the images TV^j(i t), rounded to doubles."""
    phi = _phi_float(n)
    pts = [complex(k * phi, y) for k in range(1, 41) for y in (0.5, 1e-3, 1e-9)]
    with mpmath.workprec(200):
        phi_mp = 2 * mpmath.cos(mpmath.pi / n)
        for j in (1, 2, 3, -1, -2):
            for t in (0.5, 0.9, 1.3, 2.0, 7.0):
                pts.append(complex(1j * t / (j * phi_mp * 1j * t + 1)))
    return pts


def _count_passes(monkeypatch):
    """Each reduction pass asks for the field's table of Phi's powers in
    fixed point once: record the precision of every request."""
    requests = []
    powers = hyperbolic._powers
    monkeypatch.setattr(hyperbolic, "_powers", lambda n, p: requests.append(p) or powers(n, p))
    return requests


class TestReductionCertificate:
    """A complex point is reduced at a low first-pass precision, and the
    returned double is kept only when Ziv's rounding test certifies it;
    otherwise the pass is rerun at more bits."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_near_axis_points_rerun_and_match_oracle(self, n, monkeypatch):
        requests = _count_passes(monkeypatch)
        reruns = 0
        for z in _near_axis_points(n):
            requests.clear()
            assert reduce_to_fundamental_domain(z, n) == _reduce_oracle(z, n), z
            reruns += len(requests) > 1
        # 65 of the 145: the 25 images of i t and nearly all points at y = 1/2
        assert reruns >= 60

    def test_first_pass_is_at_most_128_bits(self, monkeypatch):
        # at 0.3 + 0.05i, |x|/y and max_steps = 10,000 add 7 + 14 bits, and
        # the guard bits 8, to the base
        requests = _count_passes(monkeypatch)
        _, word = reduce_to_fundamental_domain(complex(0.3, 0.05), 8)
        assert word and len(requests) == 1
        assert requests[0] <= 128 + 7 + 14 + hyperbolic._GUARD_BITS

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (8, 2000, "6939ad1ade37b69f9ff3855d32ac381b9aa95a5ad11da6a6ee62811bafddea1f"),
            (12, 2012, "b13b659560414ec1b4f3b36a1f950be356ad2c6d7ad3eec21f0a0b0e460baefd"),
            (16, 2016, "360df66029e2ca2af6031017172690d0825d06b9c3a50a856f244f089661a07a"),
        ],
    )
    def test_forced_reruns_keep_the_pinned_digests(self, n, seed, digest, monkeypatch):
        # an 8-bit first pass fails the test on every point it moves, so
        # every such point is settled by a rerun at 300 bits or more; an
        # 8-bit pass asks for under 100 bits, |x|/y adding at most 39 here
        monkeypatch.setattr(hyperbolic, "_FIRST_BASE", 8)
        requests = _count_passes(monkeypatch)
        assert _reduction_digest(n, random.Random(seed)) == digest
        first = [p for p in requests if p < 100]
        assert len(first) == 2000 and len(requests) - len(first) >= 1980

    def test_no_certificate_past_the_last_base_is_a_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(hyperbolic, "_FIRST_BASE", 8)
        monkeypatch.setattr(hyperbolic, "_LAST_BASE", 8)
        with pytest.raises(ComputationLimitError, match="uncertified"):
            reduce_to_fundamental_domain(complex(7 / 3, 1 / 50), 8)
        assert main(["kvol-point", "--n", "8", "--x", "7/3", "--y", "1/50"]) == 5
        assert "limit:" in capsys.readouterr().err

    @pytest.mark.parametrize("n, drawn", [(8, 50000), (12, 0), (16, 0)])
    def test_rerun_rate(self, n, drawn, monkeypatch):
        # no point of the seeded sets needs a rerun, nor does any of 50,000
        # drawn like the benchmark's formula points: x in [-5, 5], y
        # log-uniform in [1e-3, 4]
        requests = _count_passes(monkeypatch)
        rng = random.Random(f"formula-like:{n}")
        drawn_pts = [
            complex(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
            for _ in range(drawn)
        ]
        for z in _seeded_set(n) + drawn_pts:
            requests.clear()
            reduce_to_fundamental_domain(z, n)
            assert len(requests) == 1, z


def _applied_digest(cases, n):
    """``apply_word`` of each ``(word, z)``, its doubles hashed."""
    h = hashlib.sha256()
    for word, z in cases:
        h.update(repr(apply_word(word, z, n)).encode())
    return h.hexdigest()


class TestApplyWordCertificate:
    """A point's image under a word is the exact image, rounded once: the
    doubles are those of a single evaluation at 300 bits, and the
    reduction's precision ladder plays no part."""

    # apply_word of every point of _seeded_set(8) under its reduction word,
    # each image evaluated at 300 bits and rounded with no test
    DIGEST = "9198ac0fb3add963eb0b4f59e34adec635c0af091533c79883c1f939059b048a"

    @pytest.fixture(scope="class")
    def cases(self):
        return [(reduce_to_fundamental_domain(z, 8)[1], z) for z in _seeded_set(8)]

    def test_first_pass_keeps_the_300_bit_doubles(self, cases):
        assert _applied_digest(cases, 8) == self.DIGEST

    def test_forced_reruns_keep_the_300_bit_doubles(self, cases, monkeypatch):
        # an 8-bit first base, which forces the reduction to rerun every
        # point it moves, changes no image, and apply_word asks for no pass
        monkeypatch.setattr(hyperbolic, "_FIRST_BASE", 8)
        requests = _count_passes(monkeypatch)
        assert _applied_digest(cases, 8) == self.DIGEST
        assert requests == []

    def test_no_certificate_past_the_last_base_is_a_limit(self, monkeypatch):
        # 8-bit first and last bases leave the reduction a limit error, but
        # the exact image never gives up: apply_word returns the same point
        word, z = [("TH", 1), ("TV", -1)], complex(0.3, 0.7)
        image = apply_word(word, z, 8)
        monkeypatch.setattr(hyperbolic, "_FIRST_BASE", 8)
        monkeypatch.setattr(hyperbolic, "_LAST_BASE", 8)
        with pytest.raises(ComputationLimitError, match="uncertified"):
            reduce_to_fundamental_domain(complex(7 / 3, 1 / 50), 8)
        assert apply_word(word, z, 8) == image

    def test_zero_real_part_is_certified(self):
        # an exact zero is rational, and a rational rounds at the first rung
        assert apply_word([], 1j, 8) == 1j
        assert apply_word([("TH", 1), ("TH", -1)], complex(0.0, 2.5), 8) == 2.5j


class TestDistToGmax:
    def test_octagon_corner_anchor(self):
        z8 = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        d, converged = dist_to_Gmax(z8, 8)
        assert converged
        assert abs(d - math.asinh(1.0)) < 1e-9
        assert abs(math.cosh(d) - math.sqrt(2)) < 1e-9

    def test_dodecagon_corner_anchor(self):
        z12 = complex(math.cos(math.pi / 12), math.sin(math.pi / 12))
        d, converged = dist_to_Gmax(z12, 12)
        assert converged
        assert abs(math.cosh(d) - 2.0) < 1e-9

    def test_zero_on_seed_verticals(self):
        phi = _phi(8)
        for z in [complex(0, 0.8), complex(1 / phi, 0.9), complex(-1 / (3 * phi), 1.2)]:
            d, converged = dist_to_Gmax(z, 8)
            assert converged
            assert d < 1e-12

    def test_group_invariance(self):
        rng = random.Random(19)
        for z in _interior_points(8, 5, seed=3):
            d0, _ = dist_to_Gmax(z, 8)
            for _ in range(10):
                word = _random_word(rng, 10)
                d1, _ = dist_to_Gmax(apply_word(word, z, 8), 8)
                assert abs(d1 - d0) < 1e-9

    def test_batch_matches_scalar(self):
        pts = _interior_points(8, 8, seed=31)
        dists, flags = dist_to_Gmax_batch(pts, 8)
        for z, d, f in zip(pts, dists, flags):
            ds, fs = dist_to_Gmax(z, 8)
            assert abs(ds - float(d)) < 1e-15
            assert fs == bool(f)

    def test_batch_reduces_outside_points(self):
        # a mix of domain points and points far outside, over more than one
        # chunk of the batch
        rng = random.Random(37)
        pts = _interior_points(8, 700, seed=33)
        pts += [complex(rng.uniform(-5, 5), math.exp(rng.uniform(-7, 1))) for _ in range(700)]
        rng.shuffle(pts)
        assert 0 < sum(in_fundamental_domain(np.array(pts), 8)) < len(pts)
        dists, flags = dist_to_Gmax_batch(pts, 8)
        single = [dist_to_Gmax(z, 8) for z in pts]
        assert dists.tolist() == [d for d, _ in single]
        assert flags.tolist() == [f for _, f in single]

    def test_batch_spans_chunks_bit_for_bit(self):
        # 17 points past one chunk, some 40% of them outside the domain, in
        # a seeded mix
        rng = random.Random(43)
        size = hyperbolic._CELLS + 17
        pts = _interior_points(8, size * 3 // 5, seed=45)
        pts += [
            complex(rng.uniform(-5, 5), math.exp(rng.uniform(-7, 1))) for _ in range(size - len(pts))
        ]
        rng.shuffle(pts)
        assert len(pts) == size
        assert 0 < sum(in_fundamental_domain(np.array(pts), 8)) < size
        dists, flags = dist_to_Gmax_batch(pts, 8)
        single = [dist_to_Gmax(z, 8) for z in pts]
        assert dists.tolist() == [d for d, _ in single]
        assert flags.tolist() == [f for _, f in single]

    def test_batch_of_nothing(self):
        dists, flags = dist_to_Gmax_batch([], 8)
        assert dists.shape == flags.shape == (0,)
        assert dists.dtype == float and flags.dtype == bool

    def test_corner_is_extremal(self):
        # the distance never exceeds its value at the corner point
        rng = random.Random(41)
        pts = [
            complex(rng.uniform(0, _phi(8) / 2), rng.uniform(0.15, 2.0))
            for _ in range(200)
        ]
        dists, _ = dist_to_Gmax_batch(pts, 8)
        assert float(dists.max()) <= math.asinh(1.0) + 1e-12

    def test_grid_agrees_with_closed_formula(self, capsys):
        # kvol-grid's batch distance and kvol-point's closed formula at the
        # same cells: the same flag and the same distance, to the bit
        assert main(["kvol-grid", "--n", "8", "--resolution", "40"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        cells = random.Random(53).sample(rows, 300)
        for x, y, _, dist, converged in cells:
            rep = kvol_closed_formula(8, complex(float(x), float(y)))
            assert rep.converged == (converged == "true")
            assert rep.params["dist"].hex() == float(dist).hex()


def _window_sinh(z, n, width=60):
    """Exhaustive sinh-distance to the members of S whose frame endpoints lie
    within ``width`` of the point's nearest integer, in each frame."""
    phi = _phi(n)
    best = math.inf
    for m in (-1, 0, 1):
        dx = z.real - m * phi
        den = phi * (dx * dx + z.imag * z.imag)
        u, v = -dx / den, z.imag / den
        ints = np.arange(round(u) - width, round(u) + width + 1, dtype=float)
        best = min(best, float(np.min(np.abs(u - ints))) / v)
        a, b = np.meshgrid(ints, ints, indexing="ij")
        a, b = a[a < b], b[a < b]
        best = min(best, float(np.min(np.abs((u - a) * (u - b) + v * v) / ((b - a) * v))))
    return best


def _witness(z, n):
    """The index-search witness at ``z`` as a z-frame geodesic, and how far
    its finite frame endpoints lie from the point's nearest integer."""
    _, m, a, b, _ = _nearest(np.array([z.real]), np.array([z.imag]), n)
    m, phi = m[0], _phi(n)
    dx = z.real - m * phi
    u = -dx / (phi * (dx * dx + z.imag * z.imag))
    ends, reach = [], 0
    for e in (a[0], b[0]):
        if math.isinf(e):
            ends.append(m * phi)
        else:
            ends.append(math.inf if e == 0 else m * phi - 1 / (e * phi))
            reach = max(reach, abs(e - round(u)))
    return Geodesic.from_endpoints(*ends), reach


# points far from the strip, whose exact witness ends can round to one double
_FAR_POINTS = [(1e10, 1e-10), (-7e9, 3e-10), (1e9, 1e-9), (-1e200, 1e-100)]


class TestOrbitSearch:
    @pytest.mark.parametrize("k", [20, 30, 50])
    def test_deep_distinguished_verticals(self, k):
        # 1/(k phi) for k beyond any fixed truncation still lies on S
        d, converged = dist_to_Gmax(complex(1 / (k * _phi(8)), 0.8), 8)
        assert d < 1e-12
        assert converged

    def test_not_below_bruteforce_lower_bound(self):
        # brute force at 20 l_m sqrt(y) finds 6.82639 here; the closed formula
        # is the supremum, so it cannot be smaller
        rep = kvol_closed_formula(8, complex(1 / 44, 5 / 11))
        assert rep.converged
        assert rep.value >= 6.8263

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_exhaustive_window(self, n):
        inside = 0
        for z in _interior_points(n, 40, seed=100 + n):
            s, *_ = _nearest(np.array([z.real]), np.array([z.imag]), n)
            geod, reach = _witness(z, n)
            # the reported value is realized by the reported witness ...
            assert abs(sinh_dist(geod, z) - s[0]) < 1e-12
            # ... and nothing in the window beats it
            window = _window_sinh(z, n)
            assert s[0] <= window + 1e-15
            if reach <= 60:
                inside += 1
                assert abs(s[0] - window) < 1e-12
        assert inside >= 30

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_orbit_images_never_nearer(self, n):
        rng = random.Random(7 * n)
        for z in _interior_points(n, 10, seed=n):
            s0, *_ = _nearest(np.array([z.real]), np.array([z.imag]), n)
            images = np.array([
                apply_word(_random_word(rng, rng.randint(1, 6)), z, n) for _ in range(60)
            ])
            s, *_ = _nearest(images.real, images.imag, n)
            assert float(np.arcsinh(s).min()) >= math.asinh(s0[0]) - 1e-12

    @pytest.mark.parametrize("n", [8, 12])
    def test_horizontal_translates_agree(self, n):
        # TH is in the group, so z + k phi is as far from the orbit as z
        pts = _interior_points(n, 10, seed=50 + n)
        s0, *_ = _nearest(np.array([z.real for z in pts]), np.array([z.imag for z in pts]), n)
        for k in (-3, -2, -1, 1, 2, 3):
            xs = np.array([z.real + k * _phi(n) for z in pts])
            s, m, *_ = _nearest(xs, np.array([z.imag for z in pts]), n)
            assert np.all(m == k)
            assert np.allclose(s, s0, rtol=0, atol=1e-12)

    def test_exact_witness_through_reduction(self):
        # a point far from the domain: the witness comes back through the
        # inverse reduction word and still realizes the distance
        z = complex(3.3, 0.01)
        d, converged, geod, word = nearest_gmax_geodesic(z, 8)
        assert word and converged
        assert abs(dist_to(geod, z) - d) < 1e-9

    def test_witness_realizes_distance(self):
        # over the benchmark's point range; below sinh = 1e-3 the absolute
        # rounding of the circle's center, about 1e-16 |x|/y, dominates
        rng = random.Random(61)
        for _ in range(300):
            z = complex(rng.uniform(-5, 5), math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
            d, _, geod, _ = nearest_gmax_geodesic(z, 8)
            s = math.sinh(d)
            assert abs(sinh_dist(geod, z) - s) <= 1e-9 * max(s, 1e-3)

    @pytest.mark.parametrize("x, y", _FAR_POINTS)
    def test_witness_far_from_strip(self, x, y):
        # the exact ends are distinct but can round to one double; the circle
        # comes from the exact center and half-width instead
        d, converged, geod, _ = nearest_gmax_geodesic(complex(x, y), 8)
        assert converged and math.isfinite(d)
        assert geod.is_vertical or geod.radius > 0

    def test_unbounded_search_is_not_certified(self):
        # deep in the domain's cusp at 0, where Im w is about 5e6 in frame 0
        z = complex(5e-15, 1e-7)
        assert in_fundamental_domain(z, 8, tol=0.0)
        d, converged = dist_to_Gmax(z, 8)
        assert not converged
        assert math.isfinite(d)

    @pytest.mark.parametrize("n", [8, 12])
    def test_pinned_witnesses(self, n):
        # distance, flag, witness circle and word, hashed; re-pinned when a
        # run of TV steps became one token, which changed words alone
        digest = {
            8: "c956116d23075dc75d4787f2830cac06db1a154f5257d1ac971fab9033026ce6",
            12: "aa8e14c6b6a974be1559d0a038f10ff14fdbd6349ecdb84f610f2b93557eaf22",
        }[n]
        rng = random.Random(2227)
        pts = [
            complex(rng.uniform(-50.0, 50.0), math.exp(rng.uniform(math.log(1e-6), math.log(10.0))))
            for _ in range(2000)
        ] + [complex(x, y) for x, y in _FAR_POINTS]
        h = hashlib.sha256()
        single = []
        for z in pts:
            d, converged, g, word = nearest_gmax_geodesic(z, n)
            h.update(repr((repr(d), converged, repr(g.foot), repr(g.center), repr(g.radius), word)).encode())
            single.append((d, converged))
        assert h.hexdigest() == digest
        # the batch rounds each distance as one point does, to the bit
        dists, flags = dist_to_Gmax_batch(pts, n)
        assert flags.tolist() == [f for _, f in single]
        assert _same_bits(dists, np.array([d for d, _ in single]))

    @pytest.mark.parametrize("z, inside", [(complex(3.3, 0.01), False), (complex(0.1, 0.9), True)])
    def test_one_search_and_one_inverse_per_query(self, z, inside, monkeypatch):
        # a point that needs reduction and a point already in the domain
        assert in_fundamental_domain(z, 8) == inside
        calls = {"search": 0, "inverse": 0}
        # one point searches one float row, or the array code deep in the cusp
        for name in ("_search_row", "_lattice_search"):
            monkeypatch.setattr(hyperbolic, name, _counting(calls, "search", getattr(hyperbolic, name)))
        monkeypatch.setattr(CycloReal, "inverse", _counting(calls, "inverse", CycloReal.inverse))
        nearest_gmax_geodesic(z, 8)
        assert calls["search"] == 1
        assert calls["inverse"] <= 1

    @pytest.mark.parametrize("z, inside", [(complex(3.3, 0.01), False), (complex(0.1, 0.9), True)])
    def test_formula_report_maps_no_witness(self, z, inside, monkeypatch):
        # the report and its JSON read the word only; the witness geodesic is
        # mapped back on first read, to the bits of nearest_gmax_geodesic's
        assert in_fundamental_domain(z, 8) == inside
        calls = {"step": 0, "inverse": 0}
        monkeypatch.setattr(hyperbolic, "_step_pairs", _counting(calls, "step", hyperbolic._step_pairs))
        monkeypatch.setattr(CycloReal, "inverse", _counting(calls, "inverse", CycloReal.inverse))
        rep = kvol_closed_formula(8, z)
        rep.to_dict()
        assert calls == {"step": 0, "inverse": 0}
        geod = rep.witnesses[0].geodesic
        assert calls["inverse"] <= 1
        assert rep.witnesses[0].geodesic is geod
        assert _geodesic_bits(geod) == _geodesic_bits(nearest_gmax_geodesic(z, 8)[2])

    def test_witness_read_late_matches_eager_geodesic(self):
        # the points of test_witness_realizes_distance
        rng = random.Random(61)
        for _ in range(300):
            z = complex(rng.uniform(-5, 5), math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
            dist, converged, witness = nearest_witness(z, 8)
            eager = nearest_gmax_geodesic(z, 8)
            assert (dist, converged, witness.word) == (eager[0], eager[1], eager[3])
            assert _geodesic_bits(witness.geodesic) == _geodesic_bits(eager[2])


def _counting(calls: dict, key: str, fn):
    """``fn``, adding one to ``calls[key]`` on each call."""

    def wrapped(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def _geodesic_bits(g: Geodesic) -> tuple:
    return tuple(None if v is None else v.hex() for v in (g.foot, g.center, g.radius))


def _boundary_points(n, count=2000):
    """Dense sweeps of the domain's boundary: both arcs from the corners to
    the cusp at 0, both strip edges from the corners up, and the corners."""
    phi = _phi(n)
    r = 1 / phi
    # the right arc is r + r e^(i theta), from its corner at theta = 2 pi/n
    theta = np.concatenate([
        np.linspace(2 * math.pi / n, math.pi, count, endpoint=False),
        math.pi - np.geomspace(1e-8, 1e-2, count // 10),
    ])
    arc = r + r * np.exp(1j * theta)
    edge = phi / 2 + 1j * np.geomspace(math.sin(2 * math.pi / n) / phi, 1e6, count)
    corner = np.array([complex(phi / 2, math.sin(2 * math.pi / n) / phi)])
    right = np.concatenate([arc, edge, corner])
    return np.concatenate([right, -right.conj()])


def _seven_row_flag(xs, ys, n):
    """The earlier convergence flag: the search reached its bound at the
    point and its six images TV^+-1(z), TV^+-1(z +- phi), searched together
    as seven rows, and no image is nearer than the point by more than 1e-12."""
    phi = _phi(n)
    z = xs + 1j * ys
    images = [(z + t) / (s * phi * (z + t) + 1.0) for t in (0.0, phi, -phi) for s in (1, -1)]
    pts = np.concatenate([z] + images)
    m = np.round(pts.real / phi)
    dx = pts.real - m * phi
    den = phi * (dx * dx + pts.imag * pts.imag)
    sinh, _, _, bounded = (
        v.reshape(7, -1) for v in hyperbolic._lattice_search(-dx / den, pts.imag / den)
    )
    dist = np.arcsinh(sinh)
    return bounded.all(axis=0) & (dist[1:].min(axis=0) >= dist[0] - 1e-12)


@functools.lru_cache(maxsize=None)
def _reduced_points(n, count, seed):
    """Seeded points with x in [-50, 50] and log-uniform y in [1e-9, 1e2],
    moved into the domain in doubles by the token rule of
    ``reduce_to_fundamental_domain``; the few that do not settle within the
    step budget are dropped."""
    rng = np.random.default_rng(seed)
    phi = _phi(n)
    r = 1 / phi
    z = rng.uniform(-50, 50, count) + 1j * np.exp(rng.uniform(math.log(1e-9), math.log(1e2), count))
    for _ in range(2000):
        z = z - np.round(z.real / phi) * phi
        s = np.where(np.abs(z + r) < r - 1e-12, 1.0, np.where(np.abs(z - r) < r - 1e-12, -1.0, 0.0))
        if not s.any():
            break
        z = np.where(s != 0, z / (s * phi * z + 1.0), z)
    z = z[in_fundamental_domain(z, n, tol=0.0)]
    assert z.size >= 0.99 * count
    # cached and shared between tests, so read-only
    z.setflags(write=False)
    return z


class TestCertificate:
    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    def test_images_stay_in_strip(self, n):
        # the premise that makes the six image rows redundant: every image
        # TV^s(z + t phi) of a point of the domain lies in the closed strip,
        # and its frame height Im(-1/(phi w)) is the point's for t = 0 and at
        # most 1/phi^2 otherwise
        phi = _phi(n)
        z = np.concatenate([np.array(_interior_points(n, 500, seed=900 + n)), _boundary_points(n)])
        assert in_fundamental_domain(z, n).all()
        height = lambda w: w.imag / (phi * np.abs(w) ** 2)
        for t in (0.0, phi, -phi):
            for s in (1, -1):
                w = (z + t) / (s * phi * (z + t) + 1.0)
                assert float(np.abs(w.real).max()) <= phi / 2 + 1e-12
                if t:
                    assert float(height(w).max()) <= (1 + 1e-12) / phi**2
                else:
                    assert np.allclose(height(w), height(z), rtol=1e-14, atol=0)

    @staticmethod
    def _assert_never_looser(zs, n):
        zs = np.asarray(zs)
        reference = _seven_row_flag(zs.real, zs.imag, n)
        _, flags = dist_to_Gmax_batch(zs, n)
        assert not np.any(flags & ~reference)
        for z in zs[~reference]:
            assert not nearest_gmax_geodesic(complex(z), n)[1]
        return reference, flags

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_never_looser_high_in_the_cusp(self, n):
        # 301 x values across the strip at y = 10, 10^1.5, ..., 10^9
        phi = _phi(n)
        xs = np.linspace(-phi / 2, phi / 2, 301)
        zs = np.concatenate([xs + 1j * 10 ** (1 + j / 2) for j in range(17)])
        reference, flags = self._assert_never_looser(zs, n)
        # the seven-row rule clears some flags from y = 10^3.5 up; the new
        # one clears every flag at the top and none at the bottom
        assert not reference.all()
        assert not flags[-301:].any() and flags[:301].all()

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_never_looser_on_reduced_points(self, n):
        self._assert_never_looser(_reduced_points(n, 20000, seed=n), n)

    def test_never_looser_far_from_strip(self):
        zs = [reduce_to_fundamental_domain(complex(x, y), 8)[0] for x, y in _FAR_POINTS]
        reference, flags = self._assert_never_looser(zs, 8)
        assert reference.all() and flags.all()

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_rounding_bound(self, n):
        # the winning value against the chosen candidate re-evaluated at 200
        # bits from the same double point, with the exact phi; a certified
        # value is within the tolerance
        rng = random.Random(500 + n)
        phi = _phi(n)
        xs, ys = [], []
        while len(xs) < 1200:
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e8)))
            # below the corners the domain is only its cusp at 0
            half = phi / 2 if y > 0.5 else y * y * phi / 2
            x = rng.uniform(-half, half)
            if in_fundamental_domain(complex(x, y), n, tol=0.0):
                xs.append(x)
                ys.append(y)
        xs, ys = np.array(xs), np.array(ys)
        sinh, m, a, b, converged = _nearest(xs, ys, n)
        dx = xs - m * phi
        den = phi * (dx * dx + ys * ys)
        u, v = -dx / den, ys / den
        bound = 2.0**-51 * ((1.0 + 3.0 * np.abs(u)) / v + 4.0 * (1.0 + sinh))
        worst = 0.0
        with mpmath.workprec(200):
            phi_mp = 2 * mpmath.cos(mpmath.pi / n)
            for i in range(xs.size):
                dxm = mpmath.mpf(xs[i]) - int(m[i]) * phi_mp
                denm = phi_mp * (dxm * dxm + mpmath.mpf(ys[i]) ** 2)
                um, vm = -dxm / denm, mpmath.mpf(ys[i]) / denm
                if math.isinf(b[i]):
                    exact = abs(um - int(a[i])) / vm
                else:
                    exact = abs((um - int(a[i])) * (um - int(b[i])) + vm * vm) / ((int(b[i]) - int(a[i])) * vm)
                err = float(abs(mpmath.mpf(sinh[i]) - exact))
                assert err <= bound[i]
                worst = max(worst, err / bound[i])
                if converged[i]:
                    assert err <= 1e-12
        assert worst > 0
        # the cusp at infinity is cut off near y = 1e-12 * 2^51 / phi
        assert converged[ys < 1000].all() and not converged[ys > 1300].any()

    def test_one_search_row_per_point(self, monkeypatch):
        rows = []
        search, search_row = hyperbolic._lattice_search, hyperbolic._search_row
        monkeypatch.setattr(hyperbolic, "_lattice_search", lambda u, v: rows.append(u.size) or search(u, v))
        # a float row counts as a search of one row
        monkeypatch.setattr(hyperbolic, "_search_row", lambda *row: rows.append(1) or search_row(*row))
        # a point that needs reduction and a point already in the domain
        for z in (complex(3.3, 0.01), complex(0.1, 0.9)):
            nearest_gmax_geodesic(z, 8)
        assert rows == [1, 1]
        rows.clear()
        pts = _interior_points(8, 2 * hyperbolic._CELLS + 5, seed=71)
        dist_to_Gmax_batch(pts, 8)
        # every chunk, the last one of 5 points too, is one array search
        assert rows == [hyperbolic._CELLS, hyperbolic._CELLS, 5]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _row_loop(u, v):
    """``_search_row`` on each row of ``u``, ``v``: arrays of ``sinh``,
    ``a`` and ``b`` in the layout of ``_lattice_search``."""
    rows = [
        hyperbolic._search_row(x, y, hyperbolic._offsets(y)) for x, y in zip(u.tolist(), v.tolist())
    ]
    return [np.array(c, dtype=float) for c in zip(*rows)]


class TestSearchPaths:
    """``_search_row`` searches one row in Python floats and
    ``_lattice_search`` searches a batch in numpy passes; on every row the
    two agree to the bit."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_row_loop_matches_block_code_on_points(self, n, monkeypatch):
        zs = np.concatenate([_reduced_points(n, 20000, seed=n), _boundary_points(n)])
        # the frame height is at most 1/(phi y), so each row has at most
        # _ROW_OFFSETS offsets, which _search_row takes
        zs = zs[zs.imag >= 1 / (30 * _phi(n))]
        frames = []
        search = hyperbolic._lattice_search
        monkeypatch.setattr(hyperbolic, "_lattice_search", lambda u, v: frames.append((u, v)) or search(u, v))
        _nearest(zs.real, zs.imag, n)
        [(u, v)] = frames
        assert u.size == zs.size > 20000
        assert np.floor(v).max() + 2 <= hyperbolic._ROW_OFFSETS
        for got, want in zip(_row_loop(u, v), search(u, v)):
            assert _same_bits(got, want)

    def test_row_loop_matches_block_code_on_hand_built_rows(self):
        rows = [
            # u an integer, so s = 0 on one side
            (0.0, 0.7), (2.0, 3.0), (-1.0, 5.5), (0.0, 0.0078125),
            # exact zeros v^2 = s t with integer s and t, tying the vertical
            (1.0, 2.0), (2.0, 4.0), (-3.0, 6.0),
            # exact zeros off the lattice, which tie: (-4, 1), (-1, 2) and
            # (0, 5) at (0.5, 1.5); the left and right candidates at (0.5, 0.5)
            (0.5, 1.5), (0.5, 0.5), (-2.5, 1.5), (0.5, 2.5), (-1.5, 7.5),
            # u within 1e-17 of an integer
            (1e-17, 0.9), (-1e-17, 0.9), (3.0 - 4e-16, 2.2), (5e-324, 1.3), (-5e-324, 1.3),
            # -1/2 < u < 0, where 1.0 - f is rounded
            (-0.1, 0.3), (-0.3, 1.7), (-1e-10, 4.4), (-0.49, 12.9), (-0.3, 25.0),
            # small and large frame heights below the loop's size
            (0.3, 1e-9), (-0.7, 29.9),
        ]
        u, v = (np.array(c) for c in zip(*rows))
        count = np.floor(v) + 2
        assert count.max() <= hyperbolic._ROW_OFFSETS < count.sum()
        for got, want in zip(_row_loop(u, v), hyperbolic._lattice_search(u, v)):
            assert _same_bits(got, want)
        empty = hyperbolic._lattice_search(np.array([]), np.array([]))
        assert [x.size for x in empty] == [0, 0, 0, 0]

    def test_row_loop_runs_only_for_small_searches(self, monkeypatch):
        rows, blocks = [], []
        search_row, search = hyperbolic._search_row, hyperbolic._lattice_search
        monkeypatch.setattr(hyperbolic, "_search_row", lambda *row: rows.append(row) or search_row(*row))
        monkeypatch.setattr(hyperbolic, "_lattice_search", lambda u, v: blocks.append(u.size) or search(u, v))
        # frame heights about 0.6, 5e6 (deep in the cusp at 0, past
        # _MAX_HEIGHT: no offset, the nearest vertical alone) and 540 (more
        # offsets than _ROW_OFFSETS, one array search of one row)
        for z in (complex(0.1, 0.9), complex(5e-15, 1e-7), complex(0.0, 1e-3)):
            dist_to_Gmax(z, 8)
        assert len(rows) == 2 and rows[0][1] < 1 and rows[1][1] > hyperbolic._MAX_HEIGHT
        assert blocks == [1]
        rows.clear()
        dist_to_Gmax_batch(_interior_points(8, hyperbolic._CELLS, seed=71), 8)
        assert not rows

    @pytest.mark.parametrize("z", [complex(5e-15, 1e-7), complex(-3e-19, 1e-9), complex(0.0, 2e-7)])
    def test_past_the_search_budget_is_not_certified(self, z):
        # a row past _MAX_HEIGHT keeps the nearest vertical, sinh <= 1/(2v),
        # and reads false on both paths, though its rounding bound is small
        phi = _phi(8)
        u, v = -z.real / (phi * abs(z) ** 2), z.imag / (phi * abs(z) ** 2)
        assert in_fundamental_domain(z, 8) and v > hyperbolic._MAX_HEIGHT
        assert hyperbolic._offsets(v) == 0
        one = _nearest_point(z.real, z.imag, 8)
        block = [c[0] for c in _nearest(np.array([z.real]), np.array([z.imag]), 8)]
        assert one[4] is False and bool(block[4]) is False
        assert _same_bits((one[0], one[2], one[3]), (block[0], block[2], block[3]))
        assert one[0] <= 1 / (2 * v) and math.isinf(one[3])
        assert 2.0**-51 * ((1 + 3 * abs(u)) / v + 4 * (1 + one[0])) <= hyperbolic._ROUNDING_TOL
        assert dist_to_Gmax(z, 8) == (math.asinh(one[0]), False)


def _reference_row(u, v):
    """One search row by the documented order, in Python floats with the
    search's double operations: ``(sinh, a, b)``.  The offsets are scanned
    in order, and at each offset the candidates, the left side's two ``t``
    then the right side's; the first least value wins.  It replaces the
    vertical only when strictly smaller.  ``s = 0`` and values that are not
    finite are skipped."""
    floor = lambda x: x - x % 1.0  # np.floor of a finite double, zero's sign kept
    a = floor(u + 0.5)
    best, b = abs(u - a) / v, math.inf
    fl = floor(u)
    f = u - fl
    g = 1.0 - f
    v2 = v * v
    # (s at offset 0, the other side's distance, t less its index)
    cands = ((f, g, g), (f, g, 2.0 - f), (g, f, f), (g, f, 1.0 + f))
    for k in range(int(hyperbolic._offsets(v))):
        for c, (s0, other, t0) in enumerate(cands):
            s = s0 + k
            if s == 0.0:
                continue
            # inf or nan make a nan index, whose value fails the test
            idx = max(floor(v2 / s - other), 0.0)
            t = t0 + idx
            val = abs(v2 - s * t) / ((s + t) * v)
            if val < best:
                best = val
                a, b = (fl - k, fl + (1.0 + c) + idx) if c < 2 else (fl - idx - (c - 2.0), fl + 1.0 + k)
    return best, a, b


# search rows built by hand: u in {0, +-1/2}, where the two sides mirror and
# tie, and exact zeros v^2 = s t, which tie each other and the vertical; at
# (+-1/2, 1), (3/2, 1) and (-5/2, 1) two mirror circles tie, one at offset 0
# and one at offset 2 in a lower candidate, so the order picks the ends
_TIE_ROWS = [
    (0.0, 0.7), (0.0, 2.0), (0.0, 3.0), (0.0, 6.0), (0.0, 12.0), (-0.0, 2.0),
    (0.5, 0.5), (0.5, 1.0), (-0.5, 1.0), (0.5, 1.5), (-0.5, 2.5), (0.5, 7.5), (-0.5, 7.5),
    (1.5, 1.0), (-2.5, 1.0), (2.5, 4.5), (-1.5, 10.5), (0.5, 31.5), (-0.5, 40.5),
    (1.0, 2.0), (2.0, 4.0), (-3.0, 6.0), (0.25, 1.3), (-0.75, 0.75),
]


def _frame(zs, n=8):
    """The search row ``(u, v)`` of each point of the domain, as ``_nearest``
    frames it."""
    phi = _phi(n)
    dx = zs.real - np.round(zs.real / phi) * phi
    den = phi * (dx * dx + zs.imag * zs.imag)
    return -dx / den, zs.imag / den


def _grid_cells(n=8, res=200):
    """The cells of ``kvol-grid --resolution res`` over the default window
    that lie in the domain, as the command builds them."""
    phi = _phi(n)
    steps = np.arange(res) + 0.5
    xs, ys = 0.0 + steps * ((phi / 2 - 0.0) / res), 0.0 + steps * ((1.25 - 0.0) / res)
    cells = np.tile(xs, res) + 1j * np.repeat(ys, res)
    return cells[in_fundamental_domain(cells, n)]


def _domain_points(count, seed, n=8):
    """Seeded points of the domain, y log-uniform in [2e-3, 100] and x
    uniform across the domain at that height (the cusp at 0 below the
    corners), so about one row in eleven has more than ``_ROW_OFFSETS``
    offsets, up to 272."""
    rng = np.random.default_rng(seed)
    phi = _phi(n)
    y = np.exp(rng.uniform(math.log(2e-3), math.log(1e2), count))
    half = np.where(y > 0.5, phi / 2, y * y * phi / 2)
    z = rng.uniform(-1.0, 1.0, count) * half + 1j * y
    return z[in_fundamental_domain(z, n, tol=0.0)]


def _search_digest(zs, n=8):
    sinh, _, a, b, flag = _nearest(zs.real, zs.imag, n)
    return hashlib.sha256(b"".join(c.tobytes() for c in (sinh, a, b, flag))).hexdigest()


class TestSearchOrder:
    """``_lattice_search`` against ``_reference_row``, a plain reading of
    its documented tie order, bit for bit."""

    @staticmethod
    def _assert_reference(u, v):
        want = [np.array(c) for c in zip(*(_reference_row(x, y) for x, y in zip(u.tolist(), v.tolist())))]
        got = hyperbolic._lattice_search(u, v)
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    def test_hand_built_ties(self):
        u, v = (np.array(c) for c in zip(*_TIE_ROWS))
        self._assert_reference(u, v)
        # one row at a time, one pass each
        for x, y in _TIE_ROWS:
            self._assert_reference(np.array([x]), np.array([y]))

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_ties_across_passes(self, block, monkeypatch):
        # short passes, so a row's ties fall into different passes
        monkeypatch.setattr(hyperbolic, "_BLOCK", block)
        u, v = (np.array(c) for c in zip(*_TIE_ROWS))
        self._assert_reference(u, v)
        # beside a row of two offsets, a row's later passes start at other offsets
        for x, y in _TIE_ROWS:
            self._assert_reference(np.array([x, 0.3]), np.array([y, 0.5]))

    @pytest.mark.parametrize("block", [hyperbolic._BLOCK, 1])
    def test_mirror_ties_pinned(self, block, monkeypatch):
        # two mirror circles at sinh 1/12 each: the winner is the one at
        # offset 0, on the left side, not its mirror at offset 2
        monkeypatch.setattr(hyperbolic, "_BLOCK", block)
        rows = {(0.5, 1.0): (0.0, 3.0), (-0.5, 1.0): (-1.0, 2.0), (1.5, 1.0): (1.0, 4.0), (-2.5, 1.0): (-3.0, 0.0)}
        u, v = (np.array(c) for c in zip(*rows))
        sinh, a, b, bounded = hyperbolic._lattice_search(u, v)
        assert sinh.tolist() == [0.25 / 3.0] * 4 and bounded.all()
        assert list(zip(a.tolist(), b.tolist())) == list(rows.values())
        for (x, y), ends in rows.items():
            assert hyperbolic._search_row(x, y, hyperbolic._offsets(y)) == (0.25 / 3.0, *ends)

    def test_rows_of_33_to_200_offsets(self):
        rng = np.random.default_rng(33)
        v = np.linspace(31.0, 198.9, 300)
        u = rng.uniform(-3.0, 3.0, 300)
        # and a quarter of them at a half-integer u, where the sides tie
        u[::4] = np.round(u[::4]) + 0.5
        count = hyperbolic._offsets(v, np.floor, np.minimum)
        assert count.min() == 33 and count.max() == 200
        self._assert_reference(u, v)

    @pytest.mark.parametrize("z, offsets", [(complex(1e-9, 1e-5), 54121), (complex(0.0, 3e-6), 180400)])
    def test_deep_cusp_rows(self, z, offsets):
        # rows of more than _BLOCK offsets, so the widest passes run
        assert in_fundamental_domain(z, 8)
        u, v = _frame(np.array([z]))
        assert hyperbolic._offsets(v[0]) == offsets
        self._assert_reference(u, v)

    def test_mixed_batch(self):
        # deep rows, hand-built ties and ordinary cells in one batch, so the
        # rows leave the passes at different offsets
        deep = _frame(np.array([complex(1e-9, 1e-5), complex(2e-8, 4e-5), complex(0.0, 1e-3)]))
        cells = _frame(np.array(_interior_points(8, 1500, seed=34)))
        u = np.concatenate([np.array([x for x, _ in _TIE_ROWS]), deep[0], cells[0]])
        v = np.concatenate([np.array([y for _, y in _TIE_ROWS]), deep[1], cells[1]])
        self._assert_reference(u, v)

    def test_grid_pinned(self):
        # taken from the search that laid whole rows out in padded blocks
        cells = _grid_cells()
        assert cells.size == 25511
        assert _search_digest(cells) == "87e3f1710a48438fafa5ca2eb95dd20303ff754e2a2c5215ae63adfe702e78bd"

    def test_domain_points_pinned(self):
        zs = _domain_points(120000, seed=47)
        assert zs.size > 100000
        assert _search_digest(zs) == "2f2fe1ff2cd6f79703bbe3814d4b29576968f842e3ae285d409b0e5608387836"


def _one_point_cases(n):
    """Points of the domain for the one-point path: the seeded reduced points
    and the boundary sweeps up to frame height 1,000, where the array code's
    one row is cheap, and ``_edge_points``."""
    phi = _phi(n)
    zs = np.concatenate([_reduced_points(n, 20000, seed=n), _boundary_points(n)])
    dx = zs.real - np.round(zs.real / phi) * phi
    zs = zs[zs.imag / (phi * (dx * dx + zs.imag * zs.imag)) <= 1000]
    return np.concatenate([zs, _edge_points(n)])


def _crossover_points(n):
    """Points of the domain beside the cusp at 0 whose search rows have
    ``_ROW_OFFSETS + k`` offsets, ``1 <= |k| <= 8``, eight points each: in
    the frame ``w = -1/(phi z)`` the domain there is ``|u| <= 1/2``, and a
    row at frame height ``v`` has ``floor(v) + 2`` offsets."""
    phi = _phi(n)
    counts = [hyperbolic._ROW_OFFSETS + k for k in (*range(-8, 0), *range(1, 9))]
    return np.array([-1 / (phi * complex(u, c - 1.5)) for c in counts for u in np.linspace(-0.45, 0.45, 8)])


def _edge_points(n):
    """Points of the domain at x = +-0, deep in the cusp at 0 (the last two
    with a frame denominator that underflows to 0, or with u = -x/(phi
    |z|^2) near -6e11 and v below 1e-126), and with y from 1e155 up, where
    the frame denominator overflows."""
    phi = _phi(n)
    deep = [0.7j, complex(-0.0, 0.7), complex(-0.0, 1e-3), 1e-3j, 3e-5j, complex(5e-15, 1e-7)]
    deep += [1e-200j, complex(1e-12, 1e-150)]
    xs = [phi / 2 * (k / 4 - 1) for k in range(9)]
    return deep + [complex(x, y) for x in xs for y in (1e155, 1e200, 1e300, 1.7e308)]


def _strip_points(n, count, seed):
    """Seeded points of the domain, made in Python floats: x uniform across
    the strip and y log-uniform in [1e-4, 1e3]."""
    rng = random.Random(seed)
    phi = _phi(n)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-phi / 2, phi / 2), math.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
        if in_fundamental_domain(z, n):
            pts.append(z)
    return pts


def _witness_digest(n):
    """``nearest_witness`` at 20,000 ``_strip_points``, ``_edge_points``
    and 2,000 seeded points with x in [-50, 50] and y log-uniform in
    [1e-6, 1e3], nearly all reduced: the distance's and the ends' bits, the
    flag, the shift and the word, hashed."""
    rng = random.Random(7000 + n)
    far = [complex(rng.uniform(-50, 50), math.exp(rng.uniform(math.log(1e-6), math.log(1e3)))) for _ in range(2000)]
    h = hashlib.sha256()
    for z in _strip_points(n, 20000, seed=6000 + n) + _edge_points(n) + far:
        dist, converged, witness = nearest_witness(z, n)
        ends = tuple(e.hex() for e in witness.ends)
        h.update(repr((dist.hex(), converged, ends, witness.shift, witness.word)).encode())
    return h.hexdigest()


class TestOnePointPath:
    """One point is framed and searched in Python floats (``_nearest_point``)
    with the array code's double operations, to the bit."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_array_code_on_points(self, n):
        zs = np.concatenate([_one_point_cases(n), _crossover_points(n)])
        assert zs.size > 20000 and in_fundamental_domain(zs, n).all()
        phi = _phi(n)
        dx = zs.real - np.round(zs.real / phi) * phi
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            offsets = np.floor(np.minimum(zs.imag / (phi * (dx * dx + zs.imag**2)), 1e6)) + 2
            # points with a scaled frame
            assert np.isinf(phi * zs.imag**2).sum() == 36
        # against the array code; past _ROW_OFFSETS, where the float path
        # searches its row in numpy, against _nearest on its one row
        rows = offsets <= hyperbolic._ROW_OFFSETS
        assert rows.sum() > 20000
        # rows on both sides of the constant, whatever its value
        near = {hyperbolic._ROW_OFFSETS + k for k in (*range(-8, 0), *range(1, 9))}
        assert near <= set(offsets.tolist())
        batch = [c.tolist() for c in _nearest(zs.real[rows], zs.imag[rows], n)]
        want = iter(zip(*batch))
        for z, row in zip(zs.tolist(), rows):
            got = _nearest_point(z.real, z.imag, n)
            ref = next(want) if row else [c[0] for c in _nearest(np.array([z.real]), np.array([z.imag]), n)]
            sinh, m, a, b, flag = ref
            assert type(got[1]) is int and (got[1], got[4]) == (int(m), bool(flag))
            assert _same_bits((got[0], got[2], got[3]), (sinh, a, b))
            dist, converged, witness = nearest_witness(z, n)
            assert (converged, witness.shift, witness.word) == (got[4], got[1], [])
            assert _same_bits((dist, *witness.ends), (math.asinh(got[0]), got[2], got[3]))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (8, "f664845d89e20f12fbb75556e3d2f1bd79628810bbcf744c20b6156b95481d19"),
            (12, "da825e286eea30dda3081c7d620fe4c0d612224ff9861e9692c383b979f5edbf"),
            (16, "728853e429164060a5dfcac934942ad3e6be225f20bf0079e80f762fab99cab8"),
        ],
    )
    def test_witnesses_pinned(self, n, digest):
        # pinned from the array code, which searched one point as a one-row
        # array; at 1e-200j, whose frame denominator underflows, it read NaN
        # until the frame was scaled there, and reads dist 0 now.  Re-pinned
        # when a run of TV steps became one token (words only) and a row
        # past _MAX_HEIGHT kept the nearest vertical (the dist and ends at
        # 5e-15 + 1e-7 i only)
        assert _witness_digest(n) == digest

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_domain_test_matches_array_code(self, n):
        # the one-point cases, seeded points around the domain, and points at
        # distance (r - tol)(1 + j 2^-52), |j| <= 4, from the centers +-r of
        # the disks, where math.hypot and np.hypot can round to either side
        phi = _phi(n)
        r = 1 / phi
        rng = np.random.default_rng(800 + n)
        around = rng.uniform(-phi, phi, 20000) + 1j * np.exp(rng.uniform(-12.0, 1.0, 20000))
        for tol in (1e-9, 0.0, -1e-6):
            radius = (r - tol) * (1 + np.arange(-4, 5) * 2.0**-52)
            arc = (r + radius[:, None] * np.exp(1j * rng.uniform(0, math.pi, 2000))).ravel()
            arc = np.concatenate([arc, -arc.conj()])
            zs = np.concatenate([_one_point_cases(n), around, arc])
            want = in_fundamental_domain(zs, n, tol=tol)
            assert 0 < want.sum() < zs.size
            assert [in_fundamental_domain(z, n, tol=tol) for z in zs.tolist()] == want.tolist()
            # the two hypots fall on either side of r - tol at some arc points
            apart = [
                (math.hypot(z.real - r, z.imag) >= r - tol) != (np.hypot(z.real - r, z.imag) >= r - tol)
                for z in arc[: arc.size // 2].tolist()
            ]
            assert any(apart)
