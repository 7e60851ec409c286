"""Field-layer tests: minimal polynomials, exact arithmetic, signs, trig values.

Frozen expected values were derived before implementation:
  - minpoly oracles from folding cyclotomic polynomials by hand
    (n=4 -> x^2-2, n=8 -> x^4-4x^2+2, n=12 -> x^4-4x^2+1)
  - degree phi(2n)/2 from Galois theory
  - sympy.minimal_polynomial(2cos(pi/n)) as an independent oracle
"""

import hashlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kvol.field import (
    FLOAT_SPEC,
    CycloReal,
    _is_prime,
    _phi_float,
    _residue_maps,
    cyclotomic_polynomial,
    field_degree,
    minimal_polynomial,
    sqrt_in_field,
    trig_value,
)
from kvol.plane import Mat2


def C(n, v):
    return CycloReal.from_rational(n, v)


class TestMinimalPolynomial:
    def test_frozen_examples(self):
        assert minimal_polynomial(4) == (-2, 0, 1)          # x^2 - 2
        assert minimal_polynomial(8) == (2, 0, -4, 0, 1)    # x^4 - 4x^2 + 2
        assert minimal_polynomial(12) == (1, 0, -4, 0, 1)   # x^4 - 4x^2 + 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20])
    def test_degree_is_half_totient(self, n):
        import sympy

        assert field_degree(n) == sympy.totient(2 * n) // 2

    @pytest.mark.parametrize("n", [4, 8, 10, 12, 14, 18])
    def test_against_sympy_oracle(self, n):
        import sympy

        x = sympy.Symbol("x")
        expected = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), x)
        got = sum(c * x**i for i, c in enumerate(minimal_polynomial(n)))
        assert sympy.expand(got - expected) == 0

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_phi_is_root_numerically(self, n):
        phi = 2 * math.cos(math.pi / n)
        val = 0.0
        for c in reversed(minimal_polynomial(n)):
            val = val * phi + c
        assert abs(val) < 1e-12

    def test_cyclotomic_sanity(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


class TestArithmetic:
    def test_phi_squared_octagon(self):
        # For n=8, Phi^2 - 2 = sqrt(2), so (Phi^2 - 2)^2 = 2 exactly
        phi = CycloReal.phi(8)
        assert phi * phi == CycloReal(8, [0, 0, 1])
        assert (phi * phi - 2) * (phi * phi - 2) == C(8, 2)

    def test_inverse_and_division(self):
        for n in (8, 10, 12, 14):
            phi = CycloReal.phi(n)
            x = phi * phi - phi / 3 + Fraction(5, 7)
            assert x * x.inverse() == C(n, 1)
            assert (x / x) == C(n, 1)
            assert float(1 / phi) == pytest.approx(1 / (2 * math.cos(math.pi / n)))

    def test_power(self):
        phi = CycloReal.phi(8)
        assert phi**5 == phi * phi * phi * phi * phi
        assert phi**0 == C(8, 1)
        assert phi**-2 == (phi * phi).inverse()

    def test_field_mismatch_raises(self):
        with pytest.raises(ValueError):
            CycloReal.phi(8) + CycloReal.phi(12)
        with pytest.raises(ValueError, match="field mismatch"):
            Mat2(8, CycloReal.phi(12), 0, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-999, max_value=999, max_denominator=99), min_size=4, max_size=4),
        st.lists(st.fractions(min_value=-999, max_value=999, max_denominator=99), min_size=4, max_size=4),
    )
    def test_float_embedding_is_homomorphic(self, a, b):
        x, y = CycloReal(8, a), CycloReal(8, b)
        fx, fy = float(x), float(y)
        scale = max(1.0, abs(fx), abs(fy)) ** 2
        assert float(x + y) == pytest.approx(fx + fy, abs=1e-9 * scale)
        assert float(x * y) == pytest.approx(fx * fy, abs=1e-9 * scale)


class TestSign:
    def test_simple_signs(self):
        phi = CycloReal.phi(8)
        assert (phi * phi - 3).sign() == 1      # 2 + sqrt(2) - 3 > 0
        assert (phi * phi - 4).sign() == -1
        assert (phi - phi).sign() == 0

    def test_tight_sign(self):
        # Phi^2 - 2 = sqrt(2); compare against a close convergent 665857/470832
        phi = CycloReal.phi(8)
        sqrt2 = phi * phi - 2
        close = Fraction(665857, 470832)  # > sqrt(2) by ~1e-12
        assert (sqrt2 - close).sign() == -1
        assert (sqrt2 - (close - Fraction(1, 10**13))).sign() == -1
        assert (sqrt2 - Fraction(1, 10**40) - sqrt2).sign() == -1

    def test_sign_decided_past_the_old_ladder_cap(self):
        # the first Pell convergent p/q of sqrt(2) with a 34,000-bit q: the
        # sign of sqrt(2) - p/q needs about 68,000 bits of Phi
        p, q = 1, 1
        while q.bit_length() < 34000:
            p, q = p + 2 * q, p + q
        assert p * p - 2 * q * q == 1  # p/q > sqrt(2)
        assert (CycloReal.phi(4) - Fraction(p, q)).sign() == -1

    @staticmethod
    def _assert_encloses_the_interval_context(n, k, bits):
        # the enclosure is rigorous and narrow: mpmath's interval cosine,
        # 64 bits finer, lies inside it, and it is at most 2^-bits wide
        from mpmath import iv
        from mpmath.libmp import to_rational

        from kvol.field import _root_enclosure

        old = iv.prec
        try:
            iv.prec = bits + 64
            ends = (2 * iv.cos(iv.pi * k / n))._mpi_
        finally:
            iv.prec = old
        lo, hi, shift = _root_enclosure(n, k, bits)
        judge_lo, judge_hi = (Fraction(*to_rational(e)) for e in ends)
        assert Fraction(lo, 2**shift) <= judge_lo <= judge_hi <= Fraction(hi, 2**shift)
        assert Fraction(hi - lo, 2**shift) <= Fraction(1, 2**bits)

    @pytest.mark.parametrize("n, bits", [(4, 53), (8, 113), (10, 233), (16, 953), (30, 1024)])
    def test_phi_enclosure_matches_the_interval_context(self, n, bits):
        self._assert_encloses_the_interval_context(n, 1, bits)

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 24, 30])
    def test_conjugate_enclosures_contain_the_interval_context(self, n):
        for k in range(1, n):
            if math.gcd(k, 2 * n) == 1:
                for bits in (53, 64, 233, 832, 1024, 4096):
                    self._assert_encloses_the_interval_context(n, k, bits)

    def test_one_newton_step_at_the_final_precision(self, monkeypatch):
        """The top-down precision schedule reaches the final precision good to
        a few units: for Phi at n = 16 and 68,000 bits, one Newton step there
        (P and P') and the two certificate signs of P are all the exact
        evaluations at that precision."""
        from kvol import field

        calls = []
        horner = field._horner

        def counted(num, X, shift):
            calls.append(shift)
            return horner(num, X, shift)

        monkeypatch.setattr(field, "_horner", counted)
        lo, hi, shift = field._root_enclosure.__wrapped__(16, 1, 68000)
        monkeypatch.undo()
        assert shift == 68003 and calls.count(shift) <= 4
        assert 0 < hi - lo <= 8
        P = minimal_polynomial(16)
        assert horner(P, lo, shift) * horner(P, hi, shift) < 0

    def test_comparisons_total_order(self):
        phi = CycloReal.phi(12)
        vals = [phi, phi * phi - 3, C(12, 1), phi / 2, -phi]
        as_floats = sorted(float(v) for v in vals)
        assert [float(v) for v in sorted(vals)] == as_floats



class TestTrig:
    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_pythagoras_exact(self, n):
        for k in range(0, 2 * n + 1, 3):
            c = trig_value(n, "cos", k)
            s = trig_value(n, "sin", k)
            assert c * c + s * s == C(n, 1)

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_matches_float_trig(self, n):
        for k in range(-n, 2 * n + 1):
            assert float(trig_value(n, "cos", k)) == pytest.approx(
                math.cos(k * math.pi / n), abs=1e-12
            )
            assert float(trig_value(n, "sin", k)) == pytest.approx(
                math.sin(k * math.pi / n), abs=1e-12
            )

    def test_octagon_side_identity(self):
        # (Phi^2 - 1) * sin(pi/8) = sin(3pi/8): the staircase width ratio
        phi = CycloReal.phi(8)
        assert (phi * phi - 1) * trig_value(8, "sin", 1) == trig_value(8, "sin", 3)

    def test_sin_squared_octagon(self):
        s = trig_value(8, "sin", 1)
        # sin^2(pi/8) = (2 - sqrt 2)/4 where sqrt2 = Phi^2 - 2
        phi = CycloReal.phi(8)
        assert s * s * 4 == 2 - (phi * phi - 2)

    def test_half_angle_is_generator(self):
        for n in (8, 10, 12, 14):
            assert trig_value(n, "cos", 1) * 2 == CycloReal.phi(n)


def _mp_value(n, coeffs):
    """sum c_i Phi^i at the caller's mpmath precision, from the exact
    coefficients."""
    import mpmath

    phi = 2 * mpmath.cos(mpmath.pi / n)
    return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)], phi)


def _within_contract(f, exact):
    """``f`` is the double nearest a value within 2^-60 relative of
    ``exact``: off by at most half an ulp of ``f`` plus 2^-60 |exact|."""
    return abs(f - exact) <= math.ulp(f) / 2 + abs(exact) * 2.0**-60


class TestAccurateFloat:
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_cancelling_numerators(self, n):
        # q Phi - p for p the integer nearest q Phi, and its powers: values
        # below 1 written with numerators up to 1e45
        import mpmath

        phi = CycloReal.phi(n)
        with mpmath.workprec(3000):
            phi_mp = 2 * mpmath.cos(mpmath.pi / n)
            for q in (10**6, 10**15):
                base = phi * q - int(mpmath.nint(q * phi_mp))
                for x in (base, -base, base ** 3):
                    exact = mpmath.polyval(list(reversed(x.coeffs)), phi_mp)
                    assert abs(float(x) / exact - 1) <= 2.0 ** -52
                    assert _within_contract(float(x), exact)
        assert float(C(n, 0)) == 0.0
        assert float(C(n, Fraction(-3, 7))) == -3 / 7

    @pytest.mark.parametrize("n", range(8, 65, 2))
    def test_phi_is_libm_seed(self, n):
        assert _phi_float(n) == float(CycloReal.phi(n))

    @pytest.mark.parametrize("n", range(8, 65, 8))
    def test_against_a_200_bit_judge(self, n):
        """Seeded elements, generic and cancelling (an element minus a
        rational near it, and a short integer combination near 0), each
        converted within the contract of a 200-bit value."""
        import random

        import mpmath

        rng = random.Random(n)
        d = field_degree(n)
        phi = CycloReal.phi(n)
        with mpmath.workprec(200):
            for _ in range(40):
                cs = [Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6)) for _ in range(d)]
                x = CycloReal(n, cs)
                near = Fraction(round(float(x) * 2**40), 2**40)
                q = rng.randint(10**8, 10**10)
                for y in (x, x - near, phi * q - round(q * float(phi)), -x * x):
                    f = float(y)
                    assert _within_contract(f, _mp_value(n, y.coeffs)), (n, y)
                    assert float(-y) == -f


class TestSerialization:
    def test_round_trip(self):
        x = CycloReal(8, [Fraction(1, 3), Fraction(-7, 2), 0, 5])
        d = x.to_dict()
        assert d["n"] == 8
        assert d["coeffs"][0] == ["1", "3"]
        assert CycloReal.from_dict(d) == x

    def test_dict_is_jsonable(self):
        import json

        x = CycloReal.phi(12) / 7 - 2
        assert CycloReal.from_dict(json.loads(json.dumps(x.to_dict()))) == x


class TestSqrtInField:
    def test_perfect_squares_round_trip(self):
        for n in (8, 10, 12, 14):
            phi = CycloReal.phi(n)
            for y in (phi, phi * phi - 1, C(n, Fraction(3, 7)), trig_value(n, "sin", 1)):
                r = sqrt_in_field(y * y)
                assert r is not None
                assert r * r == y * y
                assert r.sign() >= 0

    def test_sqrt_two_in_octagon_field(self):
        # sqrt 2 = Phi^2 - 2 for Phi = 2cos(pi/8)
        phi = CycloReal.phi(8)
        assert sqrt_in_field(C(8, 2)) == phi * phi - 2

    def test_rational_square(self):
        assert sqrt_in_field(C(12, Fraction(9, 4))) == C(12, Fraction(3, 2))

    def test_zero(self):
        assert sqrt_in_field(C(8, 0)) == C(8, 0)

    def test_negative_has_no_root(self):
        assert sqrt_in_field(C(8, -1)) is None
        assert sqrt_in_field(-CycloReal.phi(10)) is None

    def test_positive_non_square(self):
        # 7 has a negative-conjugate obstruction in none of these fields but
        # is still not a square; the exact verification must reject it.
        for n in (8, 12):
            assert sqrt_in_field(C(n, 7)) is None

    def test_conjugate_obstruction(self):
        # Phi itself is positive but has negative Galois conjugates.
        for n in (8, 10, 12, 14):
            assert sqrt_in_field(CycloReal.phi(n)) is None


def test_fmt_float_round_trip():
    for x in (math.pi, 1 / 3, 2 ** 0.5, 4.82842712474619):
        assert float(format(x, FLOAT_SPEC)) == x


# -- the integer-numerator layout against a Fraction reference ---------------

LAYOUT_NS = (8, 10, 12, 16, 20, 24)


class Ref:
    """Q(Phi) with one Fraction per coefficient: the representation the
    integer layout replaced, kept small as an independent oracle."""

    def __init__(self, n, coeffs):
        d = field_degree(n)
        mp = minimal_polynomial(n)
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > d:  # Phi^d = -(m_0 + ... + m_{d-1} Phi^{d-1})
            top = cs.pop()
            for i in range(d):
                cs[len(cs) - d + i] -= top * mp[i]
        self.n, self.cs = n, tuple(cs + [Fraction(0)] * (d - len(cs)))

    def __add__(self, o):
        return Ref(self.n, [a + b for a, b in zip(self.cs, o.cs)])

    def __sub__(self, o):
        return Ref(self.n, [a - b for a, b in zip(self.cs, o.cs)])

    def __mul__(self, o):
        prod = [Fraction(0)] * (2 * len(self.cs) - 1)
        for i, a in enumerate(self.cs):
            for j, b in enumerate(o.cs):
                prod[i + j] += a * b
        return Ref(self.n, prod)

    def inverse(self):
        """Gauss-Jordan over Q on the matrix of multiplication by self."""
        d = len(self.cs)
        cols, col = [], self
        for _ in range(d):
            cols.append(col.cs)
            col = col * Ref(self.n, [0, 1])
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for k in range(d):
            p = next(r for r in range(k, d) if rows[r][k])
            rows[k], rows[p] = rows[p], rows[k]
            rows[k] = [v / rows[k][k] for v in rows[k]]
            for r in range(d):
                if r != k and rows[r][k]:
                    rows[r] = [a - rows[r][k] * b for a, b in zip(rows[r], rows[k])]
        return Ref(self.n, [row[d] for row in rows])

    def float(self):
        """The value at 4,000 bits, which ``float`` must round to within
        half an ulp plus 2^-60 relative (``_within_contract``)."""
        import mpmath

        with mpmath.workprec(4000):
            return _mp_value(self.n, self.cs)

    def sign(self):
        import mpmath

        if not any(self.cs):
            return 0
        with mpmath.workprec(4000):
            phi, acc = 2 * mpmath.cos(mpmath.pi / self.n), mpmath.mpf(0)
            for c in reversed(self.cs):
                acc = acc * phi + mpmath.mpf(c.numerator) / c.denominator
            return 1 if acc > 0 else -1


def _same(x: CycloReal, r: Ref) -> None:
    assert x.coeffs == r.cs
    assert x._den > 0 and math.gcd(x._den, *x._num) == 1
    # equal elements hash equal, a rational one as its int or Fraction
    assert hash(x) == hash(CycloReal(r.n, r.cs))
    if not any(r.cs[1:]):
        assert x == r.cs[0] and hash(x) == hash(r.cs[0])
    assert _within_contract(float(x), r.float())
    assert x.sign() == r.sign()
    assert CycloReal.from_dict(x.to_dict()) == x


_big = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
_coeff = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), _big)


@st.composite
def _element_pair(draw):
    n = draw(st.sampled_from(LAYOUT_NS))
    d = field_degree(n)
    return n, draw(st.lists(_coeff, min_size=d, max_size=d)), draw(st.lists(_coeff, min_size=d, max_size=d))


class TestIntegerLayout:
    @settings(max_examples=150, deadline=None)
    @given(_element_pair())
    def test_arithmetic_matches_reference(self, case):
        n, a, b = case
        x, y, rx, ry = CycloReal(n, a), CycloReal(n, b), Ref(n, a), Ref(n, b)
        _same(x, rx)
        _same(x + y, rx + ry)
        _same(x - y, rx - ry)
        _same(x * y, rx * ry)
        _same(-x, Ref(n, [-c for c in a]))
        assert (x == y) == (rx.cs == ry.cs)
        assert x == CycloReal(n, rx.cs) and x != x + 1
        if any(b):
            _same(x / y, rx * ry.inverse())
            _same(y.inverse(), ry.inverse())

    def test_near_zero_signs_reach_the_ladder(self, monkeypatch):
        import random

        import mpmath
        from mpmath.libmp import to_rational

        from kvol import field

        ladder = []  # table rungs past the first
        powers = field._powers
        monkeypatch.setattr(field, "_powers", lambda n, p: p > 128 and ladder.append(p) or powers(n, p))
        rng = random.Random(5)
        for n in LAYOUT_NS:
            d = field_degree(n)
            for _ in range(20):
                cs = [Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**20)) for _ in range(d)]
                x = CycloReal(n, cs)
                # x minus a 200-bit rational near it: nonzero, far below the
                # first rung's error bound
                with mpmath.workprec(200):
                    near = Fraction(*to_rational((+Ref(n, cs).float())._mpf_))
                tiny = x - near
                ref = Ref(n, cs) - Ref(n, [near])
                assert tiny.coeffs == ref.cs
                assert tiny.sign() == ref.sign() != 0
                assert (tiny - tiny).sign() == 0
        assert len(ladder) >= 60

    @pytest.mark.parametrize("n", LAYOUT_NS)
    def test_constructor_reduces_any_length(self, n):
        d = field_degree(n)
        phi = CycloReal.phi(n)
        for k in range(3 * d + 1):
            assert CycloReal(n, [0] * k + [1]) == phi**k
        assert CycloReal(n, [Fraction(1, 3)] * (3 * d)) == sum(
            (phi**k for k in range(3 * d)), CycloReal.from_rational(n, 0)
        ) / 3

    def test_hash_agrees_with_equality(self):
        """Equal elements hash equal: an element and its copies built from
        its coefficients, its JSON and arithmetic, and a rational element
        and the int or Fraction it equals, so either finds the other in a
        set or dict.  The cases include coefficients hashing to -1 (read as
        -2), negative and zero numerators, and denominators that the hash
        modulus P divides."""
        P = sys.hash_info.modulus
        cases = [
            [Fraction(-1), Fraction(P - 1, 7), Fraction(-1, 3), 0],
            [Fraction(1, P), Fraction(1, 2), Fraction(-3, 2 * P), 5],
            [Fraction(P, 3 * P + 3), Fraction(-2, 3), 0, Fraction(10**30, 7)],
            [Fraction(-(P + 1), 2), P, -P, Fraction(1, P * P)],
            [Fraction(-P * 3 - 1, 3), Fraction(7, 11), Fraction(-5, 13), Fraction(1, 17)],
        ]
        for cs in cases:
            x = CycloReal(8, cs)
            for y in (CycloReal(8, x.coeffs), CycloReal.from_dict(x.to_dict()), x * 1, x + 0, -(-x)):
                assert y == x and hash(y) == hash(x)
        rationals = [0, 1, -1, -2, 7, P, -P - 1, 10**30, Fraction(1, 2), Fraction(-1, 3), Fraction(P - 1, 7)]
        rationals += [Fraction(1, P), Fraction(-3, 2 * P), Fraction(10**30, 7)]
        for n in (8, 12):
            for v in rationals:
                for x in (CycloReal.from_rational(n, v), CycloReal(n, [v]), CycloReal(n, [v, 0]) * 1):
                    assert x == v and hash(x) == hash(v)
                    assert x in {v} and v in {x} and {v: "a"}.get(x) == "a"


def _square_norm_with_a_negative_conjugate(n):
    """A positive element u = |w sigma_k(w)|, w = Phi + r, whose norm
    Norm(w)^2 is a square but which has a negative conjugate."""
    phi = CycloReal.phi(n)
    ks = [k for k in range(1, n) if math.gcd(k, 2 * n) == 1]
    for r in range(-2, 3):
        for k in ks[1:]:
            u = abs((phi + r) * (trig_value(n, "cos", k) * 2 + r))
            phis = [2 * math.cos(j * math.pi / n) for j in ks]
            if min(sum(float(c) * p**i for i, c in enumerate(u.coeffs)) for p in phis) < -1e-9:
                return u
    raise AssertionError("no such element")


class TestExactSqrt:
    def test_heights_beyond_any_fixed_denominator(self):
        phi = CycloReal.phi(8)
        x = Fraction(1, 10**13 + 37) + Fraction(3, 10**13 + 39) * phi
        assert sqrt_in_field(x * x) == x
        assert sqrt_in_field(x * x * 7) is None

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((8, 10, 12, 16)), st.data())
    def test_square_of_large_height_element(self, n, data):
        d = field_degree(n)
        x = CycloReal(n, data.draw(st.lists(_big, min_size=d, max_size=d)))
        assume(not x.is_zero())
        assert sqrt_in_field(x * x) == abs(x)
        # 7 is not a square in these fields, so 7 x^2 has no root
        assert sqrt_in_field(x * x * 7) is None

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 20, 24])
    def test_agrees_with_the_mpmath_oracle(self, n):
        import random

        import sqrt_oracle

        rng = random.Random(n)
        d = field_degree(n)
        u = _square_norm_with_a_negative_conjugate(n)
        for _ in range(6):
            height = 2 ** rng.choice((8, 64, 300, 600))
            coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, 2**64)) for _ in range(d)]
            x = CycloReal(n, coeffs)
            if x.is_zero():
                continue
            square = x * x
            cases = {
                square: abs(x),
                square * 7: None,
                square * u: None,
                square + Fraction(1, square._den): None,
            }
            for y, want in cases.items():
                got = sqrt_in_field(y)
                assert got == want
                assert got == sqrt_oracle.sqrt_in_field(y)

    def test_exact_check_only_for_integral_candidates(self, monkeypatch):
        """s = D r lies in Z[Phi], so a sign pattern whose T^-1 image is not
        integral is skipped before the exact ``cand * cand == x`` check: each
        call multiplies in the field at most once, and only when a root
        exists.  The radicands are the six that ``kvol_bruteforce`` passes to
        ``sqrt_in_field`` on S_8 sheared to the six points of the ``brute``
        benchmark workload at seed 31."""
        import sqrt_oracle

        radicands = [
            ((3844, 0, -961, 0), 5832),
            ((288, 0, -72, 0), 1849),
            ((82352548, -44384256, -22481513, 12681216), 60588032),
            ((3989956, -1075200, -1037489, 307200), 1280000),
            ((5892, -1792, -1537, 512), 2048),
            ((991, -630, -268, 180), 648),
        ]
        calls = []
        mul = CycloReal.__mul__

        def counted(x, y):
            calls.append(x)
            return mul(x, y)

        roots, muls = [], []
        for num, den in radicands:
            x = CycloReal(8, [Fraction(a, den) for a in num])
            calls.clear()
            monkeypatch.setattr(CycloReal, "__mul__", counted)
            roots.append(sqrt_in_field(x))
            monkeypatch.undo()
            muls.append(len(calls))
            assert roots[-1] == sqrt_oracle.sqrt_in_field(x)
        assert muls == [int(r is not None) for r in roots] == [1, 1, 0, 0, 0, 0]


class TestResidueCertificate:
    """``sqrt_in_field`` rejects a radicand whose image under some
    Phi -> r mod p is a quadratic non-residue, before its sign search,
    which is exponential in the degree d."""

    @pytest.mark.parametrize("n", [8, 40, 56, 64])
    def test_each_map_sends_phi_to_a_root_mod_a_prime(self, n):
        maps = _residue_maps(n)
        P = minimal_polynomial(n)
        assert len({p for p, _r in maps}) == len(maps) == 32
        for p, r in maps:
            assert p > 10**6 and p % (2 * n) == 1
            assert all(p % q for q in range(2, math.isqrt(p) + 1))
            assert sum(c * pow(r, i, p) for i, c in enumerate(P)) % p == 0

    @pytest.mark.parametrize(
        "n, first, last, digest",
        [
            (8, (1000033, 313302), (1003601, 845651), "2a91e304551d234a0dbc6cc7d7d7bf61"),
            (12, (1000033, 126284), (1002553, 681381), "fc1e3d8f5f6bc3224b4aa9e7664571ae"),
            (16, (1000033, 684710), (1006721, 969284), "3239313bae0679ad3fa853223a1ccb12"),
            (40, (1000081, 373281), (1012321, 350194), "258d043efe54f9c821b91adc72267909"),
            (64, (1000193, 957577), (1027969, 10895), "afcbe512235dde30235cd21176fcdb3d"),
        ],
    )
    def test_pinned_maps(self, n, first, last, digest):
        """The 32 (p, r) pairs are those the trial-division search found:
        the first and last pair, and a sha256 prefix of the tuple's repr."""
        maps = _residue_maps(n)
        assert maps[0] == first and maps[-1] == last
        assert hashlib.sha256(repr(maps).encode()).hexdigest()[:32] == digest

    def test_miller_rabin_is_trial_division(self):
        """``_is_prime`` agrees with trial division on every integer below
        1e5 and on seeded ones up to 1e9, and rejects the least strong
        pseudoprimes to the bases 2; 2, 3; ...; 2, ..., 37 below 2^64 and a
        Carmichael number, which a Fermat test passes."""
        import random

        def trial(p):
            return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))

        assert all(_is_prime(p) == trial(p) for p in range(100_000))
        rng = random.Random(5)
        for _ in range(2000):
            p = rng.randrange(10**6, 10**9)
            assert _is_prime(p) == trial(p)
        pseudo = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051]
        pseudo.append(211 * 421 * 631)  # a Carmichael number, no factor below 211
        assert not any(map(_is_prime, pseudo))
        assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59) and not _is_prime(2**64 - 1)

    @pytest.mark.parametrize("n", [16, 40, 56, 64])
    def test_squares_map_to_squares(self, n):
        """Integral squares pass every prime, n with an odd factor (40, 56)
        included, where a 2n-th root of unity mod p is not primitive merely
        because its n-th power is -1."""
        import random

        rng = random.Random(n)
        d = field_degree(n)
        for _ in range(20):
            s = CycloReal(n, [rng.randint(-(2**20), 2**20) for _ in range(d)])
            m = (s * s)._num
            for p, r in _residue_maps(n):
                v = sum(c * pow(r, i, p) for i, c in enumerate(m)) % p
                assert pow(v, (p - 1) // 2, p) != p - 1

    @pytest.mark.parametrize("n", [8, 16, 40])
    def test_no_norm_determinant(self, n, monkeypatch):
        """The residues reject and the search accepts: once the trace
        matrix's inverse is cached, no call takes a determinant, for a
        square, Phi times a square, or a square plus 1/den."""
        import random

        from kvol import field

        rng = random.Random(n)
        d = field_degree(n)
        field._trace_inverse(n)
        calls = []
        bareiss = field._bareiss
        monkeypatch.setattr(field, "_bareiss", lambda rows: calls.append(1) or bareiss(rows))
        for _ in range(3):
            s = CycloReal(n, [Fraction(rng.randint(-(2**20), 2**20), rng.randint(1, 99)) for _ in range(d)])
            sq = s * s
            assert sqrt_in_field(sq) == abs(s)
            assert sqrt_in_field(CycloReal.phi(n) * sq) is None
            assert sqrt_in_field(sq + Fraction(1, sq._den)) is None
        assert calls == []

    @pytest.mark.parametrize("n", [56, 64])
    def test_phi_times_a_square_is_rejected_at_once(self, n):
        """At d = 24 and d = 32 the sign-pattern search alone would try
        2^23 and 2^31 patterns."""
        import random
        import time

        rng = random.Random(n)
        d = field_degree(n)
        assert d == {56: 24, 64: 32}[n]
        s = CycloReal(n, [Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**32)) for _ in range(d)])
        x = CycloReal.phi(n) * s * s
        start = time.perf_counter()
        assert sqrt_in_field(x) is None
        assert time.perf_counter() - start < 0.1
