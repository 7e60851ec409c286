"""Tests for intersection-ratio maxima: brute-force KVol, directional
constants, the closed formula, and the certified bounds.

Exact anchors: the octagon maximum 2/tan(pi/8) with the six distinct-side
pairs as witnesses, the staircase peak constant K_0 = Vol/(Phi l_m^2), the
two-value spectrum of horizontal directional constants, and the exact zero
of parallel intersections.  Invariants: Veech-group invariance of the brute
force value, the sine-weighted supremum inequality over direction pairs, and
the trichotomy of realized directional constants.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kvol import ratios
from kvol.field import CycloReal, trig_value
from kvol.hyperbolic import Geodesic, apply_word
from kvol.intersect import ClosedCurve, intersection_form
from kvol.ratios import (
    DirectionPairReport,
    K_of_directions,
    ParallelReport,
    UnrealizedDirectionError,
    UnsupportedCaseError,
    _RadicalContext,
    _pair_key,
    _scan_pairs,
    bound_4m2,
    check_parallel_criterion,
    closed_atoms,
    explore_conjecture,
    is_side_pair_witness,
    k0_constant,
    kvol_bruteforce,
    kvol_closed_formula,
    length_unit,
    side_pairs,
    verify_ngon_bound,
)
from kvol.plane import canonical_orientation, vfloat
from kvol.saddle import SaddleConnection, enumerate_saddle_connections
from kvol.surface import (
    Mat2,
    TranslationSurface,
    build_ngon,
    build_staircase,
    conversion_matrix,
    direction_vector,
    veech_generators,
)

from geodesic_helpers import dist_to
from pair_judges import exhaustive_K, gram


def F(n, v):
    return CycloReal.from_rational(n, Fraction(v))


def lm(n):
    return trig_value(n, "sin", 1)


@pytest.fixture(scope="module")
def octagon():
    return build_ngon(8)


@pytest.fixture(scope="module")
def stc8():
    return build_staircase(8)


@pytest.fixture(scope="module")
def stc8_form(stc8):
    return intersection_form(stc8)


@pytest.fixture(scope="module")
def stc8_slopes(stc8):
    """Distinct realized direction labels on the octagon staircase."""
    scs = enumerate_saddle_connections(stc8, lm(8) * 4)
    slopes = []
    for sc in scs:
        x, y = sc.holonomy
        key = "inf" if y.is_zero() else x / y
        if key not in slopes:
            slopes.append(key)
    return slopes


class TestRadicalContext:
    def test_nested_radical_identity(self):
        # sqrt(3) + sqrt(5) == sqrt(8 + 2 sqrt(15)), decided exactly
        ctx = _RadicalContext(8)
        s = ctx.add(ctx.sqrt(F(8, 3)), ctx.sqrt(F(8, 5)))
        square = ctx.mul(s, s)
        target = ctx.add(ctx.const(F(8, 8)), ctx.scale(ctx.sqrt(F(8, 15)), F(8, 2)))
        diff = ctx.add(square, ctx.scale(target, F(8, -1)))
        assert ctx.sign(diff) == 0

    def test_perfect_square_folds_into_field(self):
        # sqrt(8) - 2 sqrt(2) == 0; both collapse to field elements over n=8
        ctx = _RadicalContext(8)
        diff = ctx.add(ctx.sqrt(F(8, 8)), ctx.scale(ctx.sqrt(F(8, 2)), F(8, -2)))
        assert ctx.sign(diff) == 0

    def test_dependent_radicands(self):
        # sqrt(12) = 2 sqrt(3) over n=8; the two radicands stay apart and every
        # sign is still exact
        ctx = _RadicalContext(8)
        r12, r3 = ctx.sqrt(F(8, 12)), ctx.sqrt(F(8, 3))
        assert len(ctx.radicands) == 2
        assert ctx.sign(ctx.add(r12, ctx.scale(r3, -2))) == 0
        assert ctx.sign(ctx.add(r12, ctx.scale(r3, -1))) == 1
        assert ctx.sign(ctx.add(ctx.mul(r12, r3), ctx.const(-6))) == 0

    def test_ordering(self):
        ctx = _RadicalContext(8)
        diff = ctx.add(ctx.sqrt(F(8, 5)), ctx.scale(ctx.sqrt(F(8, 3)), F(8, -1)))
        assert ctx.sign(diff) == 1
        assert ctx.sign(ctx.scale(diff, F(8, -1))) == -1
        assert abs(ctx.to_float(diff) - (math.sqrt(5) - math.sqrt(3))) < 1e-12

    def test_curve_length_expression(self):
        S = build_staircase(10)
        scs = enumerate_saddle_connections(S, lm(10) * 3)
        curves = closed_atoms(S, scs)
        two = next(c for c in curves if len(c.components) == 2)
        ctx = _RadicalContext(10)
        expr = ctx.length_sq(two)
        expect = sum(math.sqrt(float(sc.length_sq)) for sc in two.components) ** 2
        assert abs(ctx.to_float(expr) - expect) < 1e-9


class TestClosedAtoms:
    def test_single_class_atoms_are_single_connections(self, octagon):
        scs = enumerate_saddle_connections(octagon, 2)
        atoms = closed_atoms(octagon, scs)
        assert len(atoms) == len(scs)
        assert all(len(c.components) == 1 for c in atoms)
        # with one singularity class every connection closes up
        assert all(
            c.components[0].start.class_id == c.components[0].end.class_id
            for c in atoms
        )

    def test_two_class_atoms_close_up(self):
        S = build_staircase(10)
        assert len(S.vertex_classes) == 2
        scs = enumerate_saddle_connections(S, lm(10) * 3)
        atoms = closed_atoms(S, scs)
        for c in atoms:
            assert c.components[0].start.class_id == c.components[-1].end.class_id
            for a, b in zip(c.components, c.components[1:]):
                assert a.end.class_id == b.start.class_id
        sizes = {len(c.components) for c in atoms}
        assert sizes == {1, 2}

    def test_two_class_pairing_is_exhaustive(self):
        S = build_staircase(10)
        scs = enumerate_saddle_connections(S, lm(10) * 3)
        atoms = closed_atoms(S, scs)
        open_scs = [sc for sc in scs if sc.start.class_id != sc.end.class_id]
        expect = 0
        for a, b in itertools.combinations(open_scs, 2):
            if {a.start.class_id, a.end.class_id} == {b.start.class_id, b.end.class_id}:
                expect += 1
        assert sum(1 for c in atoms if len(c.components) == 2) == expect

    def test_each_open_connection_reversed_once(self, monkeypatch):
        """On S_10 sheared to 10/47 + 50i/47, the atoms equal the ones the
        validating ``ClosedCurve`` constructor builds, in order and component
        by component, with at most one reversal per open connection."""
        S = build_staircase(10).transform(Mat2(10, 1, Fraction(10, 47), 0, Fraction(50, 47)))
        scs = enumerate_saddle_connections(S, lm(10) * 12)
        open_scs = [sc for sc in scs if sc.start.class_id != sc.end.class_id]
        expect = [ClosedCurve([sc]) for sc in scs if sc.start.class_id == sc.end.class_id]
        for a, b in itertools.combinations(open_scs, 2):
            expect.append(ClosedCurve([a, b if b.start.class_id == a.end.class_id else b.reversed()]))
        calls = []
        reverse = SaddleConnection.reversed
        monkeypatch.setattr(SaddleConnection, "reversed", lambda sc: calls.append(1) or reverse(sc))
        atoms = closed_atoms(S, scs)
        assert len(calls) <= len(open_scs) < len(scs) == 118
        assert [[sc._key() for sc in c.components] for c in atoms] == [
            [sc._key() for sc in c.components] for c in expect
        ]


class TestLengthUnit:
    def test_staircase_unit_is_short_side(self):
        for n in (8, 10):
            assert length_unit(build_staircase(n)) == lm(n)

    def test_ngon_unit_is_one(self, octagon):
        assert length_unit(octagon) == F(8, 1)
        assert length_unit(build_ngon(4)) == F(4, 1)

    def test_sheared_staircase_keeps_its_unit(self):
        # the sheared vertical side sin(pi/4) |z| = 0.300 is shorter than l_m
        S = build_staircase(8).transform(Mat2(8, 1, Fraction(1, 7), 0, Fraction(2, 5)))
        assert length_unit(S) == lm(8)

    def test_other_model_raises(self, octagon):
        S = TranslationSurface.from_dict({**octagon.to_dict(), "model": "octagon"})
        with pytest.raises(UnsupportedCaseError, match="no length unit"):
            length_unit(S)


class TestBruteForce:
    def test_octagon_maximum(self, octagon):
        rep = kvol_bruteforce(octagon, 3)
        assert rep.exact_ratio == F(8, 1)
        assert rep.exact_value == octagon.area()
        assert abs(rep.value - 2 / math.tan(math.pi / 8)) < 1e-9
        assert len(rep.witnesses) == side_pairs(8) == 6
        assert all(is_side_pair_witness(w) for w in rep.witnesses)
        seen = {frozenset((w[0].components[0].edge_pair, w[1].components[0].edge_pair))
                for w in rep.witnesses}
        assert len(seen) == 6

    def test_staircase_peak_value(self, stc8, stc8_form):
        rep = kvol_bruteforce(stc8, lm(8) * 3, form=stc8_form)
        assert rep.exact_value is not None
        assert rep.exact_value == k0_constant(8)
        phi = CycloReal.phi(8)
        assert rep.exact_value == phi * phi * 2  # 4 + 2 sqrt(2)

    def test_peak_value_is_a_root_at_degree_16(self):
        """At n = 40 the winning l_a^2 l_b^2 is a true square in a degree-16
        field, so its root comes from the sign search, not the residues."""
        rep = kvol_bruteforce(build_staircase(40), lm(40) * 2)
        assert rep.exact_value == k0_constant(40)

    def test_monotone_in_length(self, stc8, stc8_form):
        lo = kvol_bruteforce(stc8, lm(8) * 2, form=stc8_form)
        hi = kvol_bruteforce(stc8, lm(8) * 3, form=stc8_form)
        assert lo.value <= hi.value + 1e-12
        assert (hi.exact_value - lo.exact_value).sign() >= 0

    def test_invariant_under_affine_symmetries(self, stc8, stc8_form):
        base = kvol_bruteforce(stc8, lm(8) * 3, form=stc8_form)
        for name, g in veech_generators(8).items():
            moved = kvol_bruteforce(stc8.transform(g), lm(8) * 3)
            assert moved.exact_value == base.exact_value, name

    def test_too_short_raises(self, octagon):
        with pytest.raises(UnrealizedDirectionError):
            kvol_bruteforce(octagon, Fraction(1, 2))

    def test_report_serializes(self, octagon):
        rep = kvol_bruteforce(octagon, 2)
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["mode"] == "bruteforce"
        assert set(d["params"]) >= {"L", "K_max", "W"}
        assert d["witness_count"] == len(rep.witnesses)
        assert d["exact"] is not None and d["exact_ratio"] is not None


class TestFlatTorus:
    """KVol is 1 on every flat torus (``PAPER.md``): two closed geodesics
    with holonomies ``u``, ``w`` cross ``|u x w|/Vol`` times, so the ratio is
    ``|sin|/Vol``, and brute force never exceeds 1.  It reaches 1 where the
    lattice has a right angle, as at ``x = 0``."""

    @staticmethod
    def _at_most_one(rep, S):
        if rep.exact_value is not None:
            return (rep.exact_value - 1).sign() <= 0
        # Vol |I| / (l_a l_b) <= 1 exactly when (l_a l_b)^2 - (Vol I)^2 >= 0
        a, b, I = rep.witnesses[0]
        ctx, vol = _RadicalContext(S.n), S.area()
        lhs = ctx.mul(ctx.length_sq(a), ctx.length_sq(b))
        return ctx.sign(ctx.add(lhs, ctx.const(-(vol * vol) * (I * I)))) >= 0

    @pytest.mark.parametrize("n, cap", [(4, 6), (6, 4)])
    def test_sheared_tori_at_most_one(self, n, cap):
        one = CycloReal.from_rational(n, 1)
        torus = build_ngon(n)
        rng = random.Random(4000 + n)
        inexact = 0
        for i in range(8):
            # the first at x = 0 and y <= 1, where the right angle is within the cap
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 16)) if i else Fraction(0)
            y = Fraction(rng.randint(8, 40), rng.randint(8, 24)) if i else Fraction(rng.randint(8, 16), 16)
            S = torus.transform(Mat2(n, 1, one * x, 0, one * y))
            rep = kvol_bruteforce(S, cap)
            assert self._at_most_one(rep, S), (x, y)
            assert rep.value <= 1.0 + 1e-15, (x, y)
            inexact += rep.exact_value is None
            if x == 0:
                assert rep.exact_value == one and rep.exact_ratio == one / S.area()
        # both judgments ran
        assert 0 < inexact < 8


class TestKOfDirections:
    def test_horizontal_spectrum_values(self, stc8, stc8_form):
        phi = CycloReal.phi(8)
        one = F(8, 1)
        v1 = one / (phi * lm(8) * lm(8))
        v2 = one / ((phi**3 - phi * 2) * lm(8) * lm(8))
        L = lm(8) * 8
        got1 = K_of_directions(stc8, "inf", one / phi, L, form=stc8_form)
        assert got1.exact == v1
        d2 = (phi * phi - one) / (phi**3 - phi * 2)
        got2 = K_of_directions(stc8, "inf", d2, L, form=stc8_form)
        assert got2.exact == v2
        assert (v1 - v2).sign() > 0

    def test_vertical_companion(self, stc8, stc8_form):
        phi = CycloReal.phi(8)
        v1 = F(8, 1) / (phi * lm(8) * lm(8))
        rep = K_of_directions(stc8, "inf", 0, lm(8) * 8, form=stc8_form)
        assert rep.exact == v1

    def test_argument_order_and_canonical_labels(self, stc8, stc8_form):
        phi = CycloReal.phi(8)
        a = K_of_directions(stc8, "inf", F(8, 1) / phi, lm(8) * 6, form=stc8_form)
        b = K_of_directions(stc8, F(8, 1) / phi, "inf", lm(8) * 6, form=stc8_form)
        assert a.exact == b.exact
        assert a.d_prime == "inf" and b.d_prime == "inf"
        wits = [[(x.components, y.components, I) for x, y, I in r.witnesses] for r in (a, b)]
        assert wits[0] and wits[0] == wits[1]
        assert a.value == float(a.exact)

    def test_equal_directions_rejected(self, stc8):
        with pytest.raises(ValueError):
            K_of_directions(stc8, "inf", "inf", 2)
        with pytest.raises(ValueError):
            K_of_directions(stc8, Fraction(1, 2), 0.5, 2)

    def test_unrealized_direction_raises(self, stc8):
        with pytest.raises(UnrealizedDirectionError):
            K_of_directions(stc8, "inf", Fraction(355, 113), lm(8) * 2)

    def test_report_serializes(self, stc8, stc8_form):
        rep = K_of_directions(stc8, "inf", 0, lm(8) * 4, form=stc8_form)
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["d_prime"] == "inf" and d["d"] == 0.0
        assert d["value"] == pytest.approx(float(rep.exact))


def _unit(S):
    return lm(S.n) if S.model == "staircase" else F(S.n, 1)


def _seeded_direction_pairs(S, count, seed, closing=False):
    """``count`` seeded pairs of distinct direction labels of the connections
    of ``S`` up to 5 length units; with ``closing``, only of labels that at
    least two of those connections share."""
    labels = []
    for sc in enumerate_saddle_connections(S, _unit(S) * 5):
        x, y = sc.holonomy
        labels.append("inf" if y.is_zero() else x / y)
    least = 2 if closing else 1
    labels = [d for i, d in enumerate(labels) if d not in labels[:i] and labels.count(d) >= least]
    pairs = list(itertools.combinations(labels, 2))
    random.Random(seed).shuffle(pairs)
    return pairs[:count]


def _or_unrealized(f):
    try:
        return f()
    except UnrealizedDirectionError:
        return None


def _keys(witnesses):
    return [(_pair_key(a, b), I) for a, b, I in witnesses]


class TestDirectionalJudge:
    """K_of_directions against the exhaustive exact scan of every pair."""

    @pytest.mark.parametrize(
        "S, caps",
        [
            (build_staircase(8), (8, 12)),
            (build_staircase(12), (8, 12)),
            (build_staircase(16), (8, 12)),
            (build_ngon(8), (3, 5)),
        ],
        ids=["S8", "S12", "S16", "X8"],
    )
    def test_one_class_matches_the_judge(self, S, caps):
        # with one singularity every atom is one canonical connection, so
        # keeping same-direction atoms drops nothing
        form = intersection_form(S)
        compared = 0
        for cap in caps:
            L = _unit(S) * cap
            for d1, d2 in _seeded_direction_pairs(S, 12, seed=S.n):
                got = _or_unrealized(lambda: K_of_directions(S, d1, d2, L, form=form))
                judge = _or_unrealized(lambda: exhaustive_K(S, d1, d2, L, form=form))
                assert (got is None) == (judge is None), (d1, d2, cap)
                if got is not None:
                    assert got.exact == judge[0], (d1, d2, cap)
                    assert _keys(got.witnesses) == _keys(judge[1]), (d1, d2, cap)
                    compared += bool(judge[1])
        assert compared >= 10

    @pytest.mark.parametrize(
        "S, caps, closing",
        [
            (build_staircase(10), (8, 12), False),
            (build_staircase(14), (8, 12), False),
            (build_ngon(10), (3, 5), True),
        ],
        ids=["S10", "S14", "X10"],
    )
    def test_two_classes_match_the_same_direction_judge(self, S, caps, closing):
        form = intersection_form(S)
        compared = 0
        for cap in caps:
            L = _unit(S) * cap
            for d1, d2 in _seeded_direction_pairs(S, 12, seed=S.n, closing=closing):
                got = _or_unrealized(lambda: K_of_directions(S, d1, d2, L, form=form))
                judge = _or_unrealized(
                    lambda: exhaustive_K(S, d1, d2, L, form=form, same_direction=True)
                )
                assert (got is None) == (judge is None), (d1, d2, cap)
                if got is None:
                    continue
                assert got.exact == judge[0], (d1, d2, cap)
                assert _keys(got.witnesses) == _keys(judge[1]), (d1, d2, cap)
                compared += bool(judge[1])
                # dropping the a + reverse(b) atoms never raises K
                every = exhaustive_K(S, d1, d2, L, form=form)[0]
                assert (every - got.exact).sign() >= 0, (d1, d2, cap)
        assert compared >= 5


def _sine(n, d1, d2):
    (x1, y1), (x2, y2) = (vfloat(direction_vector(n, d)) for d in (d1, d2))
    return abs(x1 * y2 - x2 * y1) / math.hypot(x1, y1) / math.hypot(x2, y2)


def _assert_lengths_are_holonomies(rep, n):
    """Every witness component is canonically oriented, and each witness
    pair attains |Int| / (l(a) l(b)) = K |sin theta(d, d')|."""
    assert rep.witnesses
    target = rep.value * _sine(n, rep.d, rep.d_prime)
    for a, b, I in rep.witnesses:
        assert all(canonical_orientation(sc.holonomy) for c in (a, b) for sc in c.components)
        assert abs(I) / (a.length * b.length) == pytest.approx(target, rel=1e-12)


class TestSameDirectionWitnesses:
    """For n = 2 mod 4 a directional curve has every component along its
    direction, so its length is |hol| and K feeds the KVol supremum."""

    @pytest.mark.parametrize("L", [10, 20, 40])
    def test_staircase10_pair(self, L):
        S = build_staircase(10)
        phi, one = CycloReal.phi(10), F(10, 1)
        rep = K_of_directions(S, -one / phi, one / (phi * 2), L)
        assert rep.exact == phi * Fraction(8, 5) - phi**3 * Fraction(8, 25)
        assert rep.value == pytest.approx(0.8411697793906139, rel=1e-15)
        assert [I for _, _, I in rep.witnesses] == [6, 6, 6, 6]
        _assert_lengths_are_holonomies(rep, 10)
        a, b, I = rep.witnesses[0]
        assert {round(a.length, 4), round(b.length, 4)} == {2.4026, 4.3977}
        assert abs(I) / (a.length * b.length) == pytest.approx(0.56785511019508, rel=1e-12)

    def test_seeded_pairs(self):
        checked = 0
        for S in (build_staircase(10), build_staircase(14), build_ngon(10)):
            form = intersection_form(S)
            for d1, d2 in _seeded_direction_pairs(S, 8, seed=3, closing=True):
                rep = _or_unrealized(
                    lambda: K_of_directions(S, d1, d2, _unit(S) * 12, form=form)
                )
                if rep is not None and rep.witnesses:
                    _assert_lengths_are_holonomies(rep, S.n)
                    checked += 1
        assert checked >= 10


class TestClosedFormula:
    def test_peak_constants(self):
        phi8, phi12 = CycloReal.phi(8), CycloReal.phi(12)
        assert k0_constant(8) == phi8 * phi8 * 2  # 4 + 2 sqrt(2)
        assert k0_constant(12) == phi12 * phi12 * 6  # 12 + 6 sqrt(3)

    def test_peak_attained_on_imaginary_axis(self):
        rep = kvol_closed_formula(8, 1j)
        assert rep.converged
        assert abs(rep.value - float(k0_constant(8))) < 1e-9

    def test_octagon_point_value(self):
        z = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        rep = kvol_closed_formula(8, z)
        assert rep.converged
        assert abs(rep.value - 2 / math.tan(math.pi / 8)) < 1e-9

    def test_dodecagon_point_value(self):
        z = complex(math.cos(math.pi / 12), math.sin(math.pi / 12))
        rep = kvol_closed_formula(12, z)
        assert rep.converged
        # at this point the distance satisfies cosh = 2 exactly
        assert abs(math.cosh(rep.params["dist"]) - 2) < 1e-9
        assert abs(rep.value - float(k0_constant(12)) / 2) < 1e-9

    def test_witness_geodesic_realizes_distance(self):
        z = 0.35 + 0.8j
        rep = kvol_closed_formula(8, z)
        witness = rep.witnesses[0]
        assert abs(dist_to(witness.geodesic, z) - rep.params["dist"]) < 1e-9
        assert isinstance(witness.word, list)

    def test_invariant_under_deck_moves(self):
        z = 0.21 + 0.93j
        base = kvol_closed_formula(8, z)
        for word in ([("TH", 1)], [("TV", -1)], [("TH", 2), ("TV", 1)]):
            moved = kvol_closed_formula(8, apply_word(word, z, 8))
            assert abs(moved.value - base.value) < 1e-9

    def test_witness_serializes_as_its_word(self):
        z = complex(5.0, 0.01)
        rep = kvol_closed_formula(8, z)
        witness = rep.witnesses[0]
        assert isinstance(witness.geodesic, Geodesic) and witness.word
        assert rep.to_dict()["witnesses"] == [{"word": [[gen, k] for gen, k in witness.word]}]

    def test_unsupported_for_twisted_models(self):
        with pytest.raises(UnsupportedCaseError):
            kvol_closed_formula(10, 1j)
        with pytest.raises(UnsupportedCaseError):
            kvol_closed_formula(6, 1j)


class TestNgonBound:
    def test_octagon_equalities_are_the_side_pairs(self):
        rep = verify_ngon_bound(8, 3)
        assert rep.ok
        assert rep.bound == F(8, 1)
        assert len(rep.equalities) == side_pairs(8)
        assert all(is_side_pair_witness(w) for w in rep.equalities)
        assert abs(rep.max_ratio - 1) < 1e-12
        json.dumps(rep.to_dict())

    def test_decagon_strictly_below(self):
        rep = verify_ngon_bound(10, 3)
        assert rep.ok
        assert not rep.equalities
        assert rep.max_ratio < 1 - 1e-6
        assert rep.pairs_checked > 0


class TestParallelAndStaircaseBound:
    def test_parallel_curves_never_cross(self):
        S14 = build_staircase(14)
        for d in (0, "inf"):
            rep = check_parallel_criterion(S14, d, lm(14) * 6)
            assert rep.ok and rep.pairs_checked > 0
        rep8 = check_parallel_criterion(build_staircase(8), "inf", lm(8) * 6)
        assert rep8.ok and rep8.pairs_checked > 0
        json.dumps(rep8.to_dict())

    def test_crossing_pairs_match_the_float_scan(self):
        # the parallel check reads the float pass's pairs above a floor of 0;
        # on a family of many directions they are the nonzero entries of the
        # integer Gram matrix, in its order and with its Int
        S = build_staircase(8)
        form = intersection_form(S)
        curves = closed_atoms(S, enumerate_saddle_connections(S, lm(8) * 6))
        G = gram(form, curves)
        pairs = [(int(i), int(j), int(G[i, j])) for i, j in zip(*np.nonzero(np.triu(G, 1)))]
        assert len(pairs) > 100
        assert pairs == _scan_pairs(form, curves, floor=0.0).above

    def test_unrealized_direction_raises(self):
        with pytest.raises(UnrealizedDirectionError):
            check_parallel_criterion(build_staircase(8), Fraction(355, 113), lm(8) * 2)

    @pytest.mark.parametrize("n", [8, 10])
    def test_horizontal_labels_agree(self, n):
        # None once meant "no filter" here: every direction, 32 connections
        # on S_8 against 3 horizontal ones, reported as "inf"
        S = build_staircase(n)
        labels = (None, "inf", math.inf, (1, 0))
        reps = [check_parallel_criterion(S, d, lm(n) * 6) for d in labels]
        assert all(r == reps[1] for r in reps)
        assert all(r.to_dict() == reps[1].to_dict() for r in reps)
        assert reps[1].to_dict()["direction"] == "inf" and reps[1].ok
        Ks = [K_of_directions(S, d, 0, lm(n) * 8) for d in labels]
        assert all(k.exact == Ks[1].exact and k.to_dict() == Ks[1].to_dict() for k in Ks)

    def test_reports_render_labels(self, stc8):
        rep = check_parallel_criterion(stc8, (0, 1), lm(8) * 6)
        assert rep.to_dict()["direction"] == 0.0
        phi = CycloReal.phi(8)
        K = K_of_directions(stc8, (2, 2 * phi), (-1, 0), lm(8) * 6)
        assert (K.d, K.d_prime) == (F(8, 1) / phi, "inf")
        assert K.to_dict()["d"] == float(F(8, 1) / phi)
        raw = DirectionPairReport((1, 2), (3, 0), F(8, 1), 1.0, [], {})
        assert (raw.to_dict()["d"], raw.to_dict()["d_prime"]) == (0.5, "inf")
        raw = ParallelReport((F(8, 1), phi), 0, 0, 0, [])
        assert raw.to_dict()["direction"] == float(F(8, 1) / phi)
        # a co-slope renders as float(d), as it always has
        for d in (0, 3, Fraction(1, 3), 0.25, phi, F(8, -2) / phi):
            assert ParallelReport(d, 0, 0, 0, []).to_dict()["direction"] == float(d)

    def test_staircase_bound_base_and_sheared(self):
        rep = bound_4m2(10, lm(10) * 3)
        assert rep.ok
        assert rep.bound == F(10, 1) / (CycloReal.phi(10) * lm(10) * lm(10))
        tv = veech_generators(10)["TV"]
        sheared = bound_4m2(10, lm(10) * 3, M=tv)
        assert sheared.ok
        assert sheared.model == "staircase (sheared)"

    def test_shear_must_be_unimodular(self):
        bad = Mat2(10, F(10, 2), F(10, 0), F(10, 0), F(10, 1))
        with pytest.raises(ValueError):
            bound_4m2(10, 2, M=bad)

    def test_wrong_residue_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            bound_4m2(8, 2)
        with pytest.raises(UnsupportedCaseError):
            bound_4m2(12, 2)


class TestConjectureExplorer:
    def test_decagon_search(self):
        rep = explore_conjecture(10, 2)
        assert rep.equals_conjecture
        assert rep.two_side_pair_found
        assert rep.strictly_below_ngon_bound
        assert rep.best.exact_ratio == F(10, Fraction(1, 2))
        json.dumps(rep.to_dict())

    def test_wrong_residue_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            explore_conjecture(12, 2)

    def test_strictness_without_a_field_ratio_is_exact(self, monkeypatch):
        # a report with no field ratio and a float ratio of 1 - 1e-12, within
        # a float margin of the bound 1, whose witnesses' exact ratio is 1/2
        search = ratios.kvol_bruteforce

        def stub(X, L):
            rep = search(X, L)
            assert rep.exact_ratio == F(10, Fraction(1, 2))
            value = (1.0 - 1e-12) * float(X.area())
            return dataclasses.replace(rep, value=value, exact_ratio=None, exact_value=None)

        monkeypatch.setattr(ratios, "kvol_bruteforce", stub)
        rep = explore_conjecture(10, 2)
        assert rep.best.value / float(build_ngon(10).area()) > 1.0 - 1e-9
        assert rep.strictly_below_ngon_bound


def _chart_sine(Ci, d1, d2):
    """Sine of the angle between two direction labels in the polygon chart."""

    def vec(d):
        if d == "inf":
            return (1.0, 0.0)
        return (-float(d), 1.0)

    (a, b), (c, dd) = Ci.as_floats()
    (x1, y1), (x2, y2) = (
        (a * v[0] + b * v[1], c * v[0] + dd * v[1]) for v in (vec(d1), vec(d2))
    )
    return abs(x1 * y2 - x2 * y1) / math.hypot(x1, y1) / math.hypot(x2, y2)


class TestDirectionalInvariants:
    def test_sine_weighted_supremum(self, stc8, stc8_form, stc8_slopes):
        """K(d, d') sin theta(d, d') is maximized by the distinguished pair."""
        Ci = conversion_matrix(8).inverse()
        phi = CycloReal.phi(8)
        sigma = F(8, 1) / phi
        L = lm(8) * 8
        top = K_of_directions(stc8, "inf", sigma, L, form=stc8_form)
        anchor_sine = _chart_sine(Ci, "inf", sigma)
        assert abs(anchor_sine - 1 / math.sqrt(2)) < 1e-12
        sup = float(top.exact) * anchor_sine
        rng = random.Random(7)
        pairs = list(itertools.combinations(range(len(stc8_slopes)), 2))
        rng.shuffle(pairs)
        checked = equalities = 0
        for i, j in pairs:
            if checked >= 20:
                break
            d1, d2 = stc8_slopes[i], stc8_slopes[j]
            try:
                K = K_of_directions(stc8, d1, d2, L, form=stc8_form)
            except (UnrealizedDirectionError, ValueError):
                continue
            checked += 1
            product = float(K.exact) * _chart_sine(Ci, d1, d2)
            assert product <= sup + 1e-9, (d1, d2, product, sup)
            if abs(product - sup) <= 1e-9:
                equalities += 1
        assert checked == 20
        assert equalities >= 1

    def test_realized_constants_trichotomy(self, stc8, stc8_form, stc8_slopes):
        """Every realized K(d, d') equals v1, equals v2, or lies below v2."""
        phi = CycloReal.phi(8)
        one = F(8, 1)
        v1 = one / (phi * lm(8) * lm(8))
        v2 = one / ((phi**3 - phi * 2) * lm(8) * lm(8))
        L = lm(8) * 8
        explicit = [
            ("inf", one / phi),
            ("inf", (phi * phi - one) / (phi**3 - phi * 2)),
        ]
        rng = random.Random(11)
        pairs = list(itertools.combinations(range(len(stc8_slopes)), 2))
        rng.shuffle(pairs)
        sampled = [(stc8_slopes[i], stc8_slopes[j]) for i, j in pairs]
        at_v1 = at_v2 = below = 0
        checked = 0
        for d1, d2 in explicit + sampled:
            if checked >= 16:
                break
            try:
                K = K_of_directions(stc8, d1, d2, L, form=stc8_form)
            except (UnrealizedDirectionError, ValueError):
                continue
            checked += 1
            if K.exact == v1:
                at_v1 += 1
            elif K.exact == v2:
                at_v2 += 1
            else:
                assert (v2 - K.exact).sign() > 0, (d1, d2, float(K.exact))
                below += 1
        assert at_v1 >= 1 and at_v2 >= 1 and below >= 1
