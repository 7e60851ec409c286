"""Tests for the polygon models, gluing combinatorics, tracing and cylinders."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import pytest

from kvol.field import CycloReal, trig_value
from kvol.plane import Mat2, cross, dot, norm2, parallel, vadd, vneg
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import (
    NonPeriodicDirectionError,
    SurfaceError,
    TranslationSurface,
    build_ngon,
    build_staircase,
    conversion_matrix,
    cylinder_decomposition,
    direction_vector,
    exit_through_face,
    sector_diagram,
    sector_index,
    staircase_lengths,
    trace_from_corner,
    veech_generators,
)


def F(n, v):
    return CycloReal.from_rational(n, v)


def ngon_area(n):
    # n/4 * cot(pi/n), the area of the regular n-gon with unit sides
    return F(n, n) / 4 * trig_value(n, "cos", 1) / trig_value(n, "sin", 1)


class TestNgonModel:
    def test_square_torus(self):
        S = build_ngon(4)
        assert len(S.faces) == 1
        assert len(S.edge_pairs) == 2
        assert S.genus == 1
        assert S.cone_multiples == [1]
        assert S.area() == F(4, 1)

    def test_octagon_combinatorics(self):
        S = build_ngon(8)
        assert S.genus == 2
        assert S.cone_multiples == [3]
        assert len(S.vertex_classes[0]) == 8
        assert S.pair_labels == ["e1", "e2", "e3", "e0"]

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_unit_sides_and_area(self, n):
        S = build_ngon(n)
        for f, verts in enumerate(S.faces):
            for e in range(len(verts)):
                assert norm2(S.edge_vector((f, e))) == F(n, 1)
        assert S.area() == ngon_area(n)

    @pytest.mark.parametrize(
        "n,multiples,genus",
        [(8, [3], 2), (10, [2, 2], 2), (12, [5], 3), (14, [3, 3], 3)],
    )
    def test_singularities(self, n, multiples, genus):
        S = build_ngon(n)
        assert sorted(S.cone_multiples) == multiples
        assert S.genus == genus

    def test_rejects_odd(self):
        with pytest.raises(SurfaceError):
            build_ngon(7)


class TestStaircaseModel:
    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16, 18])
    def test_area_matches_scaled_ngon(self, n):
        S = build_staircase(n)
        assert S.area() == trig_value(n, "sin", 1) * ngon_area(n)

    @pytest.mark.parametrize(
        "n,multiples,genus",
        [(8, [3], 2), (10, [2, 2], 2), (12, [5], 3), (14, [3, 3], 3)],
    )
    def test_singularities(self, n, multiples, genus):
        S = build_staircase(n)
        assert sorted(S.cone_multiples) == multiples
        assert S.genus == genus

    def test_octagon_lengths(self):
        widths, heights = staircase_lengths(8)
        assert widths == [trig_value(8, "sin", 3), trig_value(8, "sin", 1)]
        assert heights == [F(8, 1), trig_value(8, "sin", 2)]

    def test_decagon_lengths(self):
        widths, heights = staircase_lengths(10)
        assert widths == [
            F(10, 1),
            trig_value(10, "sin", 3),
            trig_value(10, "sin", 1),
        ]
        assert heights == [trig_value(10, "sin", 4), trig_value(10, "sin", 2)]

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_length_identities_mod0(self, n):
        phi = CycloReal.phi(n)
        widths, heights = staircase_lengths(n)
        lm = widths[-1]
        assert lm == trig_value(n, "sin", 1)
        assert heights[-1] == phi * lm
        assert widths[-2] == (phi * phi - 1) * lm
        if len(heights) >= 2:
            assert heights[-2] == (phi ** 3 - 2 * phi) * lm

    @pytest.mark.parametrize("n", [10, 14, 18])
    def test_length_identities_mod2(self, n):
        phi = CycloReal.phi(n)
        widths, heights = staircase_lengths(n)
        lm = widths[-1]
        assert lm == trig_value(n, "sin", 1)
        assert heights[-1] == phi * lm
        assert widths[-2] == (phi * phi - 1) * lm
        if len(heights) >= 2:
            assert heights[-2] == (phi ** 3 - 2 * phi) * lm

    def test_rejects_small_or_odd(self):
        for bad in (4, 6, 7, 9):
            with pytest.raises(SurfaceError):
                build_staircase(bad)

    def test_serialization_round_trip(self):
        S = build_staircase(10)
        T = TranslationSurface.from_dict(S.to_dict())
        assert T.faces == S.faces
        assert T.edge_pairs == S.edge_pairs
        assert T.pair_labels == S.pair_labels
        assert T.genus == S.genus


class TestWedges:
    @pytest.mark.parametrize(
        "model,n",
        [("ngon", 8), ("ngon", 10), ("ngon", 12)] + [("staircase", n) for n in (8, 10, 12, 14)],
    )
    def test_direction_in_wedge(self, model, n):
        S = build_ngon(n) if model == "ngon" else build_staircase(n)
        flat = 0
        for f, verts in enumerate(S.faces):
            for v in range(len(verts)):
                ra, rb = S.wedge_rays(f, v)
                # the inward normal of the outgoing edge is inside an obtuse or
                # flat corner and runs along rb at a right angle
                normal = (-ra[1], ra[0])
                assert S.direction_in_wedge(f, v, normal) == (dot(ra, rb).sign() < 0)
                for ray in (ra, rb, vneg(ra), vneg(rb)):
                    assert not S.direction_in_wedge(f, v, ray)
                if cross(ra, rb).is_zero():
                    flat += 1
                else:
                    assert S.direction_in_wedge(f, v, vadd(ra, rb))
        assert (flat > 0) == (model == "staircase")


def _cylinder_fields(c) -> list:
    d = CycloReal.to_dict
    return [
        [d(c.direction[0]), d(c.direction[1])],
        d(c.area),
        d(c.circumference_sq),
        d(c.height_sq),
        d(c.modulus),
        list(c.core_word),
        c.n_polygons,
    ]


# SHA-256 of every Cylinder field over the cases of test_pinned_decompositions,
# as computed by the earlier decomposition that clipped faces into slab
# polygons and merged them by union-find
PINNED_DECOMPOSITIONS = "d293dd85bbe6832b5503656a97eae66ec081d0e9efff8ca9c308f71f1c1d385b"


class TestCylinders:
    def test_pinned_decompositions(self):
        shear = Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40))
        surfaces = [(f"S{n}", build_staircase(n)) for n in (8, 10, 12)]
        surfaces += [(f"X{n}", build_ngon(n)) for n in (8, 10, 12)]
        surfaces += [("sheared S8", build_staircase(8).transform(shear))]
        records = []
        for name, S in surfaces:
            # the shortest saddle connection of length <= 2 in each direction
            directions = []
            for sc in enumerate_saddle_connections(S, 2):
                if not any(parallel(sc.holonomy, d) for d in directions):
                    directions.append(sc.holonomy)
            for d in directions:
                cyls = cylinder_decomposition(S, d)
                assert sum((c.area for c in cyls), F(S.n, 0)) == S.area()
                assert all(c.n_polygons == len(c.core_word) for c in cyls)
                records.append(json.dumps([name, [_cylinder_fields(c) for c in cyls]]))
        assert len(records) == 112
        digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
        assert digest == PINNED_DECOMPOSITIONS

    def test_torus(self):
        S = build_ngon(4)
        for direction in (None, 0):
            cyls = cylinder_decomposition(S, direction)
            assert len(cyls) == 1
            assert cyls[0].modulus == F(4, 1)
            assert cyls[0].circumference_sq == F(4, 1)
            assert cyls[0].area == F(4, 1)
        diag = cylinder_decomposition(S, 1)  # co-slope 1: vector (1, 1)
        assert len(diag) == 1
        assert diag[0].circumference_sq == F(4, 2)

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_moduli_and_exceptional_placement(self, n):
        S = build_staircase(n)
        phi = CycloReal.phi(n)
        widths, heights = staircase_lengths(n)
        horizontal = cylinder_decomposition(S, None)
        vertical = cylinder_decomposition(S, 0)
        assert len(horizontal) == len(heights)
        assert len(vertical) == len(widths)
        if n % 4 == 0:
            # the top-row cylinder (through b1) has modulus Phi/2, others Phi
            for cyl in horizontal:
                expected = phi / 2 if "b1" in cyl.core_word else phi
                assert cyl.modulus == expected
            assert sum("b1" in c.core_word for c in horizontal) == 1
            for cyl in vertical:
                assert cyl.modulus == phi
        else:
            # the leftmost column (through a1) has modulus Phi/2, others Phi
            for cyl in horizontal:
                assert cyl.modulus == phi
            for cyl in vertical:
                expected = phi / 2 if "a1" in cyl.core_word else phi
                assert cyl.modulus == expected
            assert sum("a1" in c.core_word for c in vertical) == 1

    def test_octagon_rows_exact(self):
        S = build_staircase(8)
        w1, w2 = staircase_lengths(8)[0]
        rows = cylinder_decomposition(S, None)
        circs = sorted([c.circumference_sq for c in rows], key=float)
        assert circs == [w1 * w1, (w1 + w2) * (w1 + w2)]
        total = sum((c.area for c in rows), F(8, 0))
        assert total == S.area()
        words = {c.core_word for c in rows}
        assert words == {("b1",), ("b2", "c1")}

    @pytest.mark.parametrize("n", [8, 10])
    def test_conversion_matrix_carries_ngon_to_staircase(self, n):
        P = conversion_matrix(n)
        assert P.det() == trig_value(n, "sin", 1)
        sheared = build_ngon(n).transform(P)
        stair = build_staircase(n)
        assert sheared.area() == stair.area()
        for direction in (None, 0):
            a = cylinder_decomposition(sheared, direction)
            b = cylinder_decomposition(stair, direction)
            key = lambda c: (float(c.modulus), float(c.area), float(c.circumference_sq))
            for ca, cb in zip(sorted(a, key=key), sorted(b, key=key)):
                assert ca.modulus == cb.modulus
                assert ca.area == cb.area
                assert ca.circumference_sq == cb.circumference_sq

    def test_nonperiodic_direction_raises(self):
        S = build_staircase(8)
        # co-slope 1 is not a periodic direction on the octagon staircase
        with pytest.raises(NonPeriodicDirectionError):
            cylinder_decomposition(S, 1, max_length=200.0)


class TestTracing:
    def test_exit_through_square(self):
        S = build_ngon(4)
        p = (F(4, 0), F(4, 0))
        q, info = exit_through_face(S, 0, p, (F(4, 1), F(4, 2)))
        assert info[0] == "edge" and info[1] == (0, 2)
        assert q == (F(4, 1) / 4, F(4, 1) / 2)

    def test_trace_diagonal(self):
        S = build_ngon(4)
        tr = trace_from_corner(S, 0, 0, (F(4, 1), F(4, 1)), max_length=10.0)
        assert tr.end == ("vertex", (0, 2))
        assert len(tr.pieces) == 1
        assert not tr.crossings

    def test_trace_two_to_one(self):
        S = build_ngon(4)
        tr = trace_from_corner(S, 0, 0, (F(4, 2), F(4, 1)), max_length=10.0)
        assert tr.end == ("vertex", (0, 2))
        assert len(tr.pieces) == 2
        assert len(tr.crossings) == 1
        pid, half, dev = tr.crossings[0]
        assert half == (0, 1)
        assert dev == (F(4, 1), F(4, 1) / 2)

    def test_nonclosing_budget(self):
        S = build_ngon(4)
        with pytest.raises(NonPeriodicDirectionError):
            trace_from_corner(S, 0, 0, (F(4, 7), F(4, 5)), max_length=2.0)


class TestSectors:
    def test_sector_index_boundaries(self):
        n = 8
        assert sector_index(n, (F(n, 1), F(n, 0))) is None
        assert sector_index(n, (trig_value(n, "cos", 3), trig_value(n, "sin", 3))) is None

    def test_sector_index_interior(self):
        n = 8
        d = (
            trig_value(n, "cos", 0) + trig_value(n, "cos", 1),
            trig_value(n, "sin", 0) + trig_value(n, "sin", 1),
        )
        assert sector_index(n, d) == 0
        assert sector_index(n, (-d[0], -d[1])) == 0  # directions are mod pi

    def test_octagon_sector0(self):
        diag = sector_diagram(8, 0)
        assert diag.order == (1, 2, 0, 3)
        assert diag.sandwiched == 1

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_all_sectors_are_terminal_loop_paths(self, n):
        for i in range(n):
            diag = sector_diagram(n, i)
            assert sorted(diag.order) == list(range(n // 2))


class TestTransforms:
    def test_shear_preserves_structure(self):
        S = build_staircase(8)
        gens = veech_generators(8)
        T = S.transform(gens["TH"])
        assert T.area() == S.area()
        assert T.cone_multiples == S.cone_multiples
        assert T.pair_labels == S.pair_labels

    def test_reflection(self):
        S = build_staircase(10)
        T = S.transform(veech_generators(10)["R"])
        assert T.area() == S.area()
        assert sorted(T.cone_multiples) == sorted(S.cone_multiples)

    def test_singular_matrix_rejected(self):
        S = build_ngon(8)
        with pytest.raises(ValueError):
            S.transform(Mat2(8, 1, 1, 1, 1))

    def test_direction_vector_forms(self):
        n = 8
        assert direction_vector(n, None) == (F(n, 1), F(n, 0))
        assert direction_vector(n, "inf") == (F(n, 1), F(n, 0))
        assert direction_vector(n, math.inf) == (F(n, 1), F(n, 0))
        phi = CycloReal.phi(n)
        assert direction_vector(n, phi) == (phi, F(n, 1))
        assert direction_vector(n, 0) == (F(n, 0), F(n, 1))
        assert direction_vector(n, (phi, -1)) == (phi, F(n, -1))
        for bad in ((0, 0), "horizontal"):
            with pytest.raises(ValueError):
                direction_vector(n, bad)
