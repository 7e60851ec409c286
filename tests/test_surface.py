"""Tests for the polygon models, gluing combinatorics, tracing and cylinders."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import pytest

from kvol.field import CycloReal, trig_value
from kvol.intersect import intersect
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


def _float_cone_multiples(S) -> list:
    # each class's angle sum from float atan2 corner angles, an independent
    # reading of the exact count of wedges that hold (1, 0)
    out = []
    for cyc in S.vertex_classes:
        total = 0.0
        for f, v in cyc:
            ra, rb = S.wedge_rays(f, v)
            angle = math.atan2(float(cross(ra, rb)), float(dot(ra, rb)))
            total += angle if angle > 0 else angle + 2 * math.pi
        k = round(total / (2 * math.pi))
        assert abs(total - 2 * math.pi * k) < 1e-9
        out.append(k)
    return out


class TestConeAngles:
    @pytest.mark.parametrize(
        "model, n",
        [("ngon", n) for n in range(4, 21, 2)] + [("staircase", n) for n in range(8, 21, 2)],
    )
    def test_cone_multiples_under_maps(self, model, n):
        S = build_ngon(n) if model == "ngon" else build_staircase(n)
        maps = [
            Mat2(n, 1, Fraction(13, 37), 0, Fraction(31, 40)),  # shear
            Mat2(n, 0, -1, 1, 0),  # rotation by 90 degrees
            Mat2(n, Fraction(3, 2), 1, Fraction(1, 3), -1),  # det < 0
        ]
        assert S.cone_multiples == _float_cone_multiples(S)
        for M in maps:
            T = S.transform(M)
            assert T.cone_multiples == _float_cone_multiples(T)
            assert sorted(T.cone_multiples) == sorted(S.cone_multiples)


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

    def test_multiplication_count(self, monkeypatch):
        # a traced line takes its level from the flow, one cross product per
        # line: 21 decompositions of X_14 cost 7,014 multiplications when
        # every step took cross(v, p) again
        S = build_ngon(14)
        directions = []
        for sc in enumerate_saddle_connections(S, 3):
            if not any(parallel(sc.holonomy, d) for d in directions):
                directions.append(sc.holonomy)
        assert len(directions) >= 21
        calls = [0]
        mul = CycloReal.__mul__

        def counting(self, other):
            calls[0] += 1
            return mul(self, other)

        monkeypatch.setattr(CycloReal, "__mul__", counting)
        monkeypatch.setattr(CycloReal, "__rmul__", counting)
        for d in directions[:21]:
            cylinder_decomposition(S, d)
        assert calls[0] <= 5500

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


def _point(p) -> list:
    return [p[0].to_dict(), p[1].to_dict()]


# SHA-256 of the traces, intersection reports and sector orders over the cases
# of test_pinned_traces, as computed by the earlier tracer that solved a
# parametric line intersection against every face edge and filtered piece
# pairs by float bounding boxes
PINNED_TRACES = "f0596b6e36b14b1da93b22c26bca881dda6066a425a10ef1aa65f5d9bcc71c83"


class TestTracing:
    def test_pinned_traces(self):
        shear = Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40))
        surfaces = [(f"S{n}", build_staircase(n)) for n in (8, 10)]
        surfaces += [("sheared S8", build_staircase(8).transform(shear))]
        records = []
        for name, S in surfaces:
            scs = enumerate_saddle_connections(S, 1.6)
            for sc in scs:
                pieces = [[f, _point(p), _point(q)] for f, p, q in sc.pieces]
                crossings = [[pid, list(h), _point(dev)] for pid, h, dev in sc.crossings]
                records.append(json.dumps([name, pieces, crossings]))
            closed = [sc for sc in scs if sc.start.class_id == sc.end.class_id][:20]
            for i, a in enumerate(closed):
                for b in closed[i + 1 :]:
                    records.append(json.dumps([name, intersect(a, b).to_dict()]))
        for n in (8, 10, 12):
            records.append(json.dumps([n, [sector_diagram(n, i).order for i in range(n)]]))
        assert len(records) == 437
        digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
        assert digest == PINNED_TRACES

    def test_inverse_budget(self, monkeypatch):
        # an exit decided by signs divides once at an edge and never at a vertex
        S = build_staircase(8)
        scs = enumerate_saddle_connections(S, 2.5)
        calls = []
        inverse = CycloReal.inverse

        def counted(x):
            calls.append(x)
            return inverse(x)

        monkeypatch.setattr(CycloReal, "inverse", counted)
        for f, verts in enumerate(S.faces):
            k = len(verts)
            for vi in range(k):
                # along the boundary to the next corner, flat ones included
                q, info = exit_through_face(S, f, verts[vi], S.edge_vector((f, vi)))
                assert (q, info) == (verts[(vi + 1) % k], ("vertex", (vi + 1) % k))
        assert not calls
        square = build_ngon(4)
        origin = (F(4, 0), F(4, 0))
        calls.clear()
        assert exit_through_face(square, 0, origin, (F(4, 1), F(4, 1)))[1][0] == "vertex"
        assert not calls
        assert exit_through_face(square, 0, origin, (F(4, 1), F(4, 2)))[1][0] == "edge"
        assert len(calls) == 1
        assert any(sc.crossings for sc in scs)
        for sc in scs:
            calls.clear()
            sc.pieces
            assert len(calls) <= len(sc.crossings)

    def test_step_multiplications(self, monkeypatch):
        # vertex levels cross(v, w) are taken once per face a trace enters;
        # an edge step then costs the level cross(v, p) (2 products), the
        # exit numerator (2), the division (1) and p + t v (2)
        cases = [(build_ngon(16), 5), (build_staircase(8), 4)]
        calls = []
        mul = CycloReal.__mul__

        def counted(x, y):
            calls.append(x)
            return mul(x, y)

        steps = 0
        for S, L in cases:
            for sc in enumerate_saddle_connections(S, L):
                (f, vi), _exits, _last = sc.path
                calls.clear()
                monkeypatch.setattr(CycloReal, "__mul__", counted)
                monkeypatch.setattr(CycloReal, "__rmul__", counted)
                tr = trace_from_corner(S, f, vi, sc.holonomy, max_length=math.inf)
                monkeypatch.undo()
                faces = {g for g, _p, _q in tr.pieces}
                levels = 2 * sum(len(S.faces[g]) for g in faces)
                # plus the last step's level, and dot(w - p, v) for each
                # vertex on the line: at most three in these faces
                assert len(calls) <= levels + 7 * len(tr.crossings) + 2 + 2 * 3
                steps += len(tr.crossings)
        assert steps > 100

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

    @pytest.mark.parametrize("name", ["S8", "S10", "X10"])
    def test_det_positive_keeps_the_combinatorics(self, name):
        """The image under a map with det > 0 equals, attribute for attribute
        and in dict order, the surface the validating constructor builds from
        the same mapped faces."""
        S = {"S8": build_staircase(8), "S10": build_staircase(10), "X10": build_ngon(10)}[name]
        n = S.n
        maps = [
            Mat2(n, 1, Fraction(1, 7), 0, Fraction(2, 5)),  # a brute-force point's shear
            Mat2(n, 0, -1, 1, 0),  # rotation by 90 degrees
            veech_generators(8)["TH"] if n == 8 else veech_generators(10)["TV"],
        ]
        labels = {h: S.pair_labels[pid] for h, pid in S.pair_of.items()}

        def fields(X):
            return {k: list(v.items()) if isinstance(v, dict) else v for k, v in vars(X).items()}

        for M in maps:
            faces = [[M.apply(p) for p in verts] for verts in S.faces]
            built = TranslationSurface(n, S.model, faces, S.glue, labels)
            assert fields(S.transform(M)) == fields(built)

    def test_det_negative_builds_through_the_constructor(self, monkeypatch):
        S = build_staircase(8)
        calls = []
        validate = TranslationSurface._validate_faces

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(TranslationSurface, "_validate_faces", counted)
        S.transform(Mat2(8, 1, Fraction(1, 7), 0, Fraction(2, 5)))
        assert calls == []
        T = S.transform(Mat2(8, -1, 0, 0, 1))
        assert calls == [T]

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
