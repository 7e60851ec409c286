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
    _flow,
    build_ngon,
    build_staircase,
    conversion_matrix,
    cylinder_decomposition,
    direction_vector,
    staircase_lengths,
    veech_generators,
)

import intersect_oracle as oracle
from intersect_oracle import exit_through_face, intersect, trace_from_corner
from ngon_sectors import _point_at_level, sector_diagram, sector_index


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


_STAIRCASE_DIGESTS = {
        8: "69341491cc900eb47f68790ea50435035750277566eb4806680e9cebb9a98f65",
        10: "c98721bbd8383741e3b662f062fa50ed80fc037e710287d2bab12ad57d94ec82",
        12: "7180dd6dda82054dc06ba09d8fdda2d3af0e064ebcf741cdda9a9b7b6e260942",
        14: "cd6df34e34860a4f2bb083a63862b32507d148bb93e4f450a33cbf5bccb4d5d6",
        16: "6b9c1a58cc2d87404fff9650849370a614a63e3640af6f7016e970324c90b903",
        18: "2bd30b9b4291c6e5463e15ea2a466fdec86db996a6d53276e56458ee5cfbc947",
        20: "e6c3c73e6e1bdeea04df5e8735420c1de32fa63e1ed1d5d2a2d7afba93a41cd5",
        22: "ab0596866acdf60d98cb99a33f0e65dd0b8cedb944c8325c4308ef18af379e91",
        24: "a1078d8a31f33528d7244f5189654104917af791ac46c8760606ed7c13fa4e63",
        26: "875862f885b3f97f50e4675b65145067574c4973fa7204ca44ac953156f238a7",
        28: "230c3108fd6fe58cd7a3bfe0089f090a6bb83c5d2f71c54c5e17580a9d3c4915",
        30: "e766416d75f1a5034ad2768e2c98894919d742f4e029015bf3ba1ab5d072d185",
        32: "b5ff5cd43c6e9fe902e3196e4b819896267cd2c25417586e5330c03dcf028709",
        34: "f3d082c9dfd4ab62320b9943d2e28db1a5f6fa1e87f6193071fb071bd4095ad0",
        36: "d315ed94012bd07fb2a4ba40027baafe1b2a94c5968732959d6a52ca7200c5e1",
        38: "d0b345fd6799d7a1039d8f746bdba3de295d2bb9f25ee8c52d1c72598eb3d7d0",
        40: "3e9cd50d5f27d0a858cb2b0467456f0f05fd6afebee2e002fd2800810bb14bdc",
        42: "2347552f35d99f1ad8645c0a41dc96de2d0589164d2cf0321b7b9bd07c1b91e1",
        44: "e72449f7bb784b10d4f774d411da2e85ae145b9878056c12bac7da50013c89a3",
        46: "2d848bf322057ee830737e0da5bfcbfba856f886488309385bc3202f6970b771",
        48: "c3ace5132fa54d1c1982cc2a8e473b6e6154cfc6b2a85cc6c770b5a4707e644b",
        50: "ec8db67324f08e117f1e9b4ec352a5fb40a037fffa7231a68f8832b611b70e10",
        52: "2f69cd572701bce1fbd30645c8258d2f68cb1e5456acd2ae09c30278a1c0d963",
        54: "9286a666a024f3859571d59f3706c75feca73099d79d2e1bfaccdcdf6fd72932",
        56: "653791a4691102a2ca69eaeba2fef9d9b056f097b2cec2257b79855fe0b57c86",
        58: "dfc502d034aabe5b2de155b33ef42fed63ade25f2efe8688484d2ac6cb3fd38e",
        60: "83578e9accbac47fa8862f6cdc15e05b25618a695e3bdc6921f78722860b6f18",
        62: "a93e28f4883e0a09f254ce4417f45e6f83dc180878b397434d11f709ff5874b7",
        64: "20856303db190309301677348f7d249c38951713e1e616371fb39748cab93f7c",
        66: "c0f8fbcfac0a9fb5b8878243e922f2227fe5dd668c59f0330c5395acdb13dc07",
}


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

    def test_every_staircase_pinned(self):
        # sha256 of json.dumps(build_staircase(n).to_dict()) for every even
        # n from 8 to 66, both residues of n mod 4
        for n, digest in _STAIRCASE_DIGESTS.items():
            dump = json.dumps(build_staircase(n).to_dict())
            assert hashlib.sha256(dump.encode()).hexdigest() == digest, n

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


def _pinned_directions():
    """(name, surface, direction) over the cases of test_pinned_decompositions:
    the shortest saddle connection of length <= 2 in each direction."""
    shear = Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40))
    surfaces = [(f"S{n}", build_staircase(n)) for n in (8, 10, 12)]
    surfaces += [(f"X{n}", build_ngon(n)) for n in (8, 10, 12)]
    surfaces += [("sheared S8", build_staircase(8).transform(shear))]
    for name, S in surfaces:
        directions = []
        for sc in enumerate_saddle_connections(S, 2):
            if not any(parallel(sc.holonomy, d) for d in directions):
                directions.append(sc.holonomy)
        for d in directions:
            yield name, S, d


def _chord_midpoint(S, f, v, c):
    """The midpoint of face f's chord at level c, a level strictly between
    the face's vertex levels and equal to none."""
    verts = S.faces[f]
    k = len(verts)
    lv = [cross(v, w) for w in verts]
    ends = [
        _point_at_level(verts[i], verts[(i + 1) % k], lv[i], lv[(i + 1) % k], c)
        for i in range(k)
        if (lv[i] < c) != (lv[(i + 1) % k] < c)
    ]
    x, y = vadd(*ends)
    return (x / 2, y / 2)


class TestCylinders:
    def test_pinned_decompositions(self):
        records = []
        for name, S, d in _pinned_directions():
            cyls = cylinder_decomposition(S, d)
            assert sum((c.area for c in cyls), F(S.n, 0)) == S.area()
            assert all(c.n_polygons == len(c.core_word) for c in cyls)
            records.append(json.dumps([name, [_cylinder_fields(c) for c in cyls]]))
        assert len(records) == 112
        digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
        assert digest == PINNED_DECOMPOSITIONS

    def test_level_walk_matches_point_flow(self):
        # the point tracer kept with the tests finds each exit from the
        # points it builds, and each level here is cross(v, p_in) of its
        # entry point, independent of the walk's running sum
        walks = leaves = 0
        for _name, S, d in _pinned_directions():
            v = direction_vector(S.n, d)
            levels = {f: [cross(v, w) for w in verts] for f, verts in enumerate(S.faces)}
            singular = [set(ls) for ls in levels.values()]
            for f, verts in enumerate(S.faces):
                for vi in range(len(verts)):
                    if not S.direction_in_wedge(f, vi, v):
                        continue
                    walk = list(_flow(S, f, cross(v, verts[vi]), v, math.inf, levels, vi))
                    flow = oracle.point_flow(S, f, verts[vi], v, math.inf)
                    assert walk == [(g, info, cross(v, p)) for g, p, _q, info, _l in flow]
                    for g, _info, lp in walk:
                        singular[g].add(lp)
                    walks += 1
            for f, ls in enumerate(singular):
                ls = sorted(ls)
                for lo, hi in zip(ls, ls[1:]):
                    c = (lo + hi) / 2
                    walk = _flow(S, f, c, v, math.inf, levels)
                    flow = oracle.point_flow(S, f, _chord_midpoint(S, f, v, c), v, math.inf)
                    for step, (got, (g, p, _q, info, _l)) in enumerate(zip(walk, flow)):
                        assert got == (g, info, cross(v, p))
                        if step and got[0] == f and got[2] == c:
                            break  # the leaf closed
                    else:
                        raise AssertionError("leaf did not close")
                    leaves += 1
        assert walks > 300 and leaves > 300, (walks, leaves)

    def test_inverses_only_for_reported_fields(self, monkeypatch):
        # the walk divides nowhere; a decomposition inverts only for its
        # leaves' mid-levels and its reported fields.  The exit-point tracer
        # made one inverse per edge step: 776 in this direction
        S = build_staircase(8)
        d = -1 / (126 * CycloReal.phi(8))
        calls = [0]
        inverse = CycloReal.inverse

        def counted(x):
            calls[0] += 1
            return inverse(x)

        v = direction_vector(8, d)
        levels = {f: [cross(v, w) for w in verts] for f, verts in enumerate(S.faces)}
        monkeypatch.setattr(CycloReal, "inverse", counted)
        steps = 0
        for f, verts in enumerate(S.faces):
            for vi in range(len(verts)):
                if S.direction_in_wedge(f, vi, v):
                    steps += len(list(_flow(S, f, levels[f][vi], v, math.inf, levels, vi)))
        assert steps > 100 and calls[0] == 0
        cyls = cylinder_decomposition(S, d)
        assert 0 < calls[0] <= 4 * len(cyls)

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

    def test_length_budget_follows_the_exact_trace(self):
        # the walk keeps its length in floats; it gives up at the budget that
        # the exact points of the same separatrices reach at an edge exit
        S = build_staircase(8)
        d = -1 / (16 * CycloReal.phi(8))
        v = direction_vector(8, d)
        reached = 0.0
        for f, verts in enumerate(S.faces):
            for vi in range(len(verts)):
                if S.direction_in_wedge(f, vi, v):
                    travelled = 0.0
                    for _g, p, q, info, _l in oracle.point_flow(S, f, verts[vi], v, math.inf):
                        travelled += math.hypot(*map(float, (q[0] - p[0], q[1] - p[1])))
                        if info[0] == "edge":
                            reached = max(reached, travelled)
        assert reached > 10
        with pytest.raises(NonPeriodicDirectionError, match="exceeded length"):
            cylinder_decomposition(S, d, max_length=reached * (1 - 1e-9))
        assert len(cylinder_decomposition(S, d, max_length=reached * (1 + 1e-9))) == 2

    def test_nonperiodic_direction_raises(self):
        S = build_staircase(8)
        # co-slope 1 is not a periodic direction on the octagon staircase
        with pytest.raises(NonPeriodicDirectionError):
            cylinder_decomposition(S, 1, max_length=200.0)

    @pytest.mark.parametrize("direction", [0, 1])
    @pytest.mark.parametrize("max_length", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_budget_that_ends_no_trace_refused(self, direction, max_length):
        # an infinite or NaN budget would run each separatrix in the
        # non-periodic co-slope 1 to the step budget, and a non-positive one
        # would give up in the periodic horizontal direction too
        S = build_staircase(8)
        with pytest.raises(ValueError, match="finite and positive"):
            cylinder_decomposition(S, direction, max_length=max_length)


def _point(p) -> list:
    return [p[0].to_dict(), p[1].to_dict()]


# SHA-256 of the traces, intersection reports and sector orders over the cases
# of test_pinned_traces, as computed by the earlier tracer that solved a
# parametric line intersection against every face edge and filtered piece
# pairs by float bounding boxes; the floats of the points re-pinned when
# ``float`` became the correctly rounded table conversion, the rest unchanged
PINNED_TRACES = "e036c40084724c8847a004ee9be8cde915e39a1d2a93686d487309a185d8434d"


class TestTracing:
    def test_pinned_traces(self):
        shear = Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40))
        surfaces = [(f"S{n}", build_staircase(n)) for n in (8, 10)]
        surfaces += [("sheared S8", build_staircase(8).transform(shear))]
        records = []
        for name, S in surfaces:
            scs = enumerate_saddle_connections(S, 1.6)
            for sc in scs:
                pieces = [[f, _point(p), _point(q)] for f, p, q in oracle.pieces(sc)]
                crossings = [[pid, list(h), _point(dev)] for pid, h, dev in oracle.crossings(sc)]
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
        assert any(oracle.crossings(sc) for sc in scs)
        for sc in scs:
            calls.clear()
            oracle.pieces(sc)
            assert len(calls) <= len(oracle.crossings(sc))

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
