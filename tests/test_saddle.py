"""Tests for saddle-connection enumeration against independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from kvol.field import CycloReal
from kvol.intersect import intersection_form
from kvol.plane import Mat2, norm2, vadd, vfloat, vsub
from kvol.saddle import SaddleConnection, edge_connection, enumerate_saddle_connections
from kvol.surface import (
    build_ngon,
    build_staircase,
    conversion_matrix,
    staircase_lengths,
    subdivide,
    veech_generators,
)


def F(n, v):
    return CycloReal.from_rational(n, v)


def hol_set(scs):
    return {sc.holonomy for sc in scs}


def length_sq_multiset(scs):
    return sorted((sc.length_sq for sc in scs), key=float)


class TestTorusOracle:
    def test_primitive_vectors_up_to_five(self):
        S = build_ngon(4)
        scs = enumerate_saddle_connections(S, 5)
        got = set()
        for sc in scs:
            x, y = sc.holonomy
            assert x.is_rational() and y.is_rational()
            got.add((Fraction(float(x)), Fraction(float(y))))
        expected = set()
        for p in range(-5, 6):
            for q in range(0, 6):
                if p * p + q * q > 25 or (p, q) == (0, 0):
                    continue
                if q == 0 and p <= 0:
                    continue
                if math.gcd(abs(p), abs(q)) != 1:
                    continue
                expected.add((Fraction(p), Fraction(q)))
        assert got == expected

    def test_edges_at_length_one(self):
        S = build_ngon(4)
        scs = enumerate_saddle_connections(S, 1)
        assert len(scs) == 2
        assert all(sc.edge_pair is not None for sc in scs)
        assert hol_set(scs) == {(F(4, 1), F(4, 0)), (F(4, 0), F(4, 1))}

    def test_direction_filter(self):
        S = build_ngon(4)
        scs = enumerate_saddle_connections(S, 5, direction=1)
        assert hol_set(scs) == {(F(4, 1), F(4, 1))}
        scs = enumerate_saddle_connections(S, 5, direction=Fraction(1, 2))
        assert hol_set(scs) == {(F(4, 1), F(4, 2))}
        scs = enumerate_saddle_connections(S, 5, direction="inf")
        assert hol_set(scs) == {(F(4, 1), F(4, 0))}


class TestOctagonModel:
    def test_only_sides_at_length_one(self):
        S = build_ngon(8)
        scs = enumerate_saddle_connections(S, 1)
        assert len(scs) == 4
        assert all(sc.edge_pair is not None for sc in scs)
        assert all(sc.length_sq == F(8, 1) for sc in scs)

    def test_horizontal_connections(self):
        S = build_ngon(8)
        phi = CycloReal.phi(8)
        scs = enumerate_saddle_connections(S, 3, direction="inf")
        long_sq = (phi * phi - 1) * (phi * phi - 1)  # (1 + sqrt 2)^2
        assert length_sq_multiset(scs) == [F(8, 1), long_sq, long_sq]

    def test_piece_chains_are_consistent(self):
        S = build_ngon(8)
        for sc in enumerate_saddle_connections(S, 2):
            assert len(sc.pieces) == len(sc.crossings) + 1
            for i, (pid, half, dev) in enumerate(sc.crossings):
                f, p_in, p_out = sc.pieces[i]
                assert half[0] == f
                assert S.pair_of[half] == pid
                nxt_face, nxt_in, _ = sc.pieces[i + 1]
                assert S.glue[half][0] == nxt_face
                assert vadd(p_out, S.glue_shift[half]) == nxt_in
            total = sum(
                math.hypot(*vfloat(vsub(q, p))) for _f, p, q in sc.pieces
            )
            assert abs(total - sc.length) < 1e-9

    def test_germs(self):
        S = build_ngon(8)
        for sc in enumerate_saddle_connections(S, 2):
            assert sc.start.direction == sc.holonomy
            assert sc.end.direction == (-sc.holonomy[0], -sc.holonomy[1])
            assert sc.start.class_id == S.corner_class[sc.start.corner][0]
            assert sc.end.class_id == S.corner_class[sc.end.corner][0]


class TestStaircaseConnections:
    def test_octagon_horizontal_three(self):
        S = build_staircase(8)
        (w1, w2), _ = staircase_lengths(8)
        scs = enumerate_saddle_connections(S, w1, direction="inf")
        assert length_sq_multiset(scs) == sorted(
            [w1 * w1, w1 * w1, w2 * w2], key=float
        )
        labels = sorted(
            S.pair_labels[sc.edge_pair] if sc.edge_pair is not None else "interior"
            for sc in scs
        )
        assert labels == ["a1", "a2", "interior"]
        chord = next(sc for sc in scs if sc.edge_pair is None)
        assert len(chord.pieces) == 1 and not chord.crossings

    def test_octagon_vertical_edges_only(self):
        S = build_staircase(8)
        _, (r1, r2) = staircase_lengths(8)
        scs = enumerate_saddle_connections(S, r1, direction=0)
        assert all(sc.edge_pair is not None for sc in scs)
        assert length_sq_multiset(scs) == sorted(
            [r1 * r1, r2 * r2, r2 * r2], key=float
        )

    def test_decagon_horizontal(self):
        S = build_staircase(10)
        (w1, w2, w3), _ = staircase_lengths(10)
        scs = enumerate_saddle_connections(S, w1, direction="inf")
        assert length_sq_multiset(scs) == sorted(
            [w1 * w1, w2 * w2, w2 * w2, w3 * w3], key=float
        )

    @pytest.mark.parametrize("n", [8, 10])
    def test_conversion_preserves_holonomy_sets(self, n):
        P = conversion_matrix(n)
        sheared = build_ngon(n).transform(P)
        stair = build_staircase(n)
        bound = Fraction(3, 2)
        a = hol_set(enumerate_saddle_connections(sheared, bound))
        b = hol_set(enumerate_saddle_connections(stair, bound))
        assert a == b


class TestEquivariance:
    def test_horizontal_shear(self):
        S = build_ngon(8)
        M = veech_generators(8)["TH"]
        Minv = M.inverse()
        T = S.transform(M)
        L = F(8, 2)
        base = enumerate_saddle_connections(S, L)
        mapped = {sc.transformed(M, target=T).holonomy for sc in base}
        big = enumerate_saddle_connections(T, 8)
        filtered = {
            sc.holonomy for sc in big if norm2(Minv.apply(sc.holonomy)) <= L * L
        }
        assert mapped == filtered

    def test_transform_preserves_structure(self):
        S = build_ngon(8)
        M = veech_generators(8)["TV"]
        T = S.transform(M)
        for sc in enumerate_saddle_connections(S, 2):
            im = sc.transformed(M, target=T)
            assert im.length_sq == norm2(M.apply(sc.holonomy))
            assert len(im.pieces) == len(sc.pieces)
            assert [pid for pid, _h, _d in im.crossings] == [
                pid for pid, _h, _d in sc.crossings
            ]


def _sheared_staircase(n):
    return build_staircase(n).transform(Mat2(n, 1, Fraction(13, 37), 0, Fraction(31, 40)))


def _assert_follows_path(sc):
    """The lazily traced pieces and crossings run along the recorded path."""
    S = sc.surface
    (f0, v0), exits, last = sc.path
    pieces, crossings = sc.pieces, sc.crossings
    assert [half for _pid, half, _dev in crossings] == list(exits)
    assert len(pieces) == len(exits) + 1
    assert pieces[0][:2] == (f0, S.faces[f0][v0])
    f_last, _p, q_last = pieces[-1]
    assert q_last == S.faces[f_last][last]
    dev = (F(S.n, 0), F(S.n, 0))
    for i, (pid, half, dev_cross) in enumerate(crossings):
        f, p_in, p_out = pieces[i]
        assert half[0] == f and S.pair_of[half] == pid
        dev = vadd(dev, vsub(p_out, p_in))
        assert dev == dev_cross
        nxt_face, nxt_in, _ = pieces[i + 1]
        assert S.glue[half][0] == nxt_face
        assert vadd(p_out, S.glue_shift[half]) == nxt_in
    assert vadd(dev, vsub(q_last, pieces[-1][1])) == sc.holonomy


class TestPath:
    def test_edge_paths(self):
        S = build_staircase(8)
        for pid in range(len(S.edge_pairs)):
            sc = edge_connection(S, pid)
            (f, e), exits, last = sc.path
            k = len(S.faces[f])
            assert exits == () and last == (e + 1) % k
            assert sc.reversed().path == ((f, (e + 1) % k), (), e)
            _assert_follows_path(sc)
            _assert_follows_path(sc.reversed())

    @pytest.mark.parametrize("n", [8, 10])
    def test_sheared_staircase_connections_and_reverses(self, n):
        S = _sheared_staircase(n)
        scs = enumerate_saddle_connections(S, 3)
        assert any(len(sc.path[1]) >= 3 for sc in scs)
        classes = {sc.start.class_id for sc in scs} | {sc.end.class_id for sc in scs}
        assert len(classes) == len(S.vertex_classes)
        for sc in scs:
            _assert_follows_path(sc)
            r = sc.reversed()
            _assert_follows_path(r)
            assert r.reversed().path == sc.path
            assert r.pieces == tuple((f, q, p) for f, p, q in reversed(sc.pieces))

    @pytest.mark.parametrize("n", [8, 10])
    def test_transformed_pieces_and_classes(self, n):
        S = _sheared_staircase(n)
        M = Mat2(n, 1, Fraction(2, 7), 0, Fraction(5, 3))
        T = S.transform(M)
        form_S, form_T = intersection_form(S), intersection_form(T)
        for sc in enumerate_saddle_connections(S, Fraction(5, 2)):
            for base in (sc, sc.reversed()):
                im = base.transformed(M, target=T)
                if im.path != base.path:
                    # non-canonical images come back reversed
                    im = im.reversed()
                assert im.path == base.path
                _assert_follows_path(im)
                assert im.pieces == tuple(
                    (f, M.apply(p), M.apply(q)) for f, p, q in base.pieces
                )
                assert im.crossings == tuple(
                    (pid, half, M.apply(dev)) for pid, half, dev in base.crossings
                )
            im = sc.transformed(M, target=T)
            assert np.array_equal(form_T.class_vector(im), form_S.class_vector(sc))

    def test_trace_rejects_a_wrong_path(self):
        S = _sheared_staircase(8)
        sc = next(sc for sc in enumerate_saddle_connections(S, 2) if sc.path[1])
        (f, v), exits, last = sc.path
        k = len(S.faces[S.glue[exits[-1]][0]])
        bad = SaddleConnection(
            S, sc.holonomy, sc.start, sc.end, ((f, v), exits, (last + 1) % k)
        )
        with pytest.raises(RuntimeError, match="recorded path"):
            bad.pieces


class TestSubdivide:
    def test_sides_are_single_pieces(self):
        S = build_ngon(8)
        for sc in enumerate_saddle_connections(S, 1):
            segs = subdivide(sc)
            assert len(segs) == 1
            assert segs[0].kind == "initial+terminal"
            assert segs[0].length_sq == F(8, 1)

    def test_pieces_have_unit_lower_bound(self):
        S = build_ngon(8)
        one = F(8, 1)
        for sc in enumerate_saddle_connections(S, 3):
            segs = subdivide(sc)
            non_sandwiched = sum(
                1
                for pid, _h, _d in sc.crossings
                if int(S.pair_labels[pid][1:]) != _sector_sandwiched(sc)
            )
            assert len(segs) == non_sandwiched + 1
            total = sum(seg.length for seg in segs)
            assert abs(total - sc.length) < 1e-9
            for seg in segs:
                assert seg.length_sq >= one
                if seg.length_sq == one:
                    assert sc.edge_pair is not None
            kinds = [seg.kind for seg in segs]
            if len(segs) == 1:
                assert kinds == ["initial+terminal"]
            else:
                assert kinds[0] == "initial" and kinds[-1] == "terminal"
                assert all(k in ("plain", "sandwiched") for k in kinds[1:-1])


def _sector_sandwiched(sc):
    from kvol.surface import sector_diagram, sector_index

    i = sector_index(sc.surface.n, sc.holonomy)
    if i is None:
        return -1
    return sector_diagram(sc.surface.n, i).sandwiched
