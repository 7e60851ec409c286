"""Tests for saddle-connection enumeration against independent oracles."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest

from kvol import plane, saddle
from kvol.field import CycloReal, common_denominator, field_degree, trig_value
from kvol.intersect import ClosedCurve, intersection_form
from kvol.plane import Mat2, cross, norm2, vadd, vfloat, vneg, vsub
from kvol.ratios import closed_atoms
from kvol.saddle import SaddleConnection, edge_connection, enumerate_saddle_connections
from kvol.surface import (
    build_ngon,
    build_staircase,
    conversion_matrix,
    direction_vector,
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


def _tilted_staircase(n):
    """A staircase whose horizontal edges are tilted, so that corner wedges
    and cones straddle the horizontal axis."""
    return build_staircase(n).transform(Mat2(n, 1, 0, Fraction(2, 7), 1))


def _vertical_staircase(n):
    """The staircase at x = 0, y = 7/10: the vertical of the half-plane,
    where the surface keeps its symmetries and lengths tie exactly."""
    return build_staircase(n).transform(Mat2(n, 1, 0, 0, Fraction(7, 10)))


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

        def image(sc):
            im = sc.transformed(M, target=T)
            # non-canonical images come back reversed
            return im if im.path == sc.path else im.reversed()

        scs = enumerate_saddle_connections(S, Fraction(5, 2))
        for sc in scs:
            for base in (sc, sc.reversed()):
                im = image(base)
                assert im.path == base.path
                _assert_follows_path(im)
                assert im.pieces == tuple(
                    (f, M.apply(p), M.apply(q)) for f, p, q in base.pieces
                )
                assert im.crossings == tuple(
                    (pid, half, M.apply(dev)) for pid, half, dev in base.crossings
                )
        atoms = closed_atoms(S, scs)
        assert any(len(c.components) == 1 for c in atoms)
        for c in atoms:
            im = ClosedCurve([image(sc) for sc in c.components])
            assert np.array_equal(form_T.class_vector(im), form_S.class_vector(c))

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


def _lm(n):
    return trig_value(n, "sin", 1)


def _rows(scs):
    return [(sc.holonomy, sc.path, sc.start.corner, sc.end.corner, sc.edge_pair) for sc in scs]


_CASES = {
    "ngon8-L3": lambda: (build_ngon(8), 3),
    "ngon10-L3": lambda: (build_ngon(10), 3),
    "stair10-8lm": lambda: (build_staircase(10), _lm(10) * 8),
    "sheared8-12lm": lambda: (_sheared_staircase(8), _lm(8) * 12),
    "sheared8-30lm": lambda: (_sheared_staircase(8), _lm(8) * 30),
    "tilted8-12lm": lambda: (_tilted_staircase(8), _lm(8) * 12),
    "vertical8-17lm": lambda: (_vertical_staircase(8), _lm(8) * 17),
}


def _count_nodes(monkeypatch):
    """Patch ``_Node`` to count the nodes built; returns the counter list."""
    built = [0]
    new = saddle._Node.__new__

    def record(cls, *args):
        built[0] += 1
        return new(cls, *args)

    monkeypatch.setattr(saddle._Node, "__new__", record)
    return built


def _root(lat, f, v):
    """The root node at corner (f, v), with its packed translation."""
    x, y = lat.faces[f][v]
    return saddle._Node(f, None, None, None, (-x, -y))


def _child(S, lat, node, h):
    """The node a cone reaches by leaving ``node``'s face through half-edge
    h, its packed translation formed as the search forms it."""
    (Tx, Ty), (x, y) = node.tau, lat.shift[h]
    return saddle._Node(S.glue[h][0], None, S.glue[h], node, (Tx - x, Ty - y))


def _unpacked(lat, u):
    """The field vector of packed lattice vector u over ``lat.den``."""
    return [CycloReal(lat.n, [Fraction(a, lat.den) for a in lat.digits(c, lat.d)]) for c in u]


def _developed(S, lat, rng, depth):
    """(lattice, field) pairs of developed vertices along a random walk of
    ``depth`` glued edges from a random corner, the field vector summed by
    plane arithmetic as an independent oracle."""
    f = rng.randrange(len(S.faces))
    v = rng.randrange(len(S.faces[f]))
    tau = (-S.faces[f][v][0], -S.faces[f][v][1])
    node = _root(lat, f, v)
    out = []
    for _ in range(depth + 1):
        k = len(S.faces[node.face])
        for j in range(k):
            out.append((saddle._vertex(lat, node, j), vadd(S.faces[node.face][j], tau)))
        h = (node.face, rng.randrange(k))
        tau = vsub(tau, S.glue_shift[h])
        node = _child(S, lat, node, h)
    return out


class TestFloatFilter:
    @pytest.mark.parametrize("case", ["ngon8-L3", "stair10-8lm", "sheared8-12lm", "tilted8-12lm"])
    def test_exact_decisions_give_the_same_list(self, case, monkeypatch):
        S, L = _CASES[case]()
        default = _rows(enumerate_saddle_connections(S, L))
        # an infinite margin sends every sign, exit-edge, length, orientation
        # and order decision to the field; a looser prune keeps more beams
        monkeypatch.setattr(saddle, "_SIGN_MARGIN", math.inf)
        monkeypatch.setattr(saddle, "_PRUNE_SLACK", 0.25)
        assert _rows(enumerate_saddle_connections(S, L)) == default

    @pytest.mark.parametrize("n", [8, 10])
    def test_entry_edge_ends_keep_their_position(self, n):
        """Across a glued edge (f, e) -> (f2, e2) the child's vertices e2 + 1
        and e2 develop exactly onto the parent's e and e + 1: the vertices
        that bounded the parent cone are the ones the search skips."""
        for S in (build_ngon(n), build_staircase(n), _sheared_staircase(n)):
            lat = saddle._Lattice(S)
            for f, verts in enumerate(S.faces):
                k = len(verts)
                root = _root(lat, f, 0)
                for e in range(k):
                    f2, e2 = S.glue[(f, e)]
                    child = _child(S, lat, root, (f, e))
                    k2 = len(S.faces[f2])
                    assert saddle._vertex(lat, child, (e2 + 1) % k2) == saddle._vertex(lat, root, e)
                    assert saddle._vertex(lat, child, e2) == saddle._vertex(lat, root, (e + 1) % k)

    def test_developed_float_error_within_stated_bound(self, monkeypatch):
        """Every node's float translation is within (D + 2)(eps_c + u R) of
        the exact one, and 4 R times that bound is inside the sign margin.
        The exact translations the search carries are checked in the field:
        a root's is minus a vertex of its face, a child's its parent's minus
        the glue shift of the edge crossed."""
        S, L = _sheared_staircase(8), _lm(8) * 30
        nodes = []
        new = saddle._Node.__new__

        def record(cls, *args):
            node = new(cls, *args)
            nodes.append(node)
            return node

        monkeypatch.setattr(saddle._Node, "__new__", record)
        enumerate_saddle_connections(S, L)
        lat = saddle._Lattice(S)
        u = 2.0**-53
        phi = float(CycloReal.phi(8))
        d = field_degree(8)

        def conversion_error(c):
            return (3 * d + 1) * u * sum(abs(float(q)) * phi**i for i, q in enumerate(c.coeffs))

        coords = [c for verts in S.faces for p in verts for c in p]
        coords += [c for shift in S.glue_shift.values() for c in shift]
        eps_c = max(conversion_error(c) for c in coords)
        R = max(abs(node.tau_fl[0]) + abs(node.tau_fl[1]) for node in nodes)
        R += max(abs(float(c)) for c in coords) * 2
        depth, exact = {}, {}
        worst = 0.0
        for node in nodes:  # parents are recorded before their children
            tau = exact[id(node)] = _unpacked(lat, node.tau)
            if node.parent is None:
                D = depth[id(node)] = 0
                assert tuple(tau) in {vneg(p) for p in S.faces[node.face]}
            else:
                D = depth[id(node)] = depth[id(node.parent)] + 1
                shift = S.glue_shift[S.glue[node.entry]]
                assert tuple(tau) == vsub(exact[id(node.parent)], shift)
            bound = (D + 2) * (eps_c + u * R)
            worst = max(worst, bound)
            for c, c_fl in zip(tau, node.tau_fl):
                assert abs(c_fl - float(c)) <= bound + conversion_error(c)
        assert max(depth.values()) > 20
        assert 4 * R * worst < saddle._SIGN_MARGIN


class TestLatticeSearch:
    def test_half_plane_prune_drops_lower_cones(self, monkeypatch):
        """Subcones below the horizontal axis are dropped: the default search
        builds at most 0.6 of the nodes of one whose float tests never decide
        (and so never prune), and finds the same list."""
        S, L = _CASES["sheared8-30lm"]()
        built = _count_nodes(monkeypatch)
        default = _rows(enumerate_saddle_connections(S, L))
        pruned = built[0]
        monkeypatch.setattr(saddle, "_SIGN_MARGIN", math.inf)
        built[0] = 0
        assert _rows(enumerate_saddle_connections(S, L)) == default
        assert pruned <= 0.6 * built[0]

    @pytest.mark.parametrize(
        "case, count",
        [
            ("ngon8-L3", 64),
            ("ngon10-L3", 78),
            ("stair10-8lm", 188),
            ("sheared8-12lm", 609),
            ("sheared8-30lm", 6714),
            ("tilted8-12lm", 427),
            ("vertical8-17lm", 1564),
        ],
    )
    def test_pinned_node_counts(self, case, count, monkeypatch):
        """Every node the search builds is popped once, roots included: a
        change to the loop may not grow or shrink the search tree unnoticed."""
        S, L = _CASES[case]()
        built = _count_nodes(monkeypatch)
        enumerate_saddle_connections(S, L)
        assert built[0] == count

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_lattice_cross_sign_matches_the_field(self, n):
        rng = random.Random(n)
        for S in (build_staircase(n), _sheared_staircase(n)):
            lat = saddle._Lattice(S)
            verts = {}
            for _ in range(6):
                verts.update(_developed(S, lat, rng, 4))
            verts.pop((0, 0), None)  # the apex
            collinear = 0
            items = list(verts.items())
            for i, (u, U) in enumerate(items):
                assert _unpacked(lat, u) == list(U)
                assert saddle._cross_sign(lat, u, (u[0] + u[0], u[1] + u[1])) == 0
                for w, W in items[i + 1:]:
                    expected = cross(U, W).sign()
                    collinear += expected == 0
                    assert saddle._cross_sign(lat, u, w) == expected
                    assert saddle._cross_sign(lat, (-u[0], -u[1]), w) == -expected
            assert collinear > 0

    @pytest.mark.parametrize("n", [8, 16])
    def test_cross_sign_at_the_width_bound(self, n, monkeypatch):
        """Packed vectors whose digits reach the proven bound (N + 1) c, c the
        largest numerator of the surface and of a 1/(126 Phi) filter line:
        digits and product digits round-trip, and the exact cross sign is the
        field's, up to the product digit 2d ((N + 1) c)^2.  So are the packed
        orientation and length cut of ``_endpoint`` and the three signs of
        ``_order``, squared norms and coordinate differences included."""
        S = _sheared_staircase(n)
        one = CycloReal.from_rational(n, 1)
        lat = saddle._Lattice(S, direction_vector(n, one / (CycloReal.phi(n) * 126)))
        d = lat.d
        packed = [p for verts in lat.faces for p in verts] + [*lat.shift.values(), lat.line]
        c = max(abs(a) for p in packed for X in p for a in lat.digits(X, d))
        top = (saddle._MAX_NODES + 1) * c
        rng = random.Random(n)
        vecs = [[[top] * d, [-top] * d], [[top] * d, [top] * d], [[-top] * d, [top] * d]]
        for _ in range(12):
            vecs.append(
                [[rng.choice((-top, top, rng.randint(-top, top))) for _ in range(d)] for _ in range(2)]
            )
        packs = [(lat.pack(x), lat.pack(y)) for x, y in vecs]
        assert [[lat.digits(X, d) for X in p] for p in packs] == vecs
        widest = 0
        for i, (u, U) in enumerate(zip(packs, vecs)):
            for w, W in zip(packs[i:], vecs[i:]):
                conv = [0] * (2 * d - 1)
                for a in range(d):
                    for b in range(d):
                        conv[a + b] += U[0][a] * W[1][b] - U[1][a] * W[0][b]
                assert lat.digits(u[0] * w[1] - u[1] * w[0], 2 * d - 1) == conv
                widest = max(widest, *map(abs, conv))
                field = cross(*[[CycloReal(n, x) for x in V] for V in (U, W)]).sign()
                assert saddle._cross_sign(lat, u, w) == field
        assert widest == 2 * d * top**2
        # a field multiple of the line: P != 0, and the fold decides the zero
        line = _unpacked(lat, lat.line)
        nums = common_denominator([x * CycloReal.phi(n) for x in line])[1]
        w = tuple(lat.pack(num) for num in nums)
        u = lat.line
        assert u[0] * w[1] - u[1] * w[0] != 0
        assert saddle._cross_sign(lat, u, w) == 0
        # every float test deferred to the digits; horizontal vectors and
        # mirror images add orientation, length and x ties, and the middle
        # digit of alt's squared norm is -2d top^2, that of (top, top)'s +2d top^2
        monkeypatch.setattr(saddle, "_SIGN_MARGIN", math.inf)
        alt = [top] * (d // 2) + [-top] * (d - d // 2)
        vecs += [[[top] * d, [0] * d], [[-top] * d, [0] * d], [alt, alt]]
        vecs += [[[-a for a in x], y] for x, y in vecs]
        packs = [(lat.pack(x), lat.pack(y)) for x, y in vecs]
        fields = [[CycloReal(n, [Fraction(a, lat.den) for a in x]) for x in V] for V in vecs]
        norms = [norm2(U) for U in fields]
        scs = [saddle._recorded(S, lat, u, (0, 0), (0, 0), None) for u in packs]
        for u, U, N, sa in zip(packs, fields, norms, scs):
            for W, L2, sb in zip(fields, norms, scs):
                kept = plane.canonical_orientation(U) and not N > L2
                got = saddle._endpoint(lat, ((0.0, 0.0), None, u), L2, float(L2), None)
                assert got == (u if kept else None)
                signs = ((N - L2).sign(), (U[0] - W[0]).sign(), (U[1] - W[1]).sign())
                assert saddle._order(sa, sb) == next((s for s in signs if s), 0)

    def test_search_builds_no_field_vectors(self, monkeypatch):
        """Once the cone search has started, no plane vector arithmetic runs:
        developed positions stay packed integers until a holonomy is recorded."""
        S, L = _CASES["sheared8-30lm"]()
        built = _count_nodes(monkeypatch)
        calls = []
        for name in ("vsub", "vadd", "cross"):
            fn = getattr(plane, name)

            def counted(*args, _fn=fn, _name=name):
                if built[0]:
                    calls.append(_name)
                return _fn(*args)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("kvol") and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
        scs = enumerate_saddle_connections(S, L)
        assert len(scs) == 950 and built[0] > 0 and calls == []
        next(sc for sc in scs if sc.path[1]).pieces  # the tracer's calls are counted
        assert "vadd" in calls

    @pytest.mark.parametrize("case", ["ngon10-L3", "stair10-8lm", "vertical8-17lm"])
    def test_enumeration_multiplies_only_the_cap(self, case, monkeypatch):
        """Every exact test of the enumeration signs packed digits, exact
        length and orientation ties included: its one field multiplication is
        the cap L * L, and it adds, subtracts, inverts and unpacks nothing."""
        S, L = _CASES[case]()
        calls = []
        patched = [(CycloReal, m) for m in ("__mul__", "__rmul__", "__add__", "__radd__")]
        patched += [(CycloReal, "__sub__"), (CycloReal, "inverse"), (saddle._Lattice, "vector")]
        for cls, name in patched:

            def counted(*args, _fn=getattr(cls, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cls, name, counted)
        scs = enumerate_saddle_connections(S, L)
        monkeypatch.undo()
        assert len(scs) > 0
        assert calls in (["__mul__"], ["__rmul__"])


class TestPackedRecord:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_float_holonomy_matches_the_field(self, case):
        """The floats a connection keeps from its packed digits are
        ``vfloat`` of its field holonomy to the bit, zeros' signs included,
        and so are its reverse's."""
        S, L = _CASES[case]()
        for sc in enumerate_saddle_connections(S, L):
            for c in (sc, sc.reversed()):
                stored = c.holonomy_float
                assert [x.hex() for x in stored] == [x.hex() for x in vfloat(c.holonomy)]

    def test_germ_directions_follow_the_reverse(self):
        S, L = _CASES["ngon10-L3"]()
        for sc in enumerate_saddle_connections(S, L):
            rev = sc.reversed()
            assert rev.start is sc.end and rev.end is sc.start
            assert rev.start.direction == rev.holonomy == vneg(sc.holonomy)
            assert rev.end.direction == sc.holonomy


class TestOrder:
    """The float-keyed sort with exact runs gives the full comparison sort."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (build_staircase(12), _lm(12) * 20),
            lambda: (build_ngon(12), 6),
            lambda: (_sheared_staircase(8), _lm(8) * 20),
            _CASES["vertical8-17lm"],
        ],
        ids=["S12-20lm", "X12-L6", "sheared8-20lm", "vertical8-17lm"],
    )
    def test_matches_comparison_sort(self, case):
        S, L = case()
        scs = enumerate_saddle_connections(S, L)
        ties = sum(a.length_sq == b.length_sq for a, b in zip(scs, scs[1:]))
        assert ties > len(scs) // 5
        shuffled = list(scs)
        random.Random(len(scs)).shuffle(shuffled)
        shuffled.sort(key=cmp_to_key(saddle._order))
        assert all(a is b for a, b in zip(shuffled, scs))
        assert len({sc._key() for sc in scs}) == len(scs)  # no entry ties another


class TestPinnedEnumeration:
    """The count and a SHA-256 of (holonomy coefficients, path, start and end
    corners), in order: a change to the search may not reorder or drop a
    connection unnoticed."""

    @pytest.mark.parametrize(
        "case, count, digest",
        [
            (
                "sheared8-12lm",
                152,
                "ecbd34a263831668980cb5baa9278206de14d239104cbce46272d5f447adeaaf",
            ),
            (
                "ngon10-L3",
                35,
                "2ca2648fddaee2824e141d72fc98603148d57b1363f9aa9c8150e199c6def1bb",
            ),
            (
                "sheared8-30lm",
                950,
                "5e6dd401060da134138b85cb380ba1a4adc43b56fdade35923db8090ca408f52",
            ),
        ],
    )
    def test_pinned(self, case, count, digest):
        S, L = _CASES[case]()
        self._check(enumerate_saddle_connections(S, L), count, digest)

    @pytest.mark.parametrize(
        "direction, count, digest",
        [
            ("inf", 3, "0e5615f2f9a21e548bb708ca01265ee98efd1767aaf412cc9e5125d267736f7b"),
            (0, 3, "585278a3d5d6a6135e2f1d83c7fd926651c15ce8574b4ec90243263b0496fd71"),
            (1, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        ],
    )
    def test_pinned_directions(self, direction, count, digest):
        scs = enumerate_saddle_connections(build_staircase(8), _lm(8) * 20, direction=direction)
        self._check(scs, count, digest)

    @pytest.mark.parametrize(
        "case, count, digest",
        [
            ("ngon8-L3", 32, "97d805b45d5b0368af932cdd46eda72221cbd4a655276dc8ce9018ad21612fa3"),
            ("ngon10-L3", 35, "12aab762c5b7c6775017393f2895bdcf5eadd25fc3ebde6d280d78a10190a0f2"),
            ("stair10-8lm", 56, "a07e0a4cf0ed011d83106561b019383696afaf75d6f904ad64df0c497f47e842"),
            ("sheared8-12lm", 152, "5341d157adf6607c677292c18522d68998dd5d9a9a302adcf8edcc6e83f1e986"),
            ("sheared8-30lm", 950, "e5006c1a65dbc3fdf4d5fcee3dd0bae9bf3971e6b307f61069d0f864dc4c8be3"),
            ("tilted8-12lm", 117, "f9887d7609b678b2157a2a14bf937c60c0778474f6ff088a1112415ca264f462"),
            ("vertical8-17lm", 338, "a55cfb2690dd16775e09460fa364ebce2a31d64b1b9d736fdf8a2454da3437d8"),
        ],
    )
    def test_pinned_rows(self, case, count, digest):
        """Every ``_CASES`` entry, with the edge pair in each row."""
        S, L = _CASES[case]()
        self._check_rows(enumerate_saddle_connections(S, L), count, digest)

    @pytest.mark.parametrize(
        "k, cap, count, digest",
        [
            (3, 14, 3, "f1a937bde8e66ee7a7263ba86cf28c71c65ea44b288881eb26251ee86f7b9a4f"),
            # the cusp direction, its 233 l_m witness just inside the cap
            (126, 233, 1, "73e4ec1c2c53591ebc7167f8800d7924d9f95cfa58cf282b842f64a8edbd1f6c"),
        ],
    )
    def test_pinned_rows_on_a_line(self, k, cap, count, digest):
        """Direction-filtered enumerations on S_8 at co-slope 1/(k Phi)."""
        one, phi = CycloReal.from_rational(8, 1), CycloReal.phi(8)
        scs = enumerate_saddle_connections(
            build_staircase(8), _lm(8) * cap, direction=one / (phi * k)
        )
        self._check_rows(scs, count, digest)

    @staticmethod
    def _check_rows(scs, count, digest):
        rows = [
            [[str(c) for c in x.coeffs] for x in hol] + list(rest)
            for hol, *rest in _rows(scs)
        ]
        assert len(scs) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    @staticmethod
    def _check(scs, count, digest):
        rows = [
            [
                [str(c) for c in sc.holonomy[0].coeffs],
                [str(c) for c in sc.holonomy[1].coeffs],
                sc.path,
                sc.start.corner,
                sc.end.corner,
            ]
            for sc in scs
        ]
        assert len(scs) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
