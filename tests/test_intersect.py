"""Tests for algebraic intersection numbers against independent oracles.

The flat torus gives a complete oracle (the determinant of winding vectors);
the octagon and staircase surfaces check the corner rule, the homological
intersection form, and their mutual consistency on full enumerations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kvol.field import CycloReal, trig_value
from kvol.intersect import ClosedCurve, homology_class, intersection_form
from kvol.plane import Mat2, canonical_orientation
from kvol.ratios import closed_atoms
from kvol.saddle import enumerate_saddle_connections
from kvol.surface import build_ngon, build_staircase, staircase_lengths, veech_generators

import intersect_oracle
import pair_judges
from intersect_oracle import edge_connection, intersect


def F(n, v):
    return CycloReal.from_rational(n, v)


def as_int_pair(hol):
    x, y = hol
    assert x.is_rational() and y.is_rational()
    fx, fy = x.coeffs[0], y.coeffs[0]
    assert fx.denominator == 1 and fy.denominator == 1
    return int(fx), int(fy)


@pytest.fixture(scope="module")
def torus():
    return build_ngon(4)


@pytest.fixture(scope="module")
def torus_curves(torus):
    """Winding curves indexed by (p, q), |p|, |q| <= 3."""
    scs = enumerate_saddle_connections(torus, 4.25)
    by_hol = {}
    for sc in scs:
        by_hol[as_int_pair(sc.holonomy)] = sc
        rev = sc.reversed()
        by_hol[as_int_pair(rev.holonomy)] = rev
    curves = {}
    for p in range(-3, 4):
        for q in range(-3, 4):
            if (p, q) == (0, 0):
                continue
            g = math.gcd(abs(p), abs(q))
            prim = by_hol[(p // g, q // g)]
            curves[(p, q)] = ClosedCurve([prim] * g)
    return curves


@pytest.fixture(scope="module")
def octagon():
    return build_ngon(8)


@pytest.fixture(scope="module")
def octagon_scs(octagon):
    return enumerate_saddle_connections(octagon, 3)


@pytest.fixture(scope="module")
def octagon_form(octagon):
    return intersection_form(octagon)


class TestTorusOracle:
    def test_axis_pair_is_plus_one(self, torus_curves):
        r = intersect(torus_curves[(1, 0)], torus_curves[(0, 1)])
        assert r.total == 1
        assert r.interior == 0 and r.singular == 1

    def test_diagonals_split_interior_and_singular(self, torus_curves):
        r = intersect(torus_curves[(1, 1)], torus_curves[(1, -1)])
        assert r.total == -2
        assert r.interior == -1 and r.singular == -1
        assert len(r.interior_witnesses) == 1

    def test_determinant_oracle(self, torus_curves):
        vecs = [
            (p, q)
            for p in range(-2, 3)
            for q in range(-2, 3)
            if (p, q) != (0, 0)
        ] + [(3, 1), (-3, 2), (3, 3), (0, 3), (-3, -3)]
        for p, q in vecs:
            for r, s in vecs:
                got = intersect(torus_curves[(p, q)], torus_curves[(r, s)]).total
                assert got == p * s - q * r, ((p, q), (r, s))

    def test_determinant_oracle_other_perturbation_side(self, torus_curves):
        vecs = [(1, 0), (0, 1), (1, 1), (2, 1), (-1, 2), (2, 2), (3, -2), (-2, -2)]
        for p, q in vecs:
            for r, s in vecs:
                got = intersect(
                    torus_curves[(p, q)], torus_curves[(r, s)], positive_side=False
                ).total
                assert got == p * s - q * r, ((p, q), (r, s))

    def test_homology_classes(self, torus, torus_curves):
        e0 = homology_class(edge_connection(torus, 0))
        e1 = homology_class(edge_connection(torus, 1))
        assert sorted(map(tuple, [e0, e1])) == [(0, 1), (1, 0)]
        h = homology_class(torus_curves[(1, 0)])
        v = homology_class(torus_curves[(0, 1)])
        for p, q in [(2, 1), (-3, 2), (3, 3), (0, -2), (1, -1)]:
            got = homology_class(torus_curves[(p, q)])
            assert np.array_equal(got, p * h + q * v), (p, q)

    def test_form_matrix(self, torus):
        form = intersection_form(torus)
        m = form.matrix
        assert m.shape == (2, 2)
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert abs(m[0, 1]) == 1 and m[1, 0] == -m[0, 1]

    def test_form_matches_geometry(self, torus, torus_curves):
        form = intersection_form(torus)
        sample = [(1, 0), (0, 1), (1, 1), (2, -1), (3, 2), (-2, -2)]
        for a in sample:
            for b in sample:
                ca, cb = torus_curves[a], torus_curves[b]
                assert form.pair(ca, cb) == intersect(ca, cb).total


class TestOctagonForm:
    def test_shape_and_entries(self, octagon_form):
        m = octagon_form.matrix
        assert m.shape == (4, 4)
        assert np.array_equal(m, -m.T)
        off = [m[i, j] for i in range(4) for j in range(4) if i != j]
        assert all(abs(x) == 1 for x in off)

    def test_unimodular(self, octagon_form):
        det = round(float(np.linalg.det(octagon_form.matrix.astype(float))))
        assert det == 1

    def test_basis_is_edge_curves(self, octagon, octagon_form):
        # one vertex class: every edge pair is a closed curve, and the
        # matrix pairs those curves in pair order
        E = len(octagon.edge_pairs)
        edges = [edge_connection(octagon, pid) for pid in range(E)]
        for i in range(E):
            for j in range(E):
                assert octagon_form.matrix[i, j] == intersect(edges[i], edges[j]).total

    def test_side_pairs_meet_once_at_the_cone_point(self, octagon):
        edges = [edge_connection(octagon, pid) for pid in range(4)]
        for i in range(4):
            for j in range(4):
                r = intersect(edges[i], edges[j])
                assert r.interior == 0
                if i == j:
                    assert r.total == 0
                else:
                    assert abs(r.total) == 1


class TestOctagonGeometryVsForm:
    def test_enumeration_pairs_agree_with_form(self, octagon_scs, octagon_form):
        scs = octagon_scs
        assert len(scs) == 32
        gram = pair_judges.gram(octagon_form, scs)
        assert np.array_equal(gram, -gram.T)
        for i, a in enumerate(scs):
            for j in range(i, len(scs)):
                b = scs[j]
                r = intersect(a, b)
                assert r.total == gram[i, j], (i, j)

    def test_perturbation_side_independence(self, octagon_scs):
        scs = octagon_scs
        for i, a in enumerate(scs):
            for j in range(i, len(scs)):
                b = scs[j]
                left = intersect(a, b, positive_side=True)
                right = intersect(a, b, positive_side=False)
                assert left.total == right.total, (i, j)

    def test_reversal_negates(self, octagon_scs):
        scs = octagon_scs
        sample = scs[:6] + scs[13:19] + scs[-4:]
        for a in sample[:8]:
            for b in sample[8:]:
                assert intersect(a.reversed(), b).total == -intersect(a, b).total
                assert intersect(a, b.reversed()).total == -intersect(a, b).total

    def test_bilinearity_under_concatenation(self, octagon_scs):
        scs = octagon_scs
        triples = [
            (scs[0], scs[7], scs[15]),
            (scs[3], scs[11], scs[25]),
            (scs[8], scs[8], scs[30]),
            (scs[6], scs[21], scs[21]),
        ]
        for a, b, c in triples:
            joined = ClosedCurve([a, b])
            assert (
                intersect(joined, c).total
                == intersect(a, c).total + intersect(b, c).total
            )

    def test_backtrack_curve_is_null(self, octagon_scs, octagon_form):
        a = octagon_scs[5]
        wiggle = ClosedCurve([a, a.reversed()])
        assert not homology_class(wiggle).any()
        for b in octagon_scs[:10]:
            assert intersect(wiggle, b).total == 0
            assert intersect(b, wiggle).total == 0


class TestHomologyClasses:
    def test_edge_curves_are_standard_basis(self, octagon):
        E = len(octagon.edge_pairs)
        for pid in range(E):
            vec = homology_class(edge_connection(octagon, pid))
            expect = np.zeros(E, dtype=np.int64)
            expect[pid] = 1
            assert np.array_equal(vec, expect)

    def test_staircase_edge_curves_are_standard_basis(self):
        S = build_staircase(8)
        E = len(S.edge_pairs)
        for pid in range(E):
            vec = homology_class(edge_connection(S, pid))
            expect = np.zeros(E, dtype=np.int64)
            expect[pid] = 1
            assert np.array_equal(vec, expect)

    def test_class_is_reversal_antisymmetric(self, octagon_scs):
        for sc in octagon_scs[:12]:
            assert np.array_equal(
                homology_class(sc), -homology_class(sc.reversed())
            )


class TestStaircase:
    def test_parallel_connections_do_not_intersect(self):
        S = build_staircase(8)
        widths, _ = staircase_lengths(8)
        total_w = widths[0]
        for w in widths[1:]:
            total_w = total_w + w
        scs = enumerate_saddle_connections(S, total_w * 2, direction="inf")
        assert len(scs) >= 3
        for a in scs:
            for b in scs:
                r = intersect(a, b)
                assert r.total == 0, (a, b)

    def test_parallel_slanted_connections_do_not_intersect(self):
        S = build_staircase(8)
        phi = CycloReal.phi(8)
        scs = enumerate_saddle_connections(S, 3, direction=phi.inverse())
        assert len(scs) >= 2
        for a in scs:
            for b in scs:
                assert intersect(a, b).total == 0

    def test_two_class_surface_form_matches_geometry(self):
        S = build_staircase(10)
        assert len(S.vertex_classes) == 2
        form = intersection_form(S)
        scs = enumerate_saddle_connections(S, 1.2)
        closed = [sc for sc in scs if sc.start.class_id == sc.end.class_id]
        open_scs = [sc for sc in scs if sc.start.class_id != sc.end.class_id]
        curves = [ClosedCurve([sc]) for sc in closed[:6]]
        for sigma in open_scs[:5]:
            for tau in open_scs[:5]:
                if sigma.end.class_id == tau.start.class_id and tau.end.class_id == sigma.start.class_id:
                    curves.append(ClosedCurve([sigma, tau]))
        assert len(curves) > 8
        for a in curves:
            for b in curves:
                geo = intersect(a, b)
                assert geo.total == form.pair(a, b)
                assert geo.total == -intersect(b, a).total
                other = intersect(a, b, positive_side=False)
                assert geo.total == other.total

    def test_forms_build_on_all_models(self):
        for n in (8, 10, 12, 14):
            X = build_ngon(n)
            for S in (build_staircase(n), X):
                m = intersection_form(S).matrix
                if len(S.vertex_classes) == 1:
                    assert np.array_equal(m, -m.T)
                B = _incidence(S)
                assert np.array_equal(m + m.T, B.T @ B)
            atoms = closed_atoms(X, enumerate_saddle_connections(X, 2.5))
            gram = pair_judges.gram(intersection_form(X), atoms)
            assert np.linalg.matrix_rank(gram.astype(float)) == 2 * X.genus


class TestValidation:
    def test_open_connection_rejected(self):
        S = build_staircase(10)
        scs = enumerate_saddle_connections(S, 1.2)
        open_sc = next(
            sc for sc in scs if sc.start.class_id != sc.end.class_id
        )
        with pytest.raises(ValueError):
            ClosedCurve([open_sc])

    @pytest.mark.parametrize("build", [build_staircase, build_ngon], ids=["S10", "X10"])
    def test_form_rejects_open_connection(self, build):
        S = build(10)
        scs = enumerate_saddle_connections(S, 2)
        open_sc = next(sc for sc in scs if sc.start.class_id != sc.end.class_id)
        closed = next(sc for sc in scs if sc.start.class_id == sc.end.class_id)
        form = intersection_form(S)
        for call in (
            lambda: form.class_vector(open_sc),
            lambda: form.pair(open_sc, closed),
            lambda: form.pair(closed, open_sc),
            lambda: form.coord_rows([closed, open_sc]),
            lambda: pair_judges.gram(form, [open_sc]),
        ):
            with pytest.raises(ValueError, match="do not close up"):
                call()

    def test_mismatched_surfaces_rejected(self, octagon, octagon_scs):
        other = build_ngon(8)
        sc = enumerate_saddle_connections(other, 1.1)[0]
        with pytest.raises(ValueError):
            intersect(octagon_scs[0], sc)

    def test_report_invariant(self, octagon_scs):
        for a in octagon_scs[:8]:
            for b in octagon_scs[8:16]:
                r = intersect(a, b)
                assert r.total == r.interior + r.singular


def _incidence(S) -> np.ndarray:
    """Signed vertex-edge incidence matrix: each half-edge adds its sign
    against its pair's canonical orientation at its start vertex."""
    B = np.zeros((len(S.vertex_classes), len(S.edge_pairs)), dtype=np.int64)
    for h, pid in S.pair_of.items():
        B[S.corner_class[h][0], pid] += 1 if canonical_orientation(S.edge_vector(h)) else -1
    return B


def _reference_chain(sc) -> np.ndarray:
    """The chain of a saddle connection by walking its path edge by edge:
    the start vertex's outgoing edge, then in each face the edges strictly
    counterclockwise between the entry edge and the exit edge (or the end
    vertex), each signed against its pair's canonical orientation."""
    S = sc.surface
    acc = np.zeros(len(S.edge_pairs), dtype=np.int64)

    def add(h):
        pid = S.pair_of[h]
        acc[pid] += 1 if canonical_orientation(S.edge_vector(h)) else -1

    def arc(f, e_in, e_out):
        k = len(S.faces[f])
        e = (e_in + 1) % k
        while e != e_out:
            add((f, e))
            e = (e + 1) % k

    (f, e_in), exits, last = sc.path
    add((f, e_in))
    for h in exits:
        arc(f, e_in, h[1])
        f, e_in = S.glue[h]
    arc(f, e_in, last)
    return acc


def _table_cases():
    lm = {n: trig_value(n, "sin", 1) for n in (8, 10, 12, 14, 16)}
    shear = Mat2(8, 1, Fraction(13, 37), 0, Fraction(31, 40))
    cases = [(f"S{n}", build_staircase(n), lm[n] * 12) for n in (8, 10, 12, 14, 16)]
    cases += [(f"X{n}", build_ngon(n), 4.5) for n in (8, 10, 12)]
    cases.append(("sheared-S8", build_staircase(8).transform(shear), lm[8] * 12))
    return [pytest.param(S, L, id=name) for name, S, L in cases]


class TestChainTable:
    """The form's table rows against a path walk kept here."""

    @pytest.mark.parametrize("S, L", _table_cases())
    def test_rows_match_path_walk(self, S, L):
        form = intersection_form(S)
        scs = enumerate_saddle_connections(S, L)
        atoms = closed_atoms(S, scs)
        if len(S.vertex_classes) == 2:
            assert any(len(c.components) == 2 for c in atoms)
            assert any(
                sc not in scs for c in atoms for sc in c.components
            ), "no atom with a reversed component"
        chains = {sc: _reference_chain(sc) for c in atoms for sc in c.components}
        closed = [sc for sc in scs if sc.start.class_id == sc.end.class_id]
        for sc in closed:
            assert np.array_equal(form.class_vector(sc), chains[sc])
            assert np.array_equal(homology_class(sc), chains[sc])
        wholes = [sum(chains[sc] for sc in c.components) for c in atoms]
        for c, whole in zip(atoms, wholes):
            assert np.array_equal(form.class_vector(c), whole)
        for c, whole in zip(atoms[:10], wholes):
            assert np.array_equal(homology_class(c), whole)
        assert np.array_equal(form.coord_rows(atoms), np.array(wholes))

    @pytest.mark.parametrize("S, L", _table_cases())
    def test_pairing_matches_geometry(self, S, L):
        form = intersection_form(S)
        atoms = closed_atoms(S, enumerate_saddle_connections(S, L))
        rng = random.Random(len(atoms))
        sample = [tuple(rng.sample(range(len(atoms)), 2)) for _ in range(25)]
        G = pair_judges.gram(form, atoms)
        for i, j in sample:
            total = intersect(atoms[i], atoms[j]).total
            assert form.pair(atoms[i], atoms[j]) == total == G[i, j]


def _geometry_surfaces():
    """The form's test surfaces by name, with a cap for their closed atoms:
    the one-vertex models, two-class models, a sheared staircase and the
    Veech generators' images of three staircases (R has det < 0)."""
    lm = {n: trig_value(n, "sin", 1) for n in (8, 10, 12, 14, 16, 18, 20, 24)}
    out = {"X4": (build_ngon(4), 3)}
    for n in (8, 12, 16, 20, 24):
        out[f"X{n}"] = (build_ngon(n), 2.5)
        out[f"S{n}"] = (build_staircase(n), lm[n] * 8)
    for n in (6, 10, 14, 18):
        out[f"X{n}"] = (build_ngon(n), 2.5)
    for n in (10, 14, 18):
        out[f"S{n}"] = (build_staircase(n), lm[n] * 8)
    shear = Mat2(10, 1, Fraction(1, 7), 0, Fraction(2, 5))
    out["sheared-S10"] = (build_staircase(10).transform(shear), lm[10] * 6)
    for n in (8, 10, 12):
        for name, M in veech_generators(n).items():
            out[f"{name}-S{n}"] = (build_staircase(n).transform(M), lm[n] * 8)
    return out


_ONE_VERTEX = ["X4", "X8", "X12", "X16", "X20", "X24", "S8", "S12", "S16", "S20", "S24"]
_ATOMS = ["X6", "X10", "X14", "X18", "S10", "S14", "S18", "sheared-S10"] + [
    f"{name}-S{n}" for n in (8, 10, 12) for name in ("TH", "TV", "R")
]


class TestFormAgainstGeometry:
    """The form's matrix against the geometric ``intersect``, which it never
    calls, and against the incidence identity its proof implies."""

    @pytest.fixture(scope="class")
    def surfaces(self):
        return _geometry_surfaces()

    @pytest.mark.parametrize(
        "name, check",
        [(name, "edges") for name in _ONE_VERTEX]
        + [(name, "atoms") for name in _ATOMS]
        + [("all", "incidence")],
    )
    def test_form_matches_geometry(self, surfaces, name, check):
        if check == "incidence":
            # matrix + matrix^T = B^T B, so the form is antisymmetric on cycles
            for S, _ in surfaces.values():
                m = intersection_form(S).matrix
                B = _incidence(S)
                assert np.array_equal(m + m.T, B.T @ B), S
            return
        S, L = surfaces[name]
        form = intersection_form(S)
        if check == "edges":
            assert len(S.vertex_classes) == 1
            E = len(S.edge_pairs)
            edges = [edge_connection(S, pid) for pid in range(E)]
            for i in range(E):
                for j in range(E):
                    assert form.matrix[i, j] == intersect(edges[i], edges[j]).total, (i, j)
            return
        atoms = closed_atoms(S, enumerate_saddle_connections(S, L))
        multi = [i for i, c in enumerate(atoms) if len(c.components) > 1]
        assert len(atoms) > 10
        assert bool(multi) == (len(S.vertex_classes) > 1)
        rng = random.Random(len(atoms))
        sample = [tuple(rng.sample(range(len(atoms)), 2)) for _ in range(20)]
        sample += [(rng.choice(multi), rng.randrange(len(atoms))) for _ in multi[:10]]
        C = form.coord_rows(atoms)
        for i, j in sample:
            assert C[i] @ form.matrix @ C[j] == intersect(atoms[i], atoms[j]).total, (i, j)


@pytest.mark.parametrize(
    "S",
    [build_ngon(4), build_ngon(10), build_staircase(8), build_staircase(10)],
    ids=["X4", "X10", "S8", "S10"],
)
def test_form_calls_no_geometry(monkeypatch, S):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("intersect", "edge_connection"):
        monkeypatch.setattr(intersect_oracle, name, counted(name, getattr(intersect_oracle, name)))
    intersection_form(S)
    assert calls == []
    # the counters are live
    e = intersect_oracle.edge_connection(S, 0)
    there_and_back = ClosedCurve([e, e.reversed()])
    intersect_oracle.intersect(there_and_back, there_and_back)
    assert calls == ["edge_connection", "intersect"]
