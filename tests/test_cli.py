"""Tests for the command-line front end: output schemas, exit codes, units,
and byte determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kvol import hyperbolic
from kvol.cli import (
    EXIT_CONFIG,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY,
    _g17,
    main,
)
from kvol.hyperbolic import dist_to_Gmax_batch
from kvol.ratios import k0_constant
from kvol.surface import TranslationSurface, build_staircase

SRC = Path(__file__).resolve().parent.parent / "src"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurfaceCommand:
    def test_staircase_json_schema(self, capsys):
        code, out, _ = run(capsys, "surface", "--n", "8", "--model", "staircase")
        assert code == EXIT_OK
        d = json.loads(out)
        assert set(d) == {"n", "model", "faces", "gluings", "singularities", "labels"}
        assert d["n"] == 8 and d["model"] == "staircase"
        assert len(d["faces"]) == 2  # two rectangles (edges split at gluings)
        assert all(len(f["vertices"]) >= 4 for f in d["faces"])
        assert all(len(g) == 4 for g in d["gluings"])
        assert len(d["labels"]) == len(d["gluings"])

    def test_output_reads_back(self, capsys):
        code, out, _ = run(capsys, "surface", "--n", "8", "--model", "staircase")
        assert code == EXIT_OK
        S, T = build_staircase(8), TranslationSurface.from_dict(json.loads(out))
        assert (T.n, T.model, T.faces) == (S.n, S.model, S.faces)
        assert T.edge_pairs == S.edge_pairs and T.pair_labels == S.pair_labels
        assert T.vertex_classes == S.vertex_classes
        assert json.dumps(T.to_dict(), indent=2) + "\n" == out

    def test_ngon_single_singularity(self, capsys):
        code, out, _ = run(capsys, "surface", "--n", "12", "--model", "ngon")
        assert code == EXIT_OK
        d = json.loads(out)
        assert len(d["faces"]) == 1
        assert len(d["faces"][0]["vertices"]) == 12
        assert len(d["singularities"]) == 1

    def test_torus_fixture(self, capsys):
        code, out, _ = run(capsys, "surface", "--n", "4", "--model", "ngon")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_odd_n_rejected(self, capsys):
        code, out, err = run(capsys, "surface", "--n", "7")
        assert code == EXIT_CONFIG
        assert "n must be even ≥ 8" in err
        assert out == ""

    def test_small_staircase_rejected(self, capsys):
        code, _, err = run(capsys, "surface", "--n", "4", "--model", "staircase")
        assert code == EXIT_CONFIG
        assert "n must be even ≥ 8" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "s.json"
        code, out, _ = run(capsys, "surface", "--n", "8", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["model"] == "ngon"

    @pytest.mark.parametrize(
        "argv", [("surface", "--n", "8"), ("kvol-grid", "--n", "8", "--resolution", "4")]
    )
    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_output_is_config_error(self, capsys, tmp_path, argv, where):
        target = tmp_path / where  # a missing directory, or a directory
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"error: cannot write --out {target}")


class TestKvolPointCommand:
    def test_peak_point(self, capsys):
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--x", "0", "--y", "1")
        assert code == EXIT_OK
        d = json.loads(out)
        assert abs(d["value"] - 6.8284271) < 1e-6
        assert d["converged"] is True
        assert d["params"]["dist"] == 0.0

    def test_ngon_point(self, capsys):
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--at-ngon")
        assert code == EXIT_OK
        d = json.loads(out)
        assert abs(d["value"] - 4.8284271) < 1e-6
        assert abs(d["x"] - math.cos(math.pi / 8)) < 1e-12
        assert abs(d["y"] - math.sin(math.pi / 8)) < 1e-12

    def test_ngon_point_at_n64(self, capsys):
        # the point is (float(Phi/2), float(sin(pi/64))), each the double
        # nearest its exact value, and K0 the double nearest K0
        code, out, _ = run(capsys, "kvol-point", "--n", "64", "--at-ngon")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["y"] == 0.049067674327418015 == math.sin(math.pi / 64)
        assert d["params"]["K0"] == 3322.7604978552126

    def test_bruteforce_at_n16_far_shear_stays_below_k0(self, capsys):
        # brute force at x = 29 once printed 52.58420, above K0 = 52.54828
        code, out, _ = run(
            capsys, "kvol-point", "--n", "16", "--x", "29", "--y", "2/47", "--bruteforce", "--L", "6"
        )
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["bruteforce"]["value"] <= d["params"]["K0"]
        assert abs(d["rel_gap"]) <= 1e-15

    def test_twisted_model_unsupported(self, capsys):
        code, _, err = run(capsys, "kvol-point", "--n", "10", "--x", "0", "--y", "1")
        assert code == EXIT_UNSUPPORTED
        assert "n ≡ 0 mod 4" in err and "kvol-bound" in err

    def test_missing_coordinates(self, capsys):
        code, _, err = run(capsys, "kvol-point", "--n", "8", "--x", "0")
        assert code == EXIT_CONFIG
        assert "--x and --y" in err

    def test_conflicting_coordinates(self, capsys):
        code, _, _ = run(capsys, "kvol-point", "--n", "8", "--at-ngon", "--x", "0")
        assert code == EXIT_CONFIG

    def test_bad_rational(self, capsys):
        code, _, err = run(capsys, "kvol-point", "--n", "8", "--x", "zero", "--y", "1")
        assert code == EXIT_CONFIG
        assert "rational" in err

    def test_nonpositive_height(self, capsys):
        code, _, _ = run(capsys, "kvol-point", "--n", "8", "--x", "0", "--y", "-1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ("1e400", "1", "--x is beyond the double range"),
            ("1", "1e400", "--y is beyond the double range"),
            ("1", "1e-400", "--y rounds to 0 as a double"),
        ],
    )
    def test_coordinates_outside_doubles(self, capsys, x, y, message):
        code, out, err = run(capsys, "kvol-point", "--n", "8", "--x", x, "--y", y)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {message}\n"

    def test_point_far_from_strip(self, capsys):
        # the witness ends round to one double here; the circle is built
        # from the exact center and half-width
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--x", "10000000000", "--y", "1e-10")
        assert code == EXIT_OK
        assert json.loads(out)["converged"] is True

    def test_point_near_the_cusp_at_zero_reduces_in_one_token(self, capsys):
        # a run of 10,824 TV steps, one token; when each step was a token
        # the run overran the 10,000-token budget and the command exited 5
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--x", "5e-5", "--y", "1e-7")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["witnesses"] == [{"word": [["TV", -10824]]}]
        assert d["converged"] is True

    def test_point_high_in_cusp_is_not_certified(self, capsys):
        # rounding in the search frame grows with y: here the search value
        # reads 5.67e-10 against an exact 8.2e-10
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--x", "0.1", "--y", "1e7")
        assert code == EXIT_OK
        assert '"converged": false' in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y", [("0", "1e300"), ("0.5", "1e160"), ("1e5", "1e160"), ("0", "1e150")])
    def test_point_past_the_squares_range(self, capsys, x, y):
        # past y of about 1.3e154 the search frame's squares overflow; the
        # value is still K0 to the double, and it is not certified
        code, out, err = run(capsys, "kvol-point", "--n", "8", "--x", x, "--y", y)
        assert (code, err) == (EXIT_OK, "")
        d = json.loads(out, parse_constant=_reject_constant)
        assert d["value"] == d["params"]["K0"]
        assert math.isfinite(d["params"]["dist"]) and d["converged"] is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y", [("0", "1e-200"), ("0", "1e-160"), ("1e-170", "1e-165")])
    def test_point_below_the_squares_range(self, capsys, x, y):
        # below |z| of about 1.5e-154 the search frame's squares leave the
        # normal range, and the frame is scaled as past the top: the dist is
        # finite and not certified, and the batch path gives the same bits
        code, out, err = run(capsys, "kvol-point", "--n", "8", "--x", x, "--y", y)
        assert (code, err) == (EXIT_OK, "")
        d = json.loads(out, parse_constant=_reject_constant)
        dist = d["params"]["dist"]
        assert math.isfinite(dist) and d["converged"] is False
        dists, flags = dist_to_Gmax_batch([complex(float(x), float(y))], 8)
        assert (float(dists[0]).hex(), bool(flags[0])) == (dist.hex(), False)

    def test_bruteforce_cross_check(self, capsys):
        code, out, _ = run(
            capsys,
            "kvol-point", "--n", "8", "--x", "1/4", "--y", "4/5",
            "--bruteforce", "--L", "8",
        )
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["bruteforce"]["mode"] == "bruteforce"
        assert d["bruteforce"]["value"] <= d["value"] + 1e-9

    def test_bruteforce_cap_in_model_unit(self, capsys):
        # the sheared vertical side sin(pi/4)/2 is shorter than l_m here, and
        # the default cap is still 30 l_m
        code, out, _ = run(capsys, "kvol-point", "--n", "8", "--x", "0", "--y", "1/2",
                           "--bruteforce")
        assert code == EXIT_OK
        L = json.loads(out)["bruteforce"]["params"]["L"]
        assert L == pytest.approx(30 * math.sin(math.pi / 8), rel=1e-15)

    @pytest.mark.parametrize("flag", ["--L", "--L-abs"])
    def test_bruteforce_cap_too_short(self, capsys, flag):
        """A cap that holds fewer than two closed curves is a configuration
        error, named as the command line gave it."""
        code, out, err = run(capsys, "kvol-point", "--n", "8", "--x", "0", "--y", "1",
                             "--bruteforce", flag, "1e-300")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {flag} 1e-300 is too short: fewer than two closed curves fit\n"


class TestKvolGridCommand:
    def test_csv_shape_and_filter(self, capsys):
        code, out, _ = run(capsys, "kvol-grid", "--n", "8", "--resolution", "12")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,kvol,dist,converged"
        rows = [line.split(",") for line in lines[1:]]
        assert 0 < len(rows) < 12 * 12  # cusp neighborhood is excluded
        phi = 2 * math.cos(math.pi / 8)
        for x, y, kv, dist, flag in rows:
            x, y, kv, dist = map(float, (x, y, kv, dist))
            assert 0 <= x <= phi / 2 and 0 < y <= 1.25
            assert flag in ("true", "false")
            assert abs(kv - (4 + 2 * math.sqrt(2)) / math.cosh(dist)) < 1e-9

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "kvol-grid", "--n", "8", "--resolution", "10")
        _, second, _ = run(capsys, "kvol-grid", "--n", "8", "--resolution", "10")
        assert first == second

    def test_resolution_cap(self, capsys):
        code, _, err = run(capsys, "kvol-grid", "--n", "8", "--resolution", "2001")
        assert code == EXIT_CONFIG
        assert "resolution" in err

    def test_ngon_point_at_n64(self, capsys):
        # the point is (float(Phi/2), float(sin(pi/64))), each the double
        # nearest its exact value, and K0 the double nearest K0
        code, out, _ = run(capsys, "kvol-point", "--n", "64", "--at-ngon")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["y"] == 0.049067674327418015 == math.sin(math.pi / 64)
        assert d["params"]["K0"] == 3322.7604978552126

    def test_bruteforce_at_n16_far_shear_stays_below_k0(self, capsys):
        # brute force at x = 29 once printed 52.58420, above K0 = 52.54828
        code, out, _ = run(
            capsys, "kvol-point", "--n", "16", "--x", "29", "--y", "2/47", "--bruteforce", "--L", "6"
        )
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["bruteforce"]["value"] <= d["params"]["K0"]
        assert abs(d["rel_gap"]) <= 1e-15

    def test_twisted_model_unsupported(self, capsys):
        code, _, _ = run(capsys, "kvol-grid", "--n", "10", "--resolution", "10")
        assert code == EXIT_UNSUPPORTED

    def test_window_override(self, capsys):
        code, out, _ = run(
            capsys,
            "kvol-grid", "--n", "8", "--resolution", "5",
            "--xmin", "0.2", "--xmax", "0.4", "--ymin", "0.9", "--ymax", "1.1",
        )
        assert code == EXIT_OK
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 25  # window fully inside the domain


    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--n", "8", "--resolution", "200"),
                "4c7b0f1f5aef472de9728dad8baff2b4474fa0f78c4084af241f75fa4972356e",
            ),
            (
                ("--n", "12", "--resolution", "150", "--xmin", "-2", "--xmax", "2",
                 "--ymin", "0.01", "--ymax", "3"),
                "5faeb82ce60b8c2daca0d30adcb45ff2c9fe872058218839a71c4337f3094f1c",
            ),
            # taken from the grid written row by row with '%.17g', before the
            # rows were written from arrays
            (
                ("--n", "8", "--resolution", "400"),
                "ff2f501da820bb488e3c05394a4a06597f8ae694966bd2dfcd28cd7609ecac30",
            ),
            (
                ("--n", "16", "--resolution", "200"),
                "04a45ebba89686383f959b2b669f59bacd3678c656a14fa3c9bf7af627809258",
            ),
        ],
    )
    def test_pinned_grids(self, capsys, argv, digest):
        # digests of the output of the row-by-row grid with scalar domain
        # tests, re-pinned when the batch took math.asinh of each sinh: the
        # last digits of kvol and dist moved in 6,415 of 25,511 and 2,385 of
        # 9,304 rows, and no flag moved
        code, out, _ = run(capsys, "kvol-grid", *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cells", [1, 7, hyperbolic._CELLS, 2 * hyperbolic._CELLS])
    def test_chunk_size_does_not_show(self, capsys, monkeypatch, cells):
        # the grid is searched and written a chunk of cells at a time; the
        # 6,376 cells of this grid in chunks of one, seven, the default and
        # twice it give the bytes of the grid in one chunk
        argv = ("--n", "8", "--resolution", "100")
        monkeypatch.setattr(hyperbolic, "_CELLS", 1 << 30)
        code, whole, _ = run(capsys, "kvol-grid", *argv)
        assert code == EXIT_OK and whole.count("\n") - 1 > cells
        monkeypatch.setattr(hyperbolic, "_CELLS", cells)
        code, out, _ = run(capsys, "kvol-grid", *argv)
        assert code == EXIT_OK and out == whole

    def test_out_file_is_stdout(self, capsys, tmp_path):
        argv = ("kvol-grid", "--n", "8", "--resolution", "60")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        target = tmp_path / "grid.csv"
        code, empty, _ = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_OK and empty == ""
        assert target.read_bytes() == out.encode()

    def test_small_dist_takes_the_exponent_layout(self, capsys):
        # dist below 1e-4 prints as d.ddde-XX: 1,813 rows with e-05, 712 with
        # e-06 and 108 with e-07, as the row-by-row '%.17g' grid printed them
        code, out, _ = run(capsys, "kvol-grid", "--n", "8", "--resolution", "400")
        assert code == EXIT_OK
        dists = [row.split(",")[3] for row in out.splitlines()[1:]]
        exps = [d[-4:] for d in dists if "e" in d]
        assert len(exps) == 2633 and set(exps) == {"e-05", "e-06", "e-07"}

    def test_window_outside_domain(self, capsys):
        code, out, _ = run(
            capsys,
            "kvol-grid", "--n", "8", "--resolution", "20",
            "--xmin", "1.5", "--xmax", "3", "--ymin", "0.1", "--ymax", "1",
        )
        assert code == EXIT_OK
        assert out == "x,y,kvol,dist,converged\n"

    @pytest.mark.parametrize("bound", ["--ymax=inf", "--xmin=-inf", "--ymin=nan", "--xmax=1e400"])
    def test_non_finite_window(self, capsys, bound):
        code, out, err = run(capsys, "kvol-grid", "--n", "8", "--resolution", "5", bound)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    def test_window_past_the_squares_range(self, capsys):
        code, out, err = run(
            capsys, "kvol-grid", "--n", "8", "--resolution", "3", "--ymin", "1e300", "--ymax", "2e300"
        )
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 9
        for _, _, value, dist, converged in rows:
            assert float(value) == float(k0_constant(8))
            assert math.isfinite(float(dist)) and converged == "false"

    def test_overflowing_cell_size(self, capsys):
        code, _, err = run(
            capsys, "kvol-grid", "--n", "8", "--resolution", "5", "--xmin=-1e308", "--xmax=1e308"
        )
        assert code == EXIT_CONFIG
        assert "finite" in err


def _written(values):
    """``_g17`` of the values, each row read back as a string."""
    rows = _g17(np, np.array(values, dtype=float))
    assert rows.shape == (len(values), 43)
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in rows]


class TestGridWriter:
    """``_g17`` writes the grid's kvol and dist fields in numpy, and each is
    ``'%.17g' % x`` (``FLOAT_SPEC``) to the byte."""

    def test_seeded_doubles_in_every_decade(self):
        rng = np.random.default_rng(4401)
        values = [
            x
            for d in range(-10, 13)
            for x in rng.uniform(10.0**d, min(10.0 ** (d + 1), 2.0**40), 10000).tolist()
        ]
        assert len(values) == 230000 and min(values) >= 1e-10 and max(values) < 2.0**40
        assert _written(values) == ["%.17g" % x for x in values]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{j}") for j in range(-10, 13)]
        below = [float(np.nextafter(p, 0.0)) for p in powers]
        values = below + powers + [float(np.nextafter(p, math.inf)) for p in powers]
        values += [float(np.nextafter(2.0**40, 0.0)), float(np.nextafter(1e-10, math.inf))]
        assert _written(values) == ["%.17g" % x for x in values]
        # log10 rounds up to the next power of ten for some doubles below
        # one, whose k is then recomputed; none of them rounds up to it at
        # 17 digits
        assert any(math.floor(np.log10(x)) == j for x, j in zip(below, range(-10, 13)))
        assert all(Fraction("%.17g" % x) < Fraction(10) ** j for x, j in zip(below, range(-10, 13)))

    def test_exact_ties_round_half_to_even(self):
        # a + b/64, a of 12 digits and b odd: 18 digits, the last a 5
        rng = np.random.default_rng(4402)
        ties = [123456789012.015625, 123456789012.046875]
        ties += [a + b / 64 for a, b in zip(rng.integers(10**11, 10**12, 94).tolist(), range(1, 189, 2))]
        exact = [str(Decimal(t)) for t in ties]
        assert all(len(e) == 19 and e.endswith("5") for e in exact)
        written = _written(ties)
        assert written[:2] == ["123456789012.01562", "123456789012.04688"]
        assert written == ["%.17g" % x for x in ties]
        # both parities of the 17th digit: kept and rounded up
        kept = sum(w == e[:-1] for w, e in zip(written, exact))
        assert 0 < kept < len(ties)

    def test_other_doubles_and_empty_arrays(self):
        others = [0.0, 5e-324, 1e-300, 2.0**53, 1e300, -1.5, math.inf, math.nan]
        assert _written(others) == ["%.17g" % x for x in others]
        mixed = [1e300, 0.25, 0.0, 3e-7]
        assert _written(mixed) == ["%.17g" % x for x in mixed]
        assert _written([]) == []


class TestVerifyCommand:
    def test_thm12_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm12", "--n", "8",
                           "--L-abs", "1.2")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["pass"] is True
        assert d["equality_count"] == 6
        assert d["violation_count"] == 0

    def test_thm12_fail_when_under_enumerated(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm12", "--n", "8",
                           "--L-abs", "0.9")
        assert code == EXIT_VERIFY
        assert json.loads(out)["pass"] is False

    def test_thm12_checking_no_pair_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm12", "--n", "10",
                           "--L-abs", "1e-300")
        d = json.loads(out)
        assert (code, d["pass"], d["pairs_checked"]) == (EXIT_VERIFY, False, 0)

    def test_thm12_strict_bound_decided_exactly(self, capsys, monkeypatch):
        """For n = 2 mod 4 no violation and no equality decide the strict
        bound, whatever float the largest ratio rounds to."""
        from kvol import cli
        from kvol.field import CycloReal
        from kvol.ratios import BoundReport

        rep = BoundReport(10, "ngon", 3.0, CycloReal.from_rational(10, 1), 1, [], [], 1 - 1e-12, [])
        monkeypatch.setattr(cli, "verify_ngon_bound", lambda n, L: rep)
        code, out, _ = run(capsys, "verify", "--suite", "thm12", "--n", "10")
        assert (code, json.loads(out)["pass"]) == (EXIT_OK, True)

    def test_parallel_cap_below_every_connection_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "parallel", "--n", "8",
                             "--L-abs", "1e-300")
        assert (code, err) == (EXIT_VERIFY, "")
        d = json.loads(out)
        assert d["pass"] is False
        assert d["directions"] == [
            {"direction": label, "curves": 0, "pairs_checked": 0, "nonzero": 0, "pass": False}
            for label in (0, "inf")
        ]

    def test_parallel_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "parallel", "--n", "10")
        assert code == EXIT_OK
        d = json.loads(out)
        assert d["pass"] is True
        assert {x["direction"] for x in d["directions"]} == {0, "inf"}

    def test_formula_pass_and_determinism(self, capsys):
        argv = ("verify", "--suite", "formula", "--n", "8",
                "--samples", "1", "--L", "8", "--seed", "3")
        code, first, _ = run(capsys, *argv)
        assert code == EXIT_OK
        d = json.loads(first)
        assert d["pass"] is True and len(d["points"]) == 1
        assert d["max_rel_gap"] <= 0.02
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_formula_cap_too_short_fails_the_point(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "formula", "--n", "8",
                             "--samples", "1", "--L", "1e-300")
        assert (code, err) == (EXIT_VERIFY, "")
        d = json.loads(out)
        assert d["pass"] is False and len(d["points"]) == 1
        point = d["points"][0]
        assert (point["bruteforce"], point["rel_gap"], point["pass"]) == (None, None, False)

    def test_formula_twisted_model_unsupported(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "formula", "--n", "14")
        assert code == EXIT_UNSUPPORTED

    def test_length_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "thm12", "--n", "8",
                           "--L-abs", "1000")
        assert code == EXIT_CONFIG
        assert "cap" in err

    @pytest.mark.parametrize(
        "flag, shown",
        [("--L=1e400", "inf"), ("--L-abs=1e400", "inf"), ("--L-abs=-1e400", "-inf"),
         ("--L=-1", "-0.309017")],
    )
    def test_length_cap_message(self, capsys, flag, shown):
        code, out, err = run(capsys, "kvol-bound", "--n", "10", flag)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: length bound {shown} outside the enumeration cap (0, 64]\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_formula_needs_samples(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--suite", "formula", "--n", "8",
                             f"--samples={samples}")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: --samples must be at least 1\n"


class TestKvolBoundCommand:
    def test_bound_report_and_exit_codes(self, capsys):
        code, out, _ = run(capsys, "kvol-bound", "--n", "10", "--L", "3")
        assert code == EXIT_OK
        d = json.loads(out)
        phi, lm = 2 * math.cos(math.pi / 10), math.sin(math.pi / 10)
        assert d["n"] == 10 and d["ok"] is True and d["violations"] == []
        assert abs(d["bound"] - 1 / (phi * lm * lm)) < 1e-12
        assert d["pairs_checked"] > 0 and d["max_ratio"] <= d["bound"]
        code, _, err = run(capsys, "kvol-bound", "--n", "8")
        assert code == EXIT_UNSUPPORTED and "n ≡ 2 mod 4" in err
        # a cap below every closed curve certifies nothing, and that fails
        code, out, _ = run(capsys, "kvol-bound", "--n", "10", "--L-abs", "1e-300")
        d = json.loads(out)
        assert (code, d["ok"], d["pairs_checked"]) == (EXIT_VERIFY, False, 0)
        # the closed-formula hint names this subcommand
        _, _, err = run(capsys, "kvol-point", "--n", "10", "--x", "0", "--y", "1")
        assert "use kvol-bound" in err


class TestComputationLimits:
    def test_limit_maps_to_exit_code(self, capsys, monkeypatch):
        import kvol.cli
        from kvol.field import ComputationLimitError

        def exhausted(*args, **kwargs):
            raise ComputationLimitError("fundamental-domain reduction did not terminate")

        monkeypatch.setattr(kvol.cli, "kvol_closed_formula", exhausted)
        code, out, err = run(capsys, "kvol-point", "--n", "8", "--x", "0", "--y", "1")
        assert code == EXIT_LIMIT == 5
        assert out == ""
        assert err == "limit: fundamental-domain reduction did not terminate\n"

    def test_enumeration_node_budget(self, capsys, monkeypatch):
        import kvol.saddle
        from kvol.field import ComputationLimitError
        from kvol.surface import build_staircase

        monkeypatch.setattr(kvol.saddle, "_MAX_NODES", 10)
        with pytest.raises(ComputationLimitError, match="node budget"):
            kvol.saddle.enumerate_saddle_connections(build_staircase(8), 3)
        code, out, err = run(
            capsys, "kvol-point", "--n", "8", "--x", "1/5", "--y", "7/10", "--bruteforce", "--L", "8"
        )
        assert code == EXIT_LIMIT == 5
        assert out == ""
        assert err == "limit: saddle enumeration exceeded the node budget\n"

    def test_reduction_budget_raises_limit(self):
        from kvol.field import ComputationLimitError
        from kvol.hyperbolic import reduce_to_fundamental_domain

        with pytest.raises(ComputationLimitError):
            reduce_to_fundamental_domain(complex(5.0, 0.01), 8, max_steps=1)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("kvol-point", "--n", "8", "--x", "1/5", "--y", "7/10", "--bruteforce", "--L", "8"),
            "b086a8dd490b55900efafd2de88dbb2e6700dab085deb7b995bf7b691284ee6e",
        ),
        (
            ("kvol-point", "--n", "8", "--x", "1/7", "--y", "2/5", "--bruteforce", "--L", "6"),
            "316a13f4c27b2b084064234e7778f8f80fe5c70d5d856b68993d0d09baf7fbb9",
        ),
        (
            ("verify", "--suite", "thm12", "--n", "8"),
            "64665e929a1c697d170bf284aaab789115d7e23913816dafbb10ecebb8a8fc89",
        ),
        (
            ("verify", "--suite", "thm12", "--n", "10"),
            "5a082e6eee69358aba6886ce6f102f1f79de4250af107f38b7bda4d7b2031f60",
        ),
        (
            ("verify", "--suite", "parallel", "--n", "8"),
            "0e53e945db1703c35671a2dbfe2ef2ece782836d6923c000839b635b62d7a2b6",
        ),
        (
            ("kvol-bound", "--n", "10"),
            "9e51aeec5650f05be65d4e0691925a7bedcfac9ba2c04e4761e840bcff34af73",
        ),
        (
            ("surface", "--n", "12", "--model", "staircase"),
            "d0b2be81ff97b97c56c31c35cdc1e32b965bfc7da9f62e18f5cf4032905a5340",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v[:8],
)
def test_pinned_json(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("kvol-point", "--n", "10", "--x", "0", "--y", "1"),
        ("kvol-grid", "--n", "10"),
        ("verify", "--suite", "formula", "--n", "10"),
    ],
    ids=" ".join,
)
def test_one_closed_formula_gate(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == "unsupported: closed formula requires n ≡ 0 mod 4; use kvol-bound\n"


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python argv`` in a new interpreter that imports kvol from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_fresh_process_matches_in_process(capsys):
    argv = ("kvol-point", "--n", "8", "--x", "0", "--y", "1")
    done = _fresh("-m", "kvol.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


def test_saddle_imports_without_numpy():
    code = "import sys, kvol.saddle; print('numpy' in sys.modules, 'mpmath' in sys.modules)"
    done = _fresh("-c", code)
    assert (done.returncode, done.stdout) == (0, "False False\n")


# In a fresh process: records, for numpy and mpmath, the innermost kvol frame
# (module.function) that first imported each, then runs the statement given
# as sys.argv[1] and prints the record as JSON on the last line of stdout.
_LOADERS = """
import json, sys, traceback
from pathlib import Path
loaders = {}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name in ("numpy", "mpmath") and name not in loaders:
            kvol = [f for f in traceback.extract_stack() if Path(f.filename).parent.name == "kvol"]
            loaders[name] = f"{Path(kvol[-1].filename).stem}.{kvol[-1].name}" if kvol else "?"
sys.meta_path.insert(0, Spy())
exec(sys.argv[1])
print(json.dumps(loaders))
"""


def _loaders(statement: str) -> dict:
    done = _fresh("-c", _LOADERS, statement)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "statement",
    [
        "import kvol.ratios",
        "import kvol.cli",
        "from kvol.cli import main; main(['kvol-point', '--n', '8', '--x', '0', '--y', '1'])",
        "from kvol.cli import main; main(['kvol-point', '--n', '8', '--x', '1/5', '--y', '7/10'])",
        # past the search budget, deep in the cusp at 0: the nearest vertical
        "from kvol.cli import main; main(['kvol-point', '--n', '8', '--x', '5e-15', '--y', '1e-7'])",
        "from kvol.cli import main; main(['surface', '--n', '8'])",
        # within two ulps of a disk edge, where the point and array domain
        # tests once rounded apart
        "from kvol.cli import main; main(['kvol-point', '--n', '8', '--x', '0.1766508797262053', '--y', '0.4'])",
    ],
)
def test_one_point_commands_load_neither_numpy_nor_mpmath(statement):
    assert _loaders(statement) == {}


def test_reduction_loads_neither_numpy_nor_mpmath():
    # a point that needs reduction: Phi's enclosure, which fixes the
    # reduction's point, comes from integer Newton steps
    statement = "from kvol.cli import main; main(['kvol-point', '--n', '8', '--x', '7/3', '--y', '1/50'])"
    assert _loaders(statement) == {}


@pytest.mark.parametrize(
    "argv",
    [
        ["kvol-bound", "--n", "10"],
        ["kvol-point", "--n", "8", "--x", "1/5", "--y", "7/10", "--bruteforce", "--L", "8"],
        ["kvol-grid", "--n", "8", "--resolution", "20"],
        ["verify", "--suite", "formula", "--n", "8", "--samples", "2", "--seed", "3", "--L", "10"],
    ],
)
def test_commands_never_load_mpmath(argv):
    # square roots in the field and every enclosure are integer arithmetic;
    # numpy may load for arrays
    assert "mpmath" not in _loaders(f"from kvol.cli import main; main({argv!r})")


def test_loader_record_names_the_importer():
    # the record is live: the grid builds arrays in cli.cmd_kvol_grid
    statement = "from kvol.cli import main; main(['kvol-grid', '--n', '8', '--resolution', '2'])"
    assert _loaders(statement)["numpy"] == "cli.cmd_kvol_grid"
