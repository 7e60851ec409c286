"""Command-line front end: dump surfaces, evaluate KVol at points and on
grids, and run the verification suites.

Output is JSON (surfaces, point evaluations, verification reports) or CSV
(grids) so external tools can plot the landscape.  Every command exits 0 on
success, 2 on a configuration error, 3 on an unsupported case, 4 when a
verification suite fails, and 5 when a computation hits its budget.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .field import FLOAT_SPEC, ComputationLimitError, CycloReal, as_field, trig_value
from .hyperbolic import dist_to_Gmax_batch, in_fundamental_domain
from .plane import Mat2
from .ratios import (
    ParallelReport,
    UnrealizedDirectionError,
    UnsupportedCaseError,
    bound_4m2,
    check_parallel_criterion,
    is_side_pair_witness,
    k0_constant,
    kvol_bruteforce,
    kvol_closed_formula,
    length_unit,
    require_closed_formula,
    side_pairs,
    verify_ngon_bound,
)
from .surface import TranslationSurface, build_ngon, build_staircase

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4
EXIT_LIMIT = 5

# enumeration cap: absolute length bounds beyond this are refused up front
MAX_ABS_LENGTH = 64
MAX_RESOLUTION = 2000


class ConfigError(Exception):
    """Invalid command-line configuration (exit code 2)."""


def _check_n(n: int, *, allow_torus: bool = False) -> None:
    if allow_torus and n == 4:
        return
    if n < 8 or n % 2 != 0:
        raise ConfigError("n must be even ≥ 8")


def _parse_exact(text: str, what: str) -> Fraction:
    """Exact rational from a CLI string: '3', '3/2', or '0.35'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what} must be a rational number, got {text!r}") from exc


def _resolve_length(args, surface: TranslationSurface, default_units: Fraction):
    """The exact length bound: --L in the length unit of the surface's model,
    --L-abs absolute."""
    if args.L_abs is not None:
        L = _parse_exact(args.L_abs, "--L-abs") * CycloReal.from_rational(surface.n, 1)
    else:
        units = _parse_exact(args.L, "--L") if args.L is not None else default_units
        L = length_unit(surface) * units
    if L.sign() <= 0 or L > MAX_ABS_LENGTH:
        try:
            shown = f"{float(L):g}"
        except OverflowError:  # beyond the double range
            shown = "inf" if L.sign() > 0 else "-inf"
        raise ConfigError(
            f"length bound {shown} outside the enumeration cap (0, {MAX_ABS_LENGTH:g}]"
        )
    return L


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def cmd_surface(args) -> int:
    _check_n(args.n, allow_torus=args.model == "ngon")
    if args.model == "ngon":
        S = build_ngon(args.n)
    else:
        S = build_staircase(args.n)
    _emit_json(args, S.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# kvol-point
# ---------------------------------------------------------------------------


def _point_args(args) -> tuple[Fraction, Fraction]:
    if args.at_ngon:
        if args.x is not None or args.y is not None:
            raise ConfigError("--at-ngon replaces --x/--y; give one or the other")
        return None, None
    if args.x is None or args.y is None:
        raise ConfigError("kvol-point needs --x and --y (or --at-ngon)")
    x = _parse_exact(args.x, "--x")
    y = _parse_exact(args.y, "--y")
    if y <= 0:
        raise ConfigError("--y must be positive")
    _check_double(x, "--x")
    if _check_double(y, "--y") == 0.0:
        raise ConfigError("--y rounds to 0 as a double")
    return x, y


def _check_double(value: Fraction, flag: str) -> float:
    """The double nearest ``value``; the evaluation runs in doubles, so a
    value past their range is a configuration error."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{flag} is beyond the double range") from None


def cmd_kvol_point(args) -> int:
    _check_n(args.n)
    n = args.n
    x, y = _point_args(args)
    if args.at_ngon:
        x_exact, y_exact = CycloReal.phi(n) / 2, trig_value(n, "sin", 1)
    else:
        x_exact, y_exact = as_field(n, x), as_field(n, y)
    z = complex(float(x_exact), float(y_exact))
    rep = kvol_closed_formula(n, z, k_max=args.k_max, word_len=args.word_len)
    payload = {"n": n, "x": float(z.real), "y": float(z.imag), **rep.to_dict()}
    if args.bruteforce:
        S = build_staircase(n).transform(Mat2(n, 1, x_exact, 0, y_exact))
        try:
            brute = kvol_bruteforce(S, _resolve_length(args, S, Fraction(30)))
        except UnrealizedDirectionError:  # a cap too short for two closed curves
            cap = f"--L-abs {args.L_abs}" if args.L_abs is not None else f"--L {args.L or 30}"
            raise ConfigError(f"{cap} is too short: fewer than two closed curves fit") from None
        payload["bruteforce"] = brute.to_dict()
        payload["rel_gap"] = float((rep.value - brute.value) / rep.value)
    _emit_json(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# kvol-grid
# ---------------------------------------------------------------------------


def cmd_kvol_grid(args) -> int:
    _check_n(args.n)
    n = args.n
    require_closed_formula(n)
    res = args.resolution
    if res < 1 or res > MAX_RESOLUTION:
        raise ConfigError(f"resolution must be between 1 and {MAX_RESOLUTION}")
    phi = float(CycloReal.phi(n))
    xmin = args.xmin if args.xmin is not None else 0.0
    xmax = args.xmax if args.xmax is not None else phi / 2
    ymin = args.ymin if args.ymin is not None else 0.0
    ymax = args.ymax if args.ymax is not None else 1.25
    dx = (xmax - xmin) / res
    dy = (ymax - ymin) / res
    if not all(map(math.isfinite, (xmin, xmax, ymin, ymax, dx, dy))):
        raise ConfigError("grid window bounds and cell sizes must be finite")
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError("empty grid window")
    k0 = float(k0_constant(n))
    steps = np.arange(res) + 0.5
    xs, ys = xmin + steps * dx, ymin + steps * dy
    cells = np.tile(xs, res) + 1j * np.repeat(ys, res)
    kept = np.flatnonzero(in_fundamental_domain(cells, n))
    dists, flags = dist_to_Gmax_batch(cells[kept], n)
    # each column's x and each row's y is formatted once and picked by index;
    # k0/cosh per element, as np.cosh can differ in the last bit; 1,024 rows at
    # a time, as floats of whole columns would hold their memory among the rows
    spec = "%" + FLOAT_SPEC
    x_txt, y_txt = ([spec % v for v in a.tolist()] for a in (xs, ys))
    row = ",".join(["%s", "%s", spec, spec, "%s"])
    out = ["x,y,kvol,dist,converged"]
    for i in range(0, kept.size, 1024):
        y_at, x_at = np.divmod(kept[i : i + 1024], res)
        cols = (c.tolist() for c in (x_at, y_at, dists[i : i + 1024], flags[i : i + 1024]))
        out += [
            row % (x_txt[c], y_txt[r], k0 / math.cosh(d), d, ("false", "true")[ok])
            for c, r, d, ok in zip(*cols)
        ]
    _emit(args, "\n".join(out) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# kvol-bound
# ---------------------------------------------------------------------------


def cmd_kvol_bound(args) -> int:
    """Certify the n ≡ 2 (mod 4) bound 1/(Phi l_m^2) on the staircase."""
    _check_n(args.n)
    L = _resolve_length(args, build_staircase(args.n), Fraction(5))
    rep = bound_4m2(args.n, L)
    _emit_json(args, rep.to_dict())
    return EXIT_OK if rep.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_thm12(args) -> dict:
    n = args.n
    X = build_ngon(n)
    L = _resolve_length(args, X, Fraction(3))
    rep = verify_ngon_bound(n, L)
    if n % 4 == 0:
        expected = side_pairs(n)
        shape_ok = len(rep.equalities) == expected and all(
            is_side_pair_witness(w) for w in rep.equalities
        )
    else:
        shape_ok = not rep.equalities and rep.max_ratio < 1 - 1e-9
    return {
        "suite": "thm12",
        "n": n,
        "L": rep.L,
        "pass": bool(rep.ok and shape_ok),
        "bound": float(rep.bound),
        "pairs_checked": rep.pairs_checked,
        "equality_count": len(rep.equalities),
        "violation_count": len(rep.violations),
        "max_ratio": float(rep.max_ratio),
    }


def _verify_parallel(args) -> dict:
    n = args.n
    S = build_staircase(n)
    L = _resolve_length(args, S, Fraction(6))
    directions = []
    for d in (0, "inf"):
        try:
            rep = check_parallel_criterion(S, d, L)
        except UnrealizedDirectionError:  # both are periodic: the cap is too short
            rep = ParallelReport(d, 0, 0, 0, [])  # checks nothing, so fails
        directions.append(
            {
                "direction": d,
                "curves": rep.count_curves,
                "pairs_checked": rep.pairs_checked,
                "nonzero": len(rep.nonzero),
                "pass": rep.ok,
            }
        )
    return {
        "suite": "parallel",
        "n": n,
        "L": float(L),
        "pass": all(d["pass"] for d in directions),
        "directions": directions,
    }


def _verify_formula(args) -> dict:
    n = args.n
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    require_closed_formula(n)
    S = build_staircase(n)
    L = _resolve_length(args, S, Fraction(30))
    phi = float(CycloReal.phi(n))
    rng = random.Random(args.seed)
    samples = []
    while len(samples) < args.samples:
        x = Fraction(rng.uniform(0.0, phi / 2)).limit_denominator(400)
        y = Fraction(rng.uniform(0.4, 1.3)).limit_denominator(400)
        if in_fundamental_domain(complex(x, y), n):
            samples.append((x, y))
    points = []
    ok = True
    max_gap = 0.0
    any_converged = False
    for x, y in samples:
        z = complex(x, y)
        formula = kvol_closed_formula(n, z, k_max=args.k_max, word_len=args.word_len)
        try:
            brute = kvol_bruteforce(S.transform(Mat2(n, 1, x, 0, y)), L)
            rel = (formula.value - brute.value) / formula.value
        except UnrealizedDirectionError:  # the cap is too short: nothing checked
            brute = rel = None
        record = {
            "x": float(x),
            "y": float(y),
            "formula": float(formula.value),
            "bruteforce": None if brute is None else float(brute.value),
            "rel_gap": None if rel is None else float(rel),
            "converged": formula.converged,
        }
        if brute is None:
            ok = False
            record["pass"] = False
        elif formula.converged:
            any_converged = True
            max_gap = max(max_gap, abs(rel))
            if brute.value > formula.value + 1e-9 or abs(rel) > 0.02:
                ok = False
                record["pass"] = False
        points.append(record)
    return {
        "suite": "formula",
        "n": n,
        "L": float(L),
        "samples": args.samples,
        "seed": args.seed,
        "pass": bool(ok and any_converged),
        "max_rel_gap": float(max_gap),
        "points": points,
    }


def cmd_verify(args) -> int:
    _check_n(args.n)
    runners = {
        "thm12": _verify_thm12,
        "parallel": _verify_parallel,
        "formula": _verify_formula,
    }
    report = runners[args.suite](args)
    _emit_json(args, report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_length_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--L",
        default=None,
        help="length bound in units of the model's shortest side",
    )
    p.add_argument(
        "--L-abs",
        dest="L_abs",
        default=None,
        help="length bound in absolute plane units",
    )


def _add_formula_flags(p: argparse.ArgumentParser) -> None:
    # the orbit search is exact: neither flag bounds it, and only kvol-point echoes them
    p.add_argument("--k-max", type=int, default=12, help="bounds nothing; kvol-point echoes it")
    p.add_argument("--word-len", type=int, default=10, help="bounds nothing; kvol-point echoes it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvol",
        description="KVol on regular n-gon translation surfaces and their "
        "staircase models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="dump a surface as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("ngon", "staircase"), default="ngon")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("kvol-point", help="closed-formula KVol at a disk point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default=None, help="real part (rational)")
    p.add_argument("--y", default=None, help="imaginary part (rational, > 0)")
    p.add_argument(
        "--at-ngon",
        action="store_true",
        help="evaluate at the n-gon point cos(pi/n) + i sin(pi/n)",
    )
    p.add_argument(
        "--bruteforce",
        action="store_true",
        help="cross-check with the exact pair enumeration",
    )
    _add_length_flags(p)
    _add_formula_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kvol_point)

    p = sub.add_parser("kvol-grid", help="closed-formula KVol on a grid (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--resolution", type=int, default=60)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    _add_formula_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kvol_grid)

    p = sub.add_parser(
        "kvol-bound", help="certify the n ≡ 2 mod 4 ratio bound on the staircase"
    )
    p.add_argument("--n", type=int, required=True)
    _add_length_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kvol_bound)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("thm12", "parallel", "formula"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_length_flags(p)
    _add_formula_flags(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedCaseError, UnrealizedDirectionError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ComputationLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
