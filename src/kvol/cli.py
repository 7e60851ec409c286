"""Command-line front end: dump surfaces, evaluate KVol at points and on
grids, and run the verification suites.

Output is JSON (surfaces, point evaluations, verification reports) or CSV
(grids) so external tools can plot the landscape.  Every command exits 0 on
success, 2 on a configuration error, 3 on an unsupported case, 4 when a
verification suite fails, and 5 when a computation hits its budget.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from .field import FLOAT_SPEC, ComputationLimitError, CycloReal, as_field, trig_value
from . import hyperbolic
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


@contextlib.contextmanager
def _output(args):
    """stdout, or the ``--out`` file opened on entry; failing to write it is exit 2."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _emit_json(args, payload: dict) -> None:
    with _output(args) as out:
        out.write(json.dumps(payload, indent=2) + "\n")


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
    import numpy as np
    k0 = float(k0_constant(n))
    steps = np.arange(res) + 0.5
    xs, ys = xmin + steps * dx, ymin + steps * dy
    cells = np.tile(xs, res) + 1j * np.repeat(ys, res)
    kept = np.flatnonzero(hyperbolic.in_fundamental_domain(cells, n))
    # a row is its fields, NUL-padded to fixed widths, x, y and the flag with
    # their separator; each column's x and each row's y is formatted once
    text = lambda strs: np.array([s.encode() for s in strs]).view(np.uint8).reshape(len(strs), -1)
    xt, yt = (text([("%" + FLOAT_SPEC + ",") % v for v in a.tolist()]) for a in (xs, ys))
    ft = text(["false\n", "true\n"])
    with _output(args) as out:
        out.write("x,y,kvol,dist,converged\n")
        for i in range(0, kept.size, hyperbolic._CELLS):
            part = kept[i : i + hyperbolic._CELLS]
            sinh, _, _, _, flags = hyperbolic._nearest(cells.real[part], cells.imag[part], n)
            dists = list(map(math.asinh, sinh.tolist()))
            # k0/cosh per element, as np.cosh can differ in the last bit
            kv, dv = np.split(_g17(np, np.array([k0 / math.cosh(d) for d in dists] + dists)), 2)
            y_at, x_at = np.divmod(part, res)
            comma = np.full((part.size, 1), 44, np.uint8)
            fields = [xt[x_at], yt[y_at], kv, comma, dv, comma, ft[flags.view(np.uint8)]]
            out.write(np.concatenate(fields, 1).tobytes().translate(None, b"\0").decode("ascii"))
    return EXIT_OK


# the width of a field of _g17: a lead "0.000", 17 digits each with a slot
# for a point after it, and "e-XX"
_G17_WIDTH = 43


def _g17(np, v):
    """``'%.17g' % x`` (``FLOAT_SPEC``) of each double ``x`` of ``v``, as the
    rows of a ``uint8`` matrix ``_G17_WIDTH`` wide, NUL bytes around them.

    A double of ``[1e-10, 2^40)`` is ``x = M 2^(e - 53)``, ``2^52 <= M <
    2^53``.  With ``k = floor(log10 x)`` and ``q = 16 - k``, ``x 10^q = P/2^s``
    for ``P = M 5^q`` and ``s = 53 - e - q``, so ``P/2^s`` rounded half to
    even is the correctly rounded 17-digit significand ``N``, as dtoa's mode
    2 gives it.  There ``4 <= q <= 27``, so ``5^q < 2^64``, and ``1 <= s <=
    63``: ``P < 2^116`` is exact as two 64-bit words from 32-bit limbs.
    ``np.log10`` may put ``k`` one off beside a power of ten: a truncated
    ``P/2^s`` outside ``[10^16, 10^17)`` is redone at the next ``k``.  No
    double of the range rounds up to a power of ten at 17 digits (only the
    one below each is near enough), so ``N < 10^17``.  The layout is
    ``%g``'s: fixed notation for ``-4 <= k < 17``, else an exponent of at
    least two digits; trailing zeros are stripped, and a bare point dropped.
    Any other double takes ``'%.17g' % x`` itself.
    """
    out = np.zeros((v.size, _G17_WIDTH), np.uint8)
    fast = (v >= 1e-10) & (v < 2.0**40)
    w = np.where(fast, v, 1.0)
    m, e = np.frexp(w)
    M, k = (m * 2.0**53).astype(np.uint64), np.floor(np.log10(w)).astype(np.int64)
    N, todo = np.empty(v.size, np.uint64), np.arange(v.size)
    pow5 = np.array([5**j for j in range(28)], np.uint64)
    while todo.size:
        q = 16 - k[todo]
        F, Mt, s = pow5[q], M[todo], (53 - e[todo] - q).astype(np.uint64)
        # P = hi 2^64 + lo, from the 32-bit limbs of M and 5^q
        M0, M1, F0, F1 = Mt & 0xFFFFFFFF, Mt >> 32, F & 0xFFFFFFFF, F >> 32
        low, mid = M0 * F0, M0 * F1 + M1 * F0
        lo = low + (mid << 32)
        T = ((M1 * F1 + (mid >> 32) + (lo < low)) << (64 - s)) | (lo >> s)
        half, rem = np.uint64(1) << (s - 1), lo & ((np.uint64(1) << s) - 1)
        N[todo] = T + ((rem > half) | ((rem == half) & (T & 1 == 1)))
        wrong = (T < 10**16) | (T >= 10**17)
        k[todo[wrong]] += np.where(T[wrong] < 10**16, -1, 1)
        todo = todo[wrong]
    # N's 17 ASCII digits, two at a time from "00".."99", behind one pad byte
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    D, x = np.empty((v.size, 9), np.uint16), N.astype(np.int64)
    for j in range(8, -1, -1):
        q = x // 100
        D[:, j], x = two[x - 100 * q], q
    out[:, 5:39:2] = D = D.view(np.uint8)[:, 1:]
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed & (k > 0), k, 0)  # the digit the point follows
    # the digits shown: to the last one not 0, and at least to the point
    shown, z = np.full(v.size, 17), np.flatnonzero(D[:, 16] == 48)
    shown[z] = np.maximum(17 - np.argmax(D[z, ::-1] != 48, axis=1), point[z] + 1)
    out[z, 5:39:2] *= np.arange(17) < shown[z, None]
    small = fixed & (k < 0)
    out[small, :5] = np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < 1 - k[small, None])
    dot = np.flatnonzero((shown > point + 1) & ~small)
    out[dot, 6 + 2 * point[dot]] = 46
    sci = np.flatnonzero(~fixed)
    out[sci, 39:] = np.array([b"e%+03d" % j for j in k[sci]], "S4").view(np.uint8).reshape(-1, 4)
    for i in np.flatnonzero(~fast).tolist():
        out[i] = np.frombuffer(("%.17g" % v[i]).encode().ljust(_G17_WIDTH, b"\0"), np.uint8)
    return out


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
        shape_ok = not rep.equalities
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
        if hyperbolic.in_fundamental_domain(complex(x, y), n):
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
