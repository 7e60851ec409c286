"""The three workloads: their seeded inputs, set-up, timed items and checks.

Inputs are drawn here from the seed with plain Python; kvol only receives
them.  Each workload's items are sized from ``--seconds`` by a nominal
per-item cost measured on a 2-CPU machine (pure-Python mpmath), so a run
does a fixed amount of work for a given seed and length, and a faster kvol
shows as a lower ``wall_s`` instead of as more items.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

N_FORMULA = 8  # the staircase of the brute and formula workloads
PHI8 = 2 * math.cos(math.pi / N_FORMULA)


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    sampled: bool = True  # counts towards the item-time percentiles
    threaded: bool = False  # starts threads, so the speed probe pauses


def in_fundamental_domain(x: float, y: float, phi: float, tol: float = 1e-9) -> bool:
    """The strip |x| <= phi/2 minus the disks of radius 1/phi at +-1/phi,
    boundary included: the domain every formula query is reduced into."""
    r = 1.0 / phi
    return (
        y > 0
        and abs(x) <= phi / 2 + tol
        and abs(complex(x, y) - r) >= r - tol
        and abs(complex(x, y) + r) >= r - tol
    )


def criterion_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A disk point drawn the way the formula-consistency acceptance
    criterion draws its sample."""
    while True:
        x = Fraction(rng.uniform(0.0, PHI8 / 2)).limit_denominator(64)
        y = Fraction(rng.uniform(0.4, 1.3)).limit_denominator(64)
        if in_fundamental_domain(float(x), float(y), PHI8):
            return x, y


def side_pair_count(n: int) -> int:
    m = n // 2
    return m * (m - 1) // 2


def is_side_pair(witness) -> bool:
    """A pair of single-edge curves on two distinct sides of the n-gon."""
    a, b, _ = witness
    if len(a.components) != 1 or len(b.components) != 1:
        return False
    pa, pb = a.components[0].edge_pair, b.components[0].edge_pair
    return pa is not None and pb is not None and pa != pb


# ---------------------------------------------------------------------------
# brute: kvol_bruteforce on sheared staircases
# ---------------------------------------------------------------------------


class Brute:
    """``kvol_bruteforce`` on S_8 sheared to seeded disk points.

    The cap is 20 l_m on the area-normalised surface: a point at height y
    has area y Vol(S_8), so its cap is 20 l_m sqrt(y).  KVol is scale
    invariant, and on a Veech surface the number of saddle connections up to
    a normalised length does not depend on the point, so every point costs
    about the same (about 330 connections) and a run's work does not swing
    with the seed.  Items 0 and 1 lie on the distinguished verticals x = 0
    and x = 1/Phi, where the exact answer is K_0.
    """

    CAP_LM = 20
    NOMINAL_ITEM_S = 4.4
    # six points rather than four: over ten seeds on a 2-CPU host the
    # quartile spread of item_p50_s fell from 0.089 to 0.077 of its median
    MIN_POINTS = 6
    PROBE_MEMORY = False

    def __init__(self, seed: int, seconds: int, smoke: bool):
        rng = random.Random(f"brute:{seed}")
        count = 3 if smoke else max(self.MIN_POINTS, round(seconds / self.NOMINAL_ITEM_S))
        self.cap_lm = 6 if smoke else self.CAP_LM
        # Orbit-family truncation (k_max, word_len) of the closed-formula
        # reference.  Keep kvol's default: at (1/44, 5/11) the (8, 6)
        # truncation reports converged=True with a value below brute force.
        self.family = (4, 4) if smoke else (12, 10)
        heights = [Fraction(rng.uniform(0.55, 1.3)).limit_denominator(64) for _ in range(2)]
        # x is "0" or "1/phi" on the verticals, a Fraction elsewhere
        self.points: list[tuple[Any, Fraction]] = [("0", heights[0]), ("1/phi", heights[1])]
        while len(self.points) < count:
            self.points.append(criterion_point(rng))

    def setup(self, region) -> None:
        from kvol import field, plane, ratios, surface

        n = N_FORMULA
        self.S = surface.build_staircase(n)
        self.k0 = ratios.k0_constant(n)
        one = field.CycloReal.from_rational(n, 1)
        lm = field.trig_value(n, "sin", 1)
        self.jobs = []
        for x, y in self.points:
            xe = one * 0 if x == "0" else one / field.CycloReal.phi(n) if x == "1/phi" else one * x
            scale = Fraction(self.cap_lm * math.sqrt(y)).limit_denominator(1000)
            self.jobs.append((plane.Mat2(n, one, xe, one * 0, one * y), lm * scale, float(xe)))
        # unsheared, at 8 l_m: enough kvol work (about 0.3 s) that set-up
        # time is not mostly interpreter start and imports, which swing more
        # from run to run than computation does
        with region("warmup"):
            ratios.kvol_bruteforce(self.S, lm * 8)

    def items(self) -> list[Item]:
        from kvol import ratios

        def job(M, L):
            return lambda: ratios.kvol_bruteforce(self.S.transform(M), L)

        return [Item(f"point{i}", job(M, L)) for i, (M, L, _) in enumerate(self.jobs)]

    def check(self, outputs: list) -> list[str | None]:
        reasons = []
        for i, rep in enumerate(outputs):
            if rep is None:
                reasons.append("raised an error")
                continue
            if rep.exact_value is not None:
                below = rep.exact_value <= self.k0
            else:
                below = rep.value <= float(self.k0) + 1e-9
            if not below:
                reasons.append(f"value {rep.value!r} exceeds K_0")
            elif i < 2 and rep.exact_value != self.k0:
                reasons.append(f"vertical point gives {rep.value!r}, not exactly K_0")
            else:
                reasons.append(None)
        return reasons

    def extras(self, outputs: list, times: list[float]) -> dict:
        """What the parent needs to check against the closed formula."""
        return {
            "family": self.family,
            "points": [
                {"x": xf, "y": float(y), "value": None if rep is None else rep.value}
                for (_, y), (_, _, xf), rep in zip(self.points, self.jobs, outputs)
            ]
        }


# ---------------------------------------------------------------------------
# formula: the closed formula on a grid and at scattered points
# ---------------------------------------------------------------------------

GRID_HEADER = "x,y,kvol,dist,converged"


class Formula:
    """One ``kvol-grid`` call over the default window at resolution 200
    (25,511 cells, all inside the fundamental domain), then seeded
    ``kvol_closed_formula`` points over the whole upper half-plane, with x in
    [-5, 5] and y log-uniform in [1e-3, 4], so most need long reduction
    words."""

    RESOLUTION = 200
    # each point masks and streams orbit-candidate arrays of 10-13 MB
    PROBE_MEMORY = True
    NOMINAL_GRID_S = 8.0
    NOMINAL_POINT_S = 0.018
    MIN_POINTS = 100  # enough for a 90th percentile with ten points above it

    def __init__(self, seed: int, seconds: int, smoke: bool):
        rng = random.Random(f"formula:{seed}")
        if smoke:
            count, self.resolution, self.family = 10, 20, (4, 4)
        else:
            spare = seconds - self.NOMINAL_GRID_S
            count = max(self.MIN_POINTS, round(spare / self.NOMINAL_POINT_S))
            self.resolution, self.family = self.RESOLUTION, (12, 10)
        self.points = [
            complex(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
            for _ in range(count)
        ]
        self.window = (0.0, PHI8 / 2, 0.0, 1.25)

    def setup(self, region) -> None:
        from kvol import ratios

        self.k0 = float(ratios.k0_constant(N_FORMULA))
        k_max, word_len = self.family
        with region("hyperbolic.first_eval"):
            ratios.kvol_closed_formula(N_FORMULA, complex(0.3, 0.8), k_max=k_max, word_len=word_len)

    def items(self) -> list[Item]:
        from kvol import cli, ratios

        k_max, word_len = self.family
        xmin, xmax, ymin, ymax = self.window
        argv = [
            "kvol-grid", "--n", str(N_FORMULA), "--resolution", str(self.resolution),
            "--xmin", repr(xmin), "--xmax", repr(xmax), "--ymin", repr(ymin), "--ymax", repr(ymax),
            "--k-max", str(k_max), "--word-len", str(word_len),
        ]

        def grid():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def point(z):
            return lambda: ratios.kvol_closed_formula(N_FORMULA, z, k_max=k_max, word_len=word_len)

        items = [Item("grid", grid, sampled=False, threaded=True)]
        items += [Item(f"point{i}", point(z)) for i, z in enumerate(self.points)]
        return items

    def expected_cells(self) -> int:
        xmin, xmax, ymin, ymax = self.window
        res = self.resolution
        dx, dy = (xmax - xmin) / res, (ymax - ymin) / res
        return sum(
            in_fundamental_domain(xmin + (i + 0.5) * dx, ymin + (j + 0.5) * dy, PHI8)
            for j in range(res)
            for i in range(res)
        )

    def check_grid(self, out) -> tuple[str | None, int, int]:
        """(reason or None, cells, cells with converged=false)."""
        code, text = out
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != GRID_HEADER:
            return f"exit code {code}, header {lines[:1]!r}", 0, 0
        rows = lines[1:]
        if len(rows) != self.expected_cells():
            return f"{len(rows)} rows, expected {self.expected_cells()}", len(rows), 0
        unconverged = 0
        for row in rows:
            x, y, kv, d, flag = row.split(",")
            kv, d = float(kv), float(d)
            if not (0 < kv <= self.k0 and d >= 0 and flag in ("true", "false")):
                return f"bad row {row!r}", len(rows), unconverged
            if abs(kv - self.k0 / math.cosh(d)) > 1e-12 * self.k0:
                return f"kvol and dist disagree in {row!r}", len(rows), unconverged
            unconverged += flag == "false"
        return None, len(rows), unconverged

    def check(self, outputs: list) -> list[str | None]:
        reasons = [self.check_grid(outputs[0])[0] if outputs[0] else "raised an error"]
        for rep in outputs[1:]:
            if rep is None:
                reasons.append("raised an error")
                continue
            d = rep.params["dist"]
            ok = 0 < rep.value <= self.k0 and d >= 0 and math.isfinite(d)
            reasons.append(None if ok else f"value {rep.value!r} at dist {d!r}")
        return reasons

    def extras(self, outputs: list, times: list[float]) -> dict:
        _, cells, unconverged = self.check_grid(outputs[0]) if outputs[0] else (None, 0, 0)
        reps = [r for r in outputs[1:] if r is not None]
        unconverged += sum(not r.converged for r in reps)
        results = cells + len(reps)
        return {
            "grid_cells_per_s": cells / times[0],
            "uncertified_frac": unconverged / results if results else 0.0,
        }


# ---------------------------------------------------------------------------
# exact: certification-shaped work over several field degrees
# ---------------------------------------------------------------------------


class Exact:
    """``verify_ngon_bound`` and ``kvol_bruteforce`` on n-gons of six field
    degrees, and ``K_of_directions`` on three staircases.

    The n-gon caps are fixed per n (cost grows steeply with the cap) and
    chosen so each case takes about a second; n = 10 at cap 5 scans 774,390
    pairs with no equality allowed.  The seed draws the staircase directions
    1/(k Phi), k in 1..8.  The order is fixed: cases on one staircase share
    its intersection form and with it the form's cache of class vectors.
    """

    NGON_CAPS = {8: 8, 10: 5, 12: 7, 16: 4, 20: 3, 24: 3}
    STAIRCASES = (8, 12, 16)
    # one k is drawn from each group; the cost of a case grows with k
    K_GROUPS = ((1, 2, 3), (4, 5, 6), (7, 8))
    NOMINAL_ROUND_S = 12.0
    PROBE_MEMORY = False

    def __init__(self, seed: int, seconds: int, smoke: bool):
        rng = random.Random(f"exact:{seed}")
        if smoke:
            caps, stairs, groups, rounds = {8: 3, 10: 3}, (8,), ((1, 2),), 1
        else:
            caps, stairs, groups = self.NGON_CAPS, self.STAIRCASES, self.K_GROUPS
            rounds = max(1, round(seconds / self.NOMINAL_ROUND_S))
        self.cases = []
        for _ in range(rounds):
            for n, cap in caps.items():
                self.cases += [("bound", n, cap), ("brute", n, cap)]
            for n in stairs:
                # k = 0 stands for direction 0 = 1/(inf Phi)
                self.cases += [("K", n, k) for k in [0] + [rng.choice(g) for g in groups]]

    def setup(self, region) -> None:
        from kvol import field, intersect, ratios, surface

        self.ngons, self.stairs = {}, {}
        for n in sorted({n for kind, n, _ in self.cases if kind != "K"}):
            X = surface.build_ngon(n)
            self.ngons[n] = (X, intersect.intersection_form(X))
        for n in sorted({n for kind, n, _ in self.cases if kind == "K"}):
            S = surface.build_staircase(n)
            one = field.CycloReal.from_rational(n, 1)
            phi = field.CycloReal.phi(n)
            lm = field.trig_value(n, "sin", 1)
            self.stairs[n] = (S, intersect.intersection_form(S), one, phi, lm)
        with region("warmup"):
            ratios.kvol_bruteforce(surface.build_ngon(8), 3)

    def items(self) -> list[Item]:
        from kvol import ratios

        def case(kind, n, arg):
            if kind == "bound":
                return lambda: ratios.verify_ngon_bound(n, arg)
            if kind == "brute":
                X, form = self.ngons[n]
                return lambda: ratios.kvol_bruteforce(X, arg, form=form)
            S, form, one, phi, lm = self.stairs[n]
            d = one / (phi * arg) if arg else 0
            # a closed curve in direction 1/(k Phi) is about 2k l_m long
            L = lm * (2 * arg + 6 if arg else 8)
            return lambda: ratios.K_of_directions(S, "inf", d, L, form=form)

        return [Item(f"{kind}{n}:{arg}", case(kind, n, arg)) for kind, n, arg in self.cases]

    def check(self, outputs: list) -> list[str | None]:
        bound_max = {
            n: rep.max_ratio
            for (kind, n, _), rep in zip(self.cases, outputs)
            if kind == "bound" and rep is not None
        }
        checks = {"bound": self._check_bound, "brute": self._check_brute, "K": self._check_K}
        return [
            "raised an error" if rep is None else checks[kind](n, arg, rep, bound_max)
            for (kind, n, arg), rep in zip(self.cases, outputs)
        ]

    @staticmethod
    def _check_bound(n, cap, rep, bound_max):
        sides = {
            frozenset((a.components[0].edge_pair, b.components[0].edge_pair))
            for a, b, I in rep.equalities
            if is_side_pair((a, b, I))
        }
        if not rep.ok:
            return f"{len(rep.violations)} violations of the n-gon bound"
        if n % 4 == 0 and not len(rep.equalities) == len(sides) == side_pair_count(n):
            return f"{len(rep.equalities)} equalities, not the distinct-side pairs"
        if n % 4 == 2 and (rep.equalities or not rep.max_ratio < 1):
            return "equality where the bound is strict"
        return None

    def _check_brute(self, n, cap, rep, bound_max):
        from kvol import field

        one = field.CycloReal.from_rational(n, 1)
        phi = field.CycloReal.phi(n)
        if n == 8 and abs(rep.value - 2 / math.tan(math.pi / 8)) > 1e-9:
            return f"octagon value {rep.value!r}"
        if n == 12 and rep.exact_value != phi * phi * 3:  # 6 + 3 sqrt(3)
            return f"dodecagon value {rep.value!r}"
        if n % 4 == 0 and rep.exact_ratio != one:
            return "maximal ratio is not exactly 1/l_0^2"
        if n % 4 == 2 and rep.exact_ratio is not None and not rep.exact_ratio < one:
            return "maximal ratio reaches the strict n-gon bound"
        area = float(self.ngons[n][0].area())
        if n in bound_max and abs(rep.value / area - bound_max[n]) > 1e-9:
            return "brute force and the bound scan disagree on the maximum"
        return None

    def _check_K(self, n, k, rep, bound_max):
        _, _, one, phi, lm = self.stairs[n]
        if rep.exact != one / (phi * lm * lm):
            return f"K(inf, 1/({k} Phi)) = {rep.value!r}, not 1/(Phi l_m^2)"
        return None

    def extras(self, outputs: list, times: list[float]) -> dict:
        return {}


WORKLOADS = {"brute": Brute, "formula": Formula, "exact": Exact}
