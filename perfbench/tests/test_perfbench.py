"""The benchmark's own tests: metric schema in smoke mode, and the checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_result_schema(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_same_seed_same_inputs():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7, 15, False), cls(7, 15, False), cls(8, 15, False)
        key = "cases" if hasattr(a, "cases") else "points"
        assert getattr(a, key) == getattr(b, key)
        assert getattr(a, key) != getattr(c, key)


def test_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "brute", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the checks reject wrong answers ------------------------------------------


def brute_check(value, exact_value):
    wl = workloads.Brute(1, 1, True)
    from kvol import ratios

    wl.k0 = ratios.k0_constant(8)
    rep = SimpleNamespace(value=value, exact_value=exact_value)
    return wl.check([rep, rep, rep])


def test_brute_check_rejects_values_above_k0():
    from kvol import ratios

    k0 = ratios.k0_constant(8)
    assert brute_check(float(k0), k0) == [None, None, None]
    assert all(brute_check(float(k0) * 1.01, None))
    assert all(brute_check(float(k0) + 1e-6, k0 + 1))
    below = brute_check(float(k0) / 2, k0 * 0 + 3)
    assert below[0] and below[1] and below[2] is None  # verticals must reach K_0


def test_reference_check():
    extras = {"points": [{"x": 0.1, "y": 0.8, "value": 6.0}] * 3}
    ref = [
        {"value": 6.05, "converged": True},  # within 2%
        {"value": 5.9, "converged": True},  # brute force above the formula
        {"value": 7.0, "converged": False},  # not certified: not compared
    ]
    out = run.reference_failures(extras, ref)
    assert out[0] is None and out[1] and out[2] is None
    assert run.reference_failures(extras, [{"value": 6.2, "converged": True}])[0]


def test_grid_check():
    wl = workloads.Formula(1, 1, True)
    wl.k0 = 6.82842712474619
    rows = []
    res = wl.resolution
    xmin, xmax, ymin, ymax = wl.window
    dx, dy = (xmax - xmin) / res, (ymax - ymin) / res
    for j in range(res):
        for i in range(res):
            x, y = xmin + (i + 0.5) * dx, ymin + (j + 0.5) * dy
            if workloads.in_fundamental_domain(x, y, workloads.PHI8):
                rows.append(f"{x!r},{y!r},{wl.k0 / math.cosh(0.5)!r},0.5,true")
    good = workloads.GRID_HEADER + "\n" + "\n".join(rows) + "\n"
    assert wl.check_grid((0, good)) == (None, len(rows), 0)
    assert wl.check_grid((0, good.replace("x,y", "y,x", 1)))[0]
    assert wl.check_grid((0, good.rsplit("\n", 2)[0] + "\n"))[0]  # a row lost
    bad_row = rows[0].rsplit(",", 3)[0] + f",{wl.k0 * 1.001!r},0.0,true"
    assert wl.check_grid((0, good.replace(rows[0], bad_row)))[0]
    assert wl.check_grid((2, good))[0]


def test_exact_checks():
    import contextlib
    import dataclasses

    wl = workloads.Exact(1, 1, True)
    wl.setup(lambda name: contextlib.nullcontext())
    outputs = [item.run() for item in wl.items()]
    assert wl.check(outputs) == [None] * len(outputs)

    def corrupt(kind, n, **changes):
        i = next(i for i, c in enumerate(wl.cases) if c[0] == kind and c[1] == n)
        bad = list(outputs)
        bad[i] = dataclasses.replace(outputs[i], **changes)
        return wl.check(bad)[i]

    eq8 = outputs[wl.cases.index(("bound", 8, 3))].equalities
    assert corrupt("bound", 8, equalities=eq8[1:])  # one side pair missing
    assert corrupt("bound", 10, equalities=eq8[:1])  # equality where strict
    assert corrupt("bound", 8, violations=eq8[:1])
    assert corrupt("brute", 8, value=4.83)
    k = next(c for c in wl.cases if c[0] == "K")
    i = wl.cases.index(k)
    assert corrupt("K", 8, exact=outputs[i].exact * 2)


def test_speed_probe_normalises_by_the_local_rate():
    from speed import REFERENCE_S as R
    from speed import SpeedProbe

    p = SpeedProbe()
    # a probe every 0.1 s: twice the reference duration for 1 s, then at it
    p.samples = [(t / 10, t / 10 + (2 if t < 10 else 1) * R) for t in range(20)]
    assert p.inside(0.0, 1.0) == pytest.approx(20 * R)
    assert p.normalise(0.0, 1.0, 1.0) == pytest.approx((1.0 - 20 * R) / 2)
    assert p.normalise(1.0, 2.0, 1.0) == pytest.approx(1.0 - 10 * R)
    # an item with no probe inside takes the nearest ones
    assert p.normalise(0.51, 0.52, 0.01) == pytest.approx(0.005)
    # a paused region takes the probes within half its length on either side
    p.samples = p.samples[:10] + [(3 + t / 10, 3 + t / 10 + R) for t in range(10)]
    assert p.normalise(1.0, 3.0, 2.0, paused=True) == pytest.approx(2.0 * 0.75)


def test_speed_probe_timer():
    from speed import SpeedProbe

    p = SpeedProbe()
    p.start()
    end = time.monotonic() + 0.35
    while time.monotonic() < end:
        pass
    with p.paused():
        n = len(p.samples)
        end = time.monotonic() + 0.25
        while time.monotonic() < end:
            pass
        assert len(p.samples) == n
    p.stop()
    assert len(p.samples) >= 5  # start, three ticks, stop


def test_self_and_busy_time():
    from tracing import Span, busy_time, self_times

    spans = [
        Span(0, "cli.main", None, 0.0, 10.0, 1),
        Span(1, "hyperbolic.dist_batch", 0, 1.0, 5.0, 2),  # two pool threads
        Span(2, "hyperbolic.dist_batch", 0, 3.0, 8.0, 3),
        Span(3, "hyperbolic.reduce", 2, 4.0, 4.5, 3),
    ]
    assert self_times(spans)[0] == 3.0
    assert self_times(spans)[2] == 4.5
    assert busy_time(spans, "hyperbolic.dist_batch") == 7.0


def test_tracer_wraps_and_restores():
    from kvol import field, hyperbolic, ratios
    from tracing import Tracer

    original = (ratios.kvol_bruteforce, field.CycloReal.__mul__, hyperbolic.in_fundamental_domain)
    tracer = Tracer()
    tracer.install()
    try:
        assert ratios.kvol_bruteforce is not original[0]
        with tracer.region("outer"):
            hyperbolic.in_fundamental_domain(0.1j + 0.1, 8)
            field.CycloReal.phi(8) * 2
    finally:
        tracer.uninstall()
    assert (ratios.kvol_bruteforce, field.CycloReal.__mul__, hyperbolic.in_fundamental_domain) == original
    counts = tracer.counts()
    assert counts["hyperbolic.in_fd.calls"] == 1 and counts["field.mul.calls"] == 1
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["hyperbolic.in_fd"].parent == by_name["outer"].id
