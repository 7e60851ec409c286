"""Benchmark entry point.

    python3 perfbench/run.py --workload {brute,formula,exact} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; kvol is imported from ``src/``.  Every
measured process is a fresh ``worker.py`` started here, so set-up costs that
every user pays (interpreter start, imports, lazy caches) show.

``--trace 0`` sets the workload up in two extra processes as well and
reports the median set-up time of the three, then the end-to-end metrics of
the measured process.  ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics of the traced run with the
tracing overhead (traced ``wall_s`` minus untraced ``wall_s``).  Both check
every answer.  Times are in normalised seconds (see ``speed.py``), with the
raw ones printed as extras.  The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric with its unit, the extra metrics that apply to one
workload only, and the environment, which ``perfbench/out/`` also keeps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self._reference = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def _call(self, argv: list[str], stdin: str | None = None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent before " + argv[0])
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")] + argv,
                input=stdin,
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise BenchError(f"worker {argv[0]} did not finish within the time budget")
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def worker(self, mode: str, trace: int = 0) -> dict:
        a = self.args
        argv = [
            mode, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(trace), "--out-dir", str(OUT), "--t-spawn", repr(time.monotonic()),
        ]
        if a.smoke:
            argv.append("--smoke")
        return self._call(argv)

    def reference(self, extras: dict) -> list[dict]:
        """Closed-formula values at the brute workload's points, computed once
        per run: the traced and untraced processes share their inputs."""
        if self._reference is None:
            payload = {"family": extras["family"], "points": extras["points"]}
            self._reference = self._call(["reference"], stdin=json.dumps(payload))["reference"]
        return self._reference


def reference_failures(extras: dict, reference: list[dict]) -> list[str | None]:
    """Brute force against the closed formula: never above it and within 2%
    of it wherever the formula converged."""
    out = []
    for p, ref in zip(extras["points"], reference):
        v, f = p["value"], ref["value"]
        if v is None or not ref["converged"]:
            out.append(None)
        elif v > f + 1e-9 or abs(v - f) > 0.02 * f:
            out.append(f"brute force {v!r} vs closed formula {f!r} at ({p['x']}, {p['y']})")
        else:
            out.append(None)
    return out


def tally(report: dict, extra_reasons: list[str | None] | None = None) -> tuple[int, int]:
    items = report["items"]
    if extra_reasons:
        for it, why in zip(items, extra_reasons):
            it["reason"] = it["reason"] or why
    for it in items:
        if it["reason"]:
            print(f"# FAILED {it['label']}: {it['reason']}", flush=True)
    return len(items), sum(1 for it in items if it["reason"])


def checked(runner: Runner, report: dict) -> tuple[int, int]:
    """Attempted and failed items of one measured run, with the brute
    workload's reference check done in a separate process."""
    extra = None
    if runner.args.workload == "brute":
        reference = runner.reference(report["extras"])
        report["extras"]["reference_converged"] = sum(r["converged"] for r in reference)
        extra = reference_failures(report["extras"], reference)
    return tally(report, extra)


def sampled_times(report: dict) -> list[float]:
    return [it["s"] for it in report["items"] if it["sampled"]]


def raw_sampled_times(report: dict) -> list[float]:
    return [it["raw_s"] for it in report["items"] if it["sampled"]]


def source_facts() -> dict:
    files = sorted((SRC / "kvol").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():  # not an enclosing repository's commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
    }


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    extra: dict[str, tuple[float, str]]  # figures printed and kept, not gated
    record: dict
    env: dict
    attempted: int
    failed: int


def end_to_end(runner: Runner) -> Outcome:
    setup_runs = [runner.worker("setup") for _ in range(SETUP_REPEATS - 1)]
    rep = runner.worker("run")
    setup_runs.append(rep)
    setups = [r["setup_s"] for r in setup_runs]
    attempted, failed = checked(runner, rep)
    times = sampled_times(rep)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": rep["wall_s"],
        "cpu_s": rep["cpu_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "item_p50_s": statistics.median(times),
    }
    extra = {
        "failed_frac": (failed / attempted, "1"),
        "items": (len(times), "count"),
        "raw.setup_s": (statistics.median(r["raw_setup_s"] for r in setup_runs), "s"),
        "raw.wall_s": (rep["raw_wall_s"], "s"),
        "raw.cpu_s": (rep["raw_cpu_s"], "s"),
        "raw.item_p50_s": (statistics.median(raw_sampled_times(rep)), "s"),
        "probe_ms": (rep["probe_ms"], "ms"),
    }
    if len(times) >= 100:
        extra["item_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
    for key, unit in (
        ("grid_cells_per_s", "1/s"),
        ("uncertified_frac", "1"),
        ("reference_converged", "count"),
    ):
        if key in rep["extras"]:
            extra[key] = (rep["extras"][key], unit)
    record = {"setup_samples_s": setups, "run": rep}
    return Outcome(metrics, declared_units("end_to_end"), extra, record, rep["env"], attempted, failed)


def per_layer(runner: Runner) -> Outcome:
    base = runner.worker("run")
    traced = runner.worker("run", trace=1)
    a0, f0 = checked(runner, base)
    a1, f1 = checked(runner, traced)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    extra = {
        "untraced.wall_s": (base["wall_s"], "s"),
        "traced.wall_s": (traced["wall_s"], "s"),
        "traced.setup_s": (traced["setup_s"], "s"),
        # per-layer times are raw seconds: compare them with these
        "traced.raw_wall_s": (traced["raw_wall_s"], "s"),
        "traced.raw_setup_s": (traced["raw_setup_s"], "s"),
    }
    record = {"untraced": base, "traced": traced}
    return Outcome(metrics, declared_units("per_layer"), extra, record, traced["env"], a0 + a1, f0 + f1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (SRC / "kvol" / "__init__.py").is_file():
        print(f"error: no kvol sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        out = (per_layer if args.trace else end_to_end)(Runner(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if Path(out.env["kvol_path"]).resolve() != (SRC / "kvol").resolve():
        print(f"error: measured kvol from {out.env['kvol_path']}, not from {SRC}", file=sys.stderr)
        return 1
    if set(out.metrics) != set(out.units):
        print(f"error: metrics {sorted(set(out.metrics) ^ set(out.units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    env = {**source_facts(), **out.env}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in out.metrics.items():
        print(f"# metric {name} = {value!r} {out.units[name]}")
    for name, (value, unit) in out.extra.items():
        print(f"# extra {name} = {value!r} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": out.units[k]} for k, v in out.metrics.items()},
    }
    record = {"args": vars(args), "env": env, "result": result, "extra": out.extra, **out.record}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
