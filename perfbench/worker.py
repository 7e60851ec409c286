"""One measured process of the benchmark; ``run.py`` starts it.

Modes:
  setup      set the workload up, report the set-up time and exit
  run        set up, run the timed items, check them, report
  reference  closed-formula values at points read from stdin (the brute
             workload's reference, computed outside the measured process)

The report is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from workloads import N_FORMULA, WORKLOADS

FIELD_DEGREES = (8, 12, 16)
MICRO_OPS = 200
MICRO_REPEATS = 5


def _null_region(name):
    return contextlib.nullcontext()


def environment() -> dict:
    import mpmath
    import numpy

    import kvol

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "kvol_path": str(Path(kvol.__file__).parent),
        "KVOL_PRECISION_BITS": os.environ.get("KVOL_PRECISION_BITS"),
    }


def timed_phase(items, probe):
    """Run every item once; a raised error is recorded, not propagated.

    Returns the outputs and, per item, its wall and CPU seconds, normalised
    by the speed probe (see ``speed.py``) and raw.
    """
    outputs, spans = [], []
    for item in items:
        with probe.paused() if item.threaded else contextlib.nullcontext():
            a, c = time.monotonic(), time.process_time()
            try:
                out = item.run()
            except Exception:  # a failing item counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            b, cpu = time.monotonic(), time.process_time() - c
        spans.append((a, b, cpu))
        outputs.append(out)
    times = [
        {
            "s": probe.normalise(a, b, b - a, paused=item.threaded),
            "cpu_s": probe.normalise(a, b, cpu, paused=item.threaded),
            "raw_s": b - a,
            "raw_cpu_s": cpu,
            "span": [a, b],
        }
        for item, (a, b, cpu) in zip(items, spans)
    ]
    return outputs, times


def field_micro(seed: int, probe) -> dict:
    """Per-operation cost of CycloReal mul, inverse and sign, in normalised
    microseconds.

    Operands are seeded picks among the holonomy coordinates of S_n's saddle
    connections up to 4 l_m; signs are taken of their wedge products, which
    is what the pair scans decide.
    """
    from kvol import field, plane, saddle, surface

    out = {}
    for n in FIELD_DEGREES:
        S = surface.build_staircase(n)
        hol = [sc.holonomy for sc in saddle.enumerate_saddle_connections(S, field.trig_value(n, "sin", 1) * 4)]
        coords = [c for h in hol for c in h if not c.is_zero()]
        rng = random.Random(f"field:{seed}:{n}")
        pairs = [(rng.choice(coords), rng.choice(coords)) for _ in range(MICRO_OPS)]
        units = [rng.choice(coords) for _ in range(MICRO_OPS)]
        wedges = []
        while len(wedges) < MICRO_OPS:
            w = plane.cross(rng.choice(hol), rng.choice(hol))
            if not w.is_zero():
                wedges.append(w)
        ops = {
            "mul": lambda: [a * b for a, b in pairs],
            "inverse": lambda: [u.inverse() for u in units],
            "sign": lambda: [w.sign() for w in wedges],
        }
        for name, op in ops.items():
            samples = []
            for _ in range(MICRO_REPEATS):
                a = time.monotonic()
                op()
                b = time.monotonic()
                samples.append(probe.normalise(a, b, b - a) / MICRO_OPS * 1e6)
            out[f"field.{name}_us.n{n}"] = statistics.median(samples)
    return out


def run(args) -> dict:
    cls = WORKLOADS[args.workload]
    probe = SpeedProbe(memory=cls.PROBE_MEMORY)
    probe.start()
    wl = cls(args.seed, args.seconds, args.smoke)
    tracer = None
    region = _null_region
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        region = tracer.region
    wl.setup(region)
    t_ready = time.monotonic()
    probe.sample()
    setup = {
        "setup_s": probe.normalise(args.t_spawn, t_ready, t_ready - args.t_spawn),
        "raw_setup_s": t_ready - args.t_spawn,
    }
    if args.mode == "setup":
        probe.stop()
        return setup

    items = wl.items()
    counts0 = tracer.counts() if tracer else None
    t_timed = time.perf_counter()
    outputs, times = timed_phase(items, probe)
    if tracer:
        tracer.uninstall()
    reasons = wl.check(outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        **setup,
        "wall_s": sum(t["s"] for t in times),
        "cpu_s": sum(t["cpu_s"] for t in times),
        "raw_wall_s": sum(t["raw_s"] for t in times),
        "raw_cpu_s": sum(t["raw_cpu_s"] for t in times),
        "peak_rss_mb": peak_rss_mb,
        "items": [
            {"label": it.label, **t, "sampled": it.sampled, "reason": why}
            for it, t, why in zip(items, times, reasons)
        ],
        "extras": wl.extras(outputs, [t["s"] for t in times]),
        "env": environment(),
    }
    if tracer:
        report["layers"] = traced_metrics(tracer, counts0, t_timed, args, probe)
    probe.stop()
    report["probe_ms"] = statistics.median(e - s for s, e in probe.samples) * 1e3
    report["probes"] = probe.samples
    return report


def traced_metrics(tracer, counts0, t_timed, args, probe) -> dict:
    from tracing import layer_metrics

    counts = tracer.counts()
    counts.subtract(counts0)
    timed = [s for s in tracer.spans if s.start >= t_timed]
    layers = layer_metrics(timed, counts)
    layers["hyperbolic.first_eval_s"] = sum(
        s.end - s.start for s in tracer.spans if s.name == "hyperbolic.first_eval"
    )
    layers.update(field_micro(args.seed, probe))
    spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return layers


def reference() -> dict:
    """Closed-formula KVol and its convergence flag at each (x, y) read from
    stdin, with the orbit-family truncation given there."""
    from kvol import ratios

    request = json.load(sys.stdin)
    k_max, word_len = request["family"]
    out = []
    for p in request["points"]:
        z = complex(p["x"], p["y"])
        rep = ratios.kvol_closed_formula(N_FORMULA, z, k_max=k_max, word_len=word_len)
        out.append({"value": rep.value, "converged": rep.converged})
    return {"reference": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "reference"))
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--t-spawn", type=float, default=0.0, help="time.monotonic() at launch")
    p.add_argument("--out-dir", default=".")
    args = p.parse_args(argv)
    report = reference() if args.mode == "reference" else run(args)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
