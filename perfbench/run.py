"""Benchmark of towerlab: shipped configs, cap ladders and point probes.

    python3 perfbench/run.py --workload configs|ladder|probe --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One process; the command in BENCHMARK.json pins OpenBLAS and OpenMP to
one thread with ``env``.  Set-up (imports, then meshes and solutions)
runs first; then whole rounds of the workload's operations repeat until
S seconds of rounds have passed; then the outputs of the rounds are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (median round)
and peak_rss_mb, the two times scaled to the reference speed of the
calibration kernel (see Calibration).  --trace 1 alternates untraced rounds with rounds under
the layer tracer and reports the per-layer metrics of layertrace.py, with
the tracing overhead; its spans go to .perfbench_out/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

CAL_REF_S = 0.062  # the kernel's median time on the machine the benchmark was tuned on
CAL_REPS = 3       # kernel runs per calibration, of which the median is taken


def import_towerlab():
    """Import the package from this checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "towerlab", "__init__.py")):
        raise SystemExit(f"perfbench: no towerlab package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import towerlab
    import towerlab.cli  # noqa: F401  (the one module __init__ leaves out)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(towerlab.__file__)) != os.path.join(SRC, "towerlab"):
        raise SystemExit(f"perfbench: imported towerlab from {towerlab.__file__}")
    return elapsed


class Calibration:
    """Fixed work that does not touch towerlab: a pure-Python loop and 300
    CG iterations on an 80 x 80 grid Laplacian, about 0.06 s.

    On a shared host the speed of the CPU moves by up to 1.5x in phases
    that last from seconds to minutes, longer than a run.  The kernel
    slows with the rounds, so a time divided by the kernel's time next to
    it, times CAL_REF_S, reads nearly the same in a slow phase and a
    fast one.
    A change to towerlab moves only the numerator.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import cg

        n = 80
        self.cg = cg
        self.a = sp.diags([4.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, n, -n],
                          shape=(n * n, n * n), format="csr")
        self.b = np.ones(n * n)

    def seconds(self):
        """Median time of CAL_REPS runs of the kernel."""
        times = []
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            s = 0
            for i in range(400_000):
                s += i * i % 7
            self.cg(self.a, self.b, rtol=0.0, maxiter=300)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def rounds_for(seconds, run_round):
    """Whole rounds until their summed time reaches the run length."""
    times = []
    while not times or sum(times) < seconds:
        times.append(run_round())
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_s = import_towerlab()
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(one of {', '.join(workloads.WORKLOADS)})")
    scratch = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, scratch)
    try:
        if args.trace:
            metrics, setup_total, times = traced_run(wl, args, layertrace)
        else:
            metrics, setup_total, times = plain_run(wl, args, import_s)
        problems = wl.verdict()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: set-up {setup_total:.3f} s, "
          f"timed {sum(times):.3f} s, {wl.attempted} operations, {wl.failed} failed; "
          f"rounds {' '.join(f'{t:.3f}' for t in times)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


def plain_run(wl, args, import_s):
    cal = Calibration()
    before = cal.seconds()
    t0 = time.perf_counter()
    wl.setup()
    setup_s = import_s + time.perf_counter() - t0
    setup_cal = (before + cal.seconds()) / 2
    cals = []

    def run_round():
        cals.append(cal.seconds())  # untimed, between the rounds
        t0 = time.perf_counter()
        wl.round()
        dt = time.perf_counter() - t0
        wl.after_round()
        return dt

    times = rounds_for(args.seconds, run_round)
    cals.append(cal.seconds())
    # each round against the mean of the kernel's times on either side of it
    ratios = [2 * t / (a + b) for t, a, b in zip(times, cals, cals[1:])]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s * CAL_REF_S / setup_cal, "unit": "s"},
        "wall_s": {"value": statistics.median(ratios) * CAL_REF_S, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    print(f"perfbench: calibration kernel {setup_cal:.4f} s at set-up, "
          f"{statistics.median(cals):.4f} s over the rounds; "
          f"unscaled set-up {setup_s:.3f} s, median round {statistics.median(times):.3f} s",
          file=sys.stderr)
    return metrics, setup_s, times


def traced_run(wl, args, layertrace):
    tracer = layertrace.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    with tracer.section("bench.setup") as setup:
        wl.setup()
    setup_total = time.perf_counter() - t0
    tracer.uninstall()
    plain, traced, sections = [], [], []

    def run_pair():
        t0 = time.perf_counter()
        wl.round()
        plain.append(time.perf_counter() - t0)
        wl.after_round()
        tracer.install()
        try:
            with tracer.section("bench.round") as sec:
                wl.round()
        finally:
            tracer.uninstall()
        sections.append(sec)
        traced.append(sec.rec[layertrace.END] - sec.rec[layertrace.START])
        wl.after_round()
        return plain[-1] + traced[-1]

    rounds_for(args.seconds, run_pair)
    per_round = [tracer.metrics(s) for s in sections]
    setup_m = tracer.metrics(setup)
    values = {name: statistics.median(m[name] for m in per_round)
              for name, _unit in layertrace.ROUND_METRICS}
    for layer in layertrace.SETUP_LAYERS:
        values[f"setup.{layer}.self_s"] = setup_m[f"{layer}.self_s"]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.spans"] = statistics.median(m["spans"] for m in per_round)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layertrace.ALL_METRICS}
    return metrics, setup_total, plain + traced


if __name__ == "__main__":
    sys.exit(main())
