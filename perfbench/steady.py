"""Steadiness of the benchmark: two batches of runs, compared.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --traced

Runs the command of BENCHMARK.json on every workload, RUNS times per
batch with a new seed each time, in two batches separated by a pause of
GAP seconds.  The
workload order alternates from run to run and batch two starts where
batch one ended.  For each workload and end-to-end metric it prints the
median and quartiles of each batch, the quartile spread as a share of
the median, and the shift of the median between batches; both are
compared with the metric's bound.  It also checks that no operation
failed and that in every run the timed section outlasted set-up.

--traced instead runs each workload twice with --trace 1 and the same
seed, and checks that every per-layer count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMMARY = re.compile(r"set-up ([0-9.]+) s, timed ([0-9.]+) s")
RUNS = 10     # runs per workload and batch
GAP = 120.0   # pause between the batches, s


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    m = SUMMARY.search(proc.stderr)
    result["setup_total"], result["timed"] = float(m.group(1)), float(m.group(2))
    result["elapsed"] = elapsed
    print(f"  {workload:8s} seed {seed:4d}: {elapsed:6.1f} s  "
          + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def batches(bench):
    names = [w["name"] for w in bench["workloads"]]
    results = [{n: [] for n in names}, {n: [] for n in names}]
    step = 0
    for b in range(2):
        if b:
            print(f"pause {GAP:g} s", flush=True)
            time.sleep(GAP)
        print(f"batch {b + 1}", flush=True)
        for i in range(RUNS):
            order = names if step % 2 == 0 else names[::-1]
            step += 1
            for n in order:
                results[b][n].append(run_once(bench, n, 1000 * (b + 1) + i, 0))
    return results


def report(bench, results):
    ok = True
    print()
    print(f"{'workload':8s} {'metric':12s} {'batch':5s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in bench["workloads"]:
        n = w["name"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for b in range(2):
                vals = [r["metrics"][name]["value"] for r in results[b][n]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                meds.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                elif spread > bound / 3:
                    flag = "  (above a third of the bound)"
                print(f"{n:8s} {name:12s} {b + 1:5d} {q1:10.4g} {med:10.4g} {q3:10.4g} "
                      f"{spread:7.2%} {bound:6.2f}{flag}")
            shift = (meds[1] - meds[0]) / meds[0]
            flag = ""
            if abs(shift) > bound:
                flag, ok = "  SHIFT ABOVE BOUND", False
            print(f"{n:8s} {name:12s} shift {shift:+.2%}{flag}")
        for b in range(2):
            rs = results[b][n]
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            bad = [r for r in rs if not r["correct"] or r["timed"] <= r["setup_total"]]
            print(f"{n:8s} batch {b + 1}: {fail}/{att} failed, "
                  f"{len(bad)} runs incorrect or with set-up >= timed section, "
                  f"longest run {max(r['elapsed'] for r in rs):.1f} s")
            ok = ok and fail == 0 and not bad
    print("steady" if ok else "NOT steady")
    return ok


def traced(bench):
    ok = True
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")}
    for w in bench["workloads"]:
        a, b = (run_once(bench, w["name"], 1, 1) for _ in range(2))
        for name in sorted(counts):
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                ok = False
                print(f"{w['name']}: {name} {va} != {vb}")
        print(f"{w['name']}: tracing overhead {a['metrics']['trace.overhead_s']['value']:.3f} s "
              f"and {b['metrics']['trace.overhead_s']['value']:.3f} s per round")
    print("counts repeat" if ok else "counts DIFFER")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--traced", action="store_true", help="compare two traced runs instead")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.traced:
        return 0 if traced(bench) else 1
    return 0 if report(bench, batches(bench)) else 1


if __name__ == "__main__":
    sys.exit(main())
