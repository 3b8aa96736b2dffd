"""Regenerates the reference figures in perfbench/README.md.

    python3 perfbench/figures.py spread --workloads exhaustive,bounds,ladder --seeds 101-110 --sets 2
    python3 perfbench/figures.py overhead --workload ladder --seed 101
    python3 perfbench/figures.py eigh --processes 8

Each run lasts BENCHMARK.json's run_seconds.

spread    runs the benchmark once per seed and workload, in --sets sets, and
          prints each end-to-end metric's median, quartiles and
          (Q3 - Q1) / median, the way statistics.quantiles(values, n=4) gives
          them, the classes at each percentile, and how far the set medians
          lie apart, max(a/b, b/a) - 1.
overhead  runs one seed untraced and traced, compares the median round time,
          computes the tracer's own cost per round and prints the per-layer metrics.
eigh      times 60 eigh and 60 eigvalsh calls on one 40 x 40 symmetric matrix
          in fresh processes, with OpenBLAS's default thread count and with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

EIGH_PROBE = """
import statistics, time
import numpy as np
a = np.random.default_rng(0).standard_normal((40, 40)); a = a + a.T
def median_ms(fn):
    times = []
    for _ in range(60):
        t = time.perf_counter(); fn(a); times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3
print(f"eigh {median_ms(np.linalg.eigh):.3f} ms  eigvalsh {median_ms(np.linalg.eigvalsh):.3f} ms")
"""


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _windows(workload: str, seed: int) -> dict:
    return _record(workload, seed, 0)["percentile_windows"]


def spread(args) -> None:
    """Each set runs every workload on every seed, set after set."""
    workloads = args.workloads.split(",")
    medians: dict = {}  # (workload, metric) -> median of each set
    shares: dict = {}   # workload -> failed share of each set
    for s in range(1, args.sets + 1):
        for workload in workloads:
            results, windows = [], {"p50": Counter(), "p90": Counter()}
            for seed in _seeds(args.seeds):
                r = _run(workload, seed, 0)
                results.append(r)
                for p, counts in _windows(workload, seed).items():
                    windows[p].update(counts)
                values = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
                print(f"set {s}", workload, seed, r["correct"], r["attempted"], r["failed"],
                      values, flush=True)
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.setdefault((workload, name), []).append(med)
                print(f"  set {s} {workload} {name}: median {med:.4g}  Q1 {q1:.4g}  "
                      f"Q3 {q3:.4g}  (Q3-Q1)/median {(q3 - q1) / med:.3f}")
            shares.setdefault(workload, []).append(
                sorted({r["failed"] / r["attempted"] for r in results}))
            for p, counts in windows.items():
                total = sum(counts.values())
                top, n = counts.most_common(1)[0]
                print(f"  set {s} {workload} {p} window: {top} {n / total:.1%}")
            print(f"  set {s} {workload} failed share {shares[workload][-1]}  correct "
                  f"{all(r['correct'] for r in results)}", flush=True)
    if args.sets > 1:
        for (workload, name), meds in medians.items():
            shift = max(meds) / min(meds) - 1
            print(f"{workload} {name}: set medians {[round(m, 4) for m in meds]}  "
                  f"max(a/b, b/a) - 1 = {shift:.3f}")
        for workload, share in shares.items():
            print(f"{workload} failed shares per set {share}")


def _per_call_cost(fn, calls: int = 200_000) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(0.0)
    return (time.perf_counter() - t0) / calls


def overhead(args) -> None:
    """The measured difference of one untraced and one traced run is mostly
    the machine's own drift, so the tracer's cost is also computed: spans per
    round times the cost of one wrapped call, plus the counted polynomial
    evaluations times the cost of the counting closure."""
    from spans import Tracer
    _run(args.workload, args.seed, 0)
    plain = statistics.median(_record(args.workload, args.seed, 0)["round_s"])
    traced_result = _run(args.workload, args.seed, 1)
    record = _record(args.workload, args.seed, 1)
    traced = statistics.median(record["round_s"])
    tracer = Tracer()
    tracer.keep_spans = False
    bare = _per_call_cost(abs)
    span_s = _per_call_cost(tracer._wrap("noop", abs)) - bare
    count_s = _per_call_cost(tracer._counted(abs)) - bare
    spans = sum(s["calls"] for s in record["span_stats"].values()) / record["rounds"]
    evaluations = traced_result["metrics"]["charpoly.evaluations"]["value"]
    cost = spans * span_s + evaluations * count_s
    print(f"{args.workload} seed {args.seed}: median round {plain:.4f} s untraced, "
          f"{traced:.4f} s traced ({traced / plain - 1:+.1%}); computed tracer cost "
          f"{spans:.0f} spans x {span_s * 1e6:.2f} us + {evaluations:.0f} evaluations x "
          f"{count_s * 1e6:.2f} us = {cost * 1e3:.2f} ms per round ({cost / plain:.2%})")
    for name, m in traced_result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")


def eigh(args) -> None:
    for threads in (None, "1"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        print(f"OPENBLAS_NUM_THREADS={threads or 'unset'}")
        for _ in range(args.processes):
            proc = subprocess.run([sys.executable, "-c", EIGH_PROBE], env=env,
                                  capture_output=True, text=True, check=True)
            print("  " + proc.stdout.strip(), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", default="exhaustive,bounds,ladder")
    p.add_argument("--seeds", default="101-110")
    p.add_argument("--sets", type=int, default=1)
    p = sub.add_parser("overhead")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=101)
    p = sub.add_parser("eigh")
    p.add_argument("--processes", type=int, default=8)
    args = parser.parse_args()
    {"spread": spread, "overhead": overhead, "eigh": eigh}[args.what](args)


if __name__ == "__main__":
    main()
