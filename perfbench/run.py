"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from a checkout: the program under test is the checkout's src/speclab,
imported into this process. Set-up builds the inputs from the seed and
writes the graph files; then the workload's command list runs in whole
rounds, one command at a time through speclab.cli.run, until --seconds have
passed. Peak RSS is read when the last round ends, before the checks run, so
the checks' own memory stays out of it. Each distinct output is then checked
once. With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. Set-up time is
interpreter start plus `import speclab`, timed over many fresh processes.
Per-run records go to perfbench/out/.
"""

import os
import sys

# One BLAS thread, set before numpy loads OpenBLAS: with OpenBLAS's default on
# a 2-vCPU machine, eigh of a 30-60 vertex matrix takes 12-48 ms in some
# processes and 0.1-0.3 ms in others, which measures the scheduler rather
# than the program. SPECLAB_THREADS=1 keeps sweep and counterexample on the
# calling thread, so the load is one client with no extra threads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "SPECLAB_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exhaustive", "bounds", "ladder")
SETUP_PROBES = 24  # half before the rounds, half after
PROBE_TIMEOUT_S = 60
WINDOW = 0.03  # share of the ranks on each side of a percentile whose classes are reported


def _timed_run(cmd: list[str], env: dict) -> float:
    """Wall time of one process. It polls every millisecond: a timed
    Popen.wait sleeps in steps of up to 50 ms, which would round the
    measurement to those steps."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    while proc.poll() is None:
        if perf_counter() - t0 > PROBE_TIMEOUT_S:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"{cmd} ran over {PROBE_TIMEOUT_S} s")
        time.sleep(0.001)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}")
    return elapsed


def setup_probes(count: int) -> list[float]:
    """Wall times of fresh interpreters that import speclab."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = [sys.executable, "-c", "import speclab"]
    return [_timed_run(probe, env) for _ in range(count)]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    sys.path.insert(0, SRC)
    import numpy
    import speclab
    origin = os.path.realpath(speclab.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"speclab was imported from {origin}, not from {SRC}")
    threads = blas_threads()
    if threads is not None and threads != 1:
        sys.exit(f"BLAS runs {threads} threads; the benchmark needs 1")
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"speclab": origin, "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            **{name: os.environ.get(name) for name in PINNED_ENV}}


def percentile(sorted_values, p: float) -> int:
    """Nearest-rank index of the p-th percentile."""
    return max(0, math.ceil(p / 100 * len(sorted_values)) - 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "speclab", "__init__.py")):
        print(f"no speclab sources under {SRC}", file=sys.stderr)
        return 2
    probes = SETUP_PROBES // 2 if args.trace == 0 else 0
    try:
        setup_times = setup_probes(probes)
    except (OSError, RuntimeError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1

    prov = provenance()
    from speclab import cli

    import checks
    import workloads
    from spans import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    t_build = perf_counter()
    ops = workloads.build(args.workload, args.seed, os.path.join(workdir, "graphs"))
    for argv in workloads.WARMUP:
        rc = cli.run(list(argv), io.StringIO(), io.StringIO())
        if rc != 0:
            print(f"warm-up command {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    outputs: Counter = Counter()  # (op index, exit code, stdout, stderr) -> times seen
    latencies: list[tuple[float, int]] = []
    round_s: list[float] = []
    start = perf_counter()
    while not round_s or perf_counter() - start < args.seconds:
        r0 = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (len(round_s), i)
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                rc = cli.run(list(op.argv), out, err)
            except Exception as exc:  # a traceback is a failed command, not a dead run
                rc = f"raised {type(exc).__name__}: {exc}"
            latencies.append((perf_counter() - t0, i))
            outputs[i, rc, out.getvalue(), err.getvalue()] += 1
        round_s.append(perf_counter() - r0)
        if tracer is not None:
            tracer.keep_spans = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(round_s)
    try:
        setup_times += setup_probes(probes)
    except (OSError, RuntimeError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1

    t_check = perf_counter()
    failed, wrong = 0, []
    for (i, rc, out, err), seen in outputs.items():
        op = ops[i]
        try:
            if rc != 0:
                raise checks.Wrong(f"exit {rc}: {err.strip()}")
            complete = op.check(out)
        except Exception as exc:  # any checker exception marks the output incorrect
            failed += seen
            wrong.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
            continue
        if not complete:
            failed += seen
            if not op.known_fault:
                wrong.append(f"{' '.join(op.argv)}: incomplete output")

    t_done = perf_counter()
    ranked = sorted(latencies)
    lat_ms = [t * 1e3 for t, _i in ranked]
    windows = {}
    for p in (50, 90):
        r = percentile(ranked, p)
        half = max(1, int(WINDOW * len(ranked)))
        window = ranked[max(0, r - half): r + half + 1]
        windows[f"p{p}"] = dict(Counter(ops[i].cls for _t, i in window))
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(round_s), "s"),
            "op_p50_ms": (lat_ms[percentile(lat_ms, 50)], "ms"),
            "op_p90_ms": (lat_ms[percentile(lat_ms, 90)], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # the first decile: a probe is only ever slowed, by other work on the machine
            "setup_s": (statistics.quantiles(setup_times, n=10)[0], "s"),
        }
    else:
        roots_expected = sum(op.roots_expected for op in ops)
        metrics = tracer.per_layer(rounds, roots_expected)

    by_class: dict[str, list[float]] = {}
    for t, i in latencies:
        by_class.setdefault(ops[i].cls, []).append(t * 1e3)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": prov, "rounds": rounds, "round_s": round_s,
        "build_s": start - t_build, "check_s": t_done - t_check,
        "setup_probes_s": setup_times,
        "latency_ms": [round(t * 1e3, 4) for t, _i in latencies],
        "percentile_windows": windows,
        "class_ms": {c: {"count_per_round": len(v) // rounds,
                         "min": min(v), "median": statistics.median(v), "max": max(v)}
                     for c, v in sorted(by_class.items())},
        "wrong": wrong,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    if tracer is not None:
        record["span_stats"] = {n: {"calls": c, "total_ms": tot * 1e3, "self_ms": s * 1e3}
                                for n, (c, tot, s) in sorted(tracer.stats.items())}
        record["first_round_spans"] = tracer.spans
    shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in wrong[:20]:
        print("WRONG", line, file=sys.stderr)
    print(json.dumps({"provenance": prov, "percentile_windows": windows}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
