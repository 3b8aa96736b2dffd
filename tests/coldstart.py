"""Fresh-process start-up: the wall time of `import speclab` and of one CLI
command per class, each in a new interpreter, as a user runs them.

Each probe runs N times; the probes alternate (round by round, and between
source trees when several are given), so a slow spell of the machine falls
on every row alike. A row reports the first decile of its N wall times, as
`perfbench/run.py` reports `setup_s`: other work on the machine only ever
slows a probe down. Every probe runs with one BLAS thread and
`PYTHONPATH` set to the source tree, and must exit with its expected code.

    python tests/coldstart.py                  # this checkout's src/, 12 probes per row
    python tests/coldstart.py --probes 20 --all
    python tests/coldstart.py OTHER/src src    # two trees side by side

`--all` adds the other closed-form and numeric commands and one refusal
(exit 64). The interpreter compiles every module it imports unless cached
bytecode is written and found (PYTHONDONTWRITEBYTECODE unset), so compare
rows taken with the same setting; the header line says which. Run
`python -X importtime -m speclab.cli <command>` to see where one start-up goes.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "speclab.cli"]
# label -> (interpreter arguments, expected exit code)
PROBES = {
    "import speclab": (["-c", "import speclab"], 0),
    "closed form: mcut --method formula roach(6,3)":
        (CLI + ["mcut", "--family", "roach", "--n", "6", "--k", "3", "--method", "formula"], 0),
    "enumeration: mcut path(16)": (CLI + ["mcut", "--family", "path", "--n", "16"], 0),
    "spectral: lcut roach(6,3)": (CLI + ["lcut", "--family", "roach", "--n", "6", "--k", "3"], 0),
    "ladder: counterexample --k-range 5:10": (CLI + ["counterexample", "--k-range", "5:10"], 0),
}
MORE = {
    "closed form: gen roach(6,3)": (CLI + ["gen", "--family", "roach", "--n", "6", "--k", "3"], 0),
    "closed form: sweep roach 1:12 x 2:12":
        (CLI + ["sweep", "--family", "roach", "--n-range", "1:12", "--k-range", "2:12"], 0),
    "closed form: charpoly --lam": (CLI + ["charpoly", "--which", "qnk", "--n", "6", "--k", "3",
                                           "--lam", "0.25"], 0),
    "refusal: bounds without input (exit 64)": (CLI + ["bounds"], 64),
    "enumeration: bounds lollipop(6,3)":
        (CLI + ["bounds", "--family", "lollipop", "--n", "6", "--m", "3"], 0),
    "spectral: spectrum path(64)": (CLI + ["spectrum", "--family", "path", "--n", "64"], 0),
    "spectral: charpoly --roots": (CLI + ["charpoly", "--which", "product", "--n", "6", "--k", "3",
                                          "--roots"], 0),
}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def probe(src: Path, args: list[str], code: int) -> float:
    """Wall time of one fresh interpreter running args against src."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=src,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != code:
        sys.exit(f"{' '.join(args)} on {src} exited {proc.returncode}, not {code}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"],
                        help="source trees holding speclab/ (default: this checkout's src/)")
    parser.add_argument("--probes", type=int, default=12, help="runs per row (at least 2)")
    parser.add_argument("--all", action="store_true", help="probe more commands of each class")
    args = parser.parse_args()
    if args.probes < 2:
        parser.error("--probes needs at least 2 runs for a decile")
    probes = {**PROBES, **(MORE if args.all else {})}
    trees = [src.resolve() for src in args.src]
    times = {(label, tree): [] for label in probes for tree in trees}
    for i in range(args.probes):
        for label, (argv, code) in probes.items():
            for tree in trees[::-1] if i % 2 else trees:  # either tree goes first half the time
                times[label, tree].append(probe(tree, argv, code))
    bytecode = "off" if sys.dont_write_bytecode else "on"
    print(f"# first decile of {args.probes} fresh processes per row, ms; "
          f"python {sys.version.split()[0]}, one BLAS thread, bytecode writing {bytecode}")
    print("| probe | " + " | ".join(str(tree) for tree in trees) + " |")
    print("|---|" + "---:|" * len(trees))
    for label in probes:
        cells = [f"{statistics.quantiles(times[label, tree], n=10)[0] * 1e3:.0f}" for tree in trees]
        print(f"| {label} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
