"""One-line mutants of ``src/speclab`` and the tests that must kill them.

Each mutant of the catalogue below replaces one exact snippet of one module.
The snippet must occur exactly once, and the mutated module must parse to a
different AST, so a catalogue entry that no longer matches the code fails
loudly instead of passing as a survivor. The runner copies ``src``, ``tests``
and ``pyproject.toml`` to a temporary directory, mutates the copy and runs the
mutant's named tests there with pytest in a fresh interpreter (``-x``: the
first failure kills it). Before any mutant, each named test subset must pass
on the unmutated copy. A mutant survives when its tests all pass.

An equivalent mutant changes no result that a test could see; it carries the
argument why and is run only with ``--all``, where it is expected to survive.

Not collected by pytest. From the root of the checkout:

    python tests/mutate.py             # every non-equivalent mutant
    python tests/mutate.py --all       # the equivalent ones too
    python tests/mutate.py --list      # the catalogue, without running it
    python tests/mutate.py NAME ...    # the named mutants only

Prints one line per mutant and the survivors last; exits 1 when a
non-equivalent mutant survives, 2 when the catalogue or a baseline is broken.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/speclab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the root of the checkout
    equivalent: str = ""  # why no test can kill it; empty for a mutant that must die


BISECTION = ("tests/test_bisection.py",)
ENUMERATION = ("tests/test_enumeration.py",)
MATRICES = ("tests/test_matrices.py",)
BOUNDS = ("tests/test_cli.py::test_bounds_checks_hold_on_every_family_instance_of_2_to_12_vertices",
          "tests/test_cli.py::test_bounds_checks_hold_on_random_weighted_graphs_with_loops",
          "tests/test_cli.py::test_bounds_ties_hold_within_the_radius_and_fail_past_it",
          "tests/test_cli.py::test_isoperimetric_upper_reads_the_best_point_of_the_interval",
          "tests/test_cli.py::test_cheeger_lower_is_strict_at_the_end_of_the_interval",
          "tests/test_cli.py::test_bounds_document")
INTERVAL = ("tests/test_matrices.py::test_lambda2_interval_is_exact_and_one_radius_each_way",
            *BOUNDS)

CATALOGUE = [
    # the spectral sign certificate and the ladder verdict's certificate
    Mutant("davis-kahan-radius-once", "bisection.py",
           "spectrum.gap) - 2 * spectrum.radius", "spectrum.gap) - spectrum.radius", BISECTION),
    Mutant("davis-kahan-without-sqrt2", "bisection.py",
           "math.sqrt(2.0) * spectrum.residual", "spectrum.residual", BISECTION),
    Mutant("parity-guard-tol-alone", "bisection.py",
           "if 2 * tol + tol * tol >= 1:", "if tol >= 1:", BISECTION),
    Mutant("separator-guard-order-only", "bisection.py",
           "if not -math.inf < lo < hi < math.inf:", "if not lo < hi:", BISECTION),
    Mutant("separator-guard-open-below", "bisection.py",
           "if not -math.inf < lo < hi < math.inf:", "if not lo < hi < math.inf:", BISECTION),
    Mutant("count-at-zero-dropped", "bisection.py",
           "if sturm_count(*odd, 0, 1) != 0 or _separate(", "if _separate(", BISECTION),
    Mutant("upper-end-largest-value", "bisection.py",
           "2.0 - float(vals[-2])", "2.0 - float(vals[-1])", BISECTION),
    Mutant("sturm-counts-negative-minors", "bisection.py",
           "(cur < 0) != (prev < 0)", "cur < 0", BISECTION),
    Mutant("sturm-counts-a-zero-minor", "bisection.py", "if cur:", "if True:", BISECTION),
    Mutant("sturm-no-change-across-a-zero", "bisection.py",
           "count += prev == 0 or (cur", "count += (cur", BISECTION),
    Mutant("sturm-final-zero-uncounted", "bisection.py",
           "return count + (cur == 0)", "return count", BISECTION),
    Mutant("simple-gap-radius-once", "matrices.py",
           "self.gap > 2 * self.radius", "self.gap > self.radius",
           ("tests/test_matrices.py", "tests/test_bisection.py")),
    # the eigensolver's gates and its error radius
    Mutant("residual-tol-times-10", "matrices.py",
           "RESIDUAL_TOL = 1e-9", "RESIDUAL_TOL = 1e-8", MATRICES),
    Mutant("ortho-tol-times-10", "matrices.py", "ORTHO_TOL = 1e-9", "ORTHO_TOL = 1e-8", MATRICES),
    Mutant("radius-rounding-once", "matrices.py",
           "rounding = 2 * (n + 7)", "rounding = (n + 7)", MATRICES),
    Mutant("radius-sigma-one", "matrices.py",
           "sigma = math.sqrt(1 - n * (ortho + (n + 2) * eps))", "sigma = 1.0", MATRICES),
    Mutant("interval-low-without-radius", "matrices.py", "lam - rho,", "lam,", INTERVAL),
    Mutant("interval-high-without-radius", "matrices.py", "lam + rho", "lam", INTERVAL),
    # closed forms
    Mutant("split-value-sum-of-squares", "cuts.py",
           "volume * volume - d * d)", "volume * volume + d * d)", ("tests/test_cuts.py",)),
    Mutant("lollipop-bridge-threshold", "cuts.py",
           "if 2 * m <= q + 4:", "if 2 * m <= q + 3:",
           ("tests/test_cuts.py", "tests/test_cli_corpus.py")),
    Mutant("ladder-split-wins-ties", "cuts.py",
           "+ d * d < 2 * (3 * k - 1) ** 2", "+ d * d <= 2 * (3 * k - 1) ** 2",
           ("tests/test_cuts.py",),
           equivalent="no (n, k) ties: with d of k's parity, (t-2)^2 + d^2 = 2(3k-1)^2 would "
                      "make sqrt(2) rational for d = 0 and fails mod 8 for d = 1, 2, 3 "
                      "(ladder_split_wins' docstring; a grid test in test_cuts.py)"),
    # the enumeration engine's caps and row floors
    Mutant("ncut-reach-s-over-5", "_enumeration.py",
           "reach = {NCUT: g.volume / 4,", "reach = {NCUT: g.volume / 5,", ENUMERATION),
    Mutant("vertex-reach-s-over-3", "_enumeration.py",
           "CHEEGER_VERTEX: g.volume / 2}", "CHEEGER_VERTEX: g.volume / 3}", ENUMERATION),
    Mutant("floor-vertex-0-takes-the-min", "_enumeration.py",
           "np.minimum(d[1:k], 0, out=d[1:k])", "np.minimum(d[:k], 0, out=d[:k])", ENUMERATION),
    Mutant("floor-keeps-every-row", "_enumeration.py",
           "floors[chunk.rows] <= cap", "floors[chunk.rows] <= np.inf", ENUMERATION),
    Mutant("limit-without-relative-slack", "_enumeration.py",
           "low * (1 + 1e-9) + 1e-300", "low + 1e-300", ENUMERATION,
           equivalent="the float ratios are correctly rounded, so the exact minimum's is the "
                      "chunk's least; the slack only keeps the cap limit * M above M v, which "
                      "drops a smaller value v' only when v' lies within a float64 rounding of "
                      "v and its cut within one of the cap; no graph within the caps is known "
                      "to do that"),
    # the bounds checks, decided on lambda2's certified interval [lo, hi]
    Mutant("bounds-mcut-ge-lambda2-upper-end", "cli.py",
           "lo_norm <= mcut.value", "hi_norm <= mcut.value", BOUNDS),
    Mutant("bounds-cheeger-upper-upper-end", "cli.py",
           "lo_norm <= 2 * h", "hi_norm <= 2 * h", BOUNDS),
    Mutant("bounds-isoperimetric-lower-upper-end", "cli.py",
           "lo_diff / 2 <= iso", "hi_diff / 2 <= iso", BOUNDS),
    Mutant("bounds-cheeger-lower-non-strict", "cli.py",
           "h * h / 2 < hi_norm", "h * h / 2 <= hi_norm", BOUNDS),
    Mutant("bounds-isoperimetric-upper-unclamped-below", "cli.py",
           "min(max(max_deg, lo_diff), hi_diff)", "min(max_deg, hi_diff)", BOUNDS),
    Mutant("bounds-isoperimetric-upper-unclamped-above", "cli.py",
           "min(max(max_deg, lo_diff), hi_diff)", "max(max_deg, lo_diff)", BOUNDS),
]


def mutate(source: str, mutant: Mutant) -> str:
    """source with the mutant's edit, checked to match once and to change the AST."""
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {source.count(mutant.old)} times "
                         f"in {mutant.module}")
    mutated = source.replace(mutant.old, mutant.new)
    if ast.dump(ast.parse(mutated)) == ast.dump(ast.parse(source)):
        raise ValueError(f"{mutant.name}: the edit leaves the AST of {mutant.module} unchanged")
    return mutated


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into)


def _pytest(where: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` in the copy at ``where``; -1 on a timeout."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(where / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=where, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def main(args: list[str]) -> int:
    names = [a for a in args if not a.startswith("--")]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in CATALOGUE if m.name in names or not names and
              ("--all" in args or not m.equivalent)]
    if "--list" in args:
        for m in chosen:
            print(f"{m.name}  {m.module}: {m.old.strip()!r} -> {m.new.strip()!r}"
                  + (f"  [equivalent: {m.equivalent}]" if m.equivalent else ""))
        return 0
    with tempfile.TemporaryDirectory(prefix="speclab-mutants-") as tmp:
        base = Path(tmp)
        _copy(base)
        sources = {m.module: (base / "src" / "speclab" / m.module).read_text(encoding="utf-8")
                   for m in chosen}
        try:
            edits = {m.name: mutate(sources[m.module], m) for m in chosen}
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        for tests in dict.fromkeys(m.tests for m in chosen):
            if _pytest(base, tests) != 0:
                print(f"baseline fails: {' '.join(tests)}", file=sys.stderr)
                return 2
        survivors = []
        for m in chosen:
            path = base / "src" / "speclab" / m.module
            path.write_text(edits[m.name], encoding="utf-8")
            try:
                code = _pytest(base, m.tests)
            finally:
                path.write_text(sources[m.module], encoding="utf-8")
            verdict = {0: "survived", -1: "killed (timeout)"}.get(code, f"killed (exit {code})")
            print(f"{m.name}: {verdict}" + (" [equivalent]" if m.equivalent else ""), flush=True)
            if code == 0:
                survivors.append(m)
    print(f"{len(survivors)} of {len(chosen)} survived: "
          + (", ".join(m.name for m in survivors) or "none"))
    return int(any(not m.equivalent for m in survivors))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
