"""The benchmark's tracer still finds, and still counts, what it wraps.

perfbench/spans.py looks up ``LAYERS`` (module -> function names) with
getattr when a traced run starts, so a deleted or renamed function breaks
``perfbench/run.py --trace 1``. The first test parses the file; the second
runs the tracer in a subprocess, so that no wrapper leaks into other tests.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# argv: perfbench directory, graph file. Prints the traced per-layer counts.
TRACED_RUN = """
import io, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
from speclab import cli

ARGVS = [["mcut", "--graph", sys.argv[2]],
         ["mcut", "--graph", sys.argv[2], "--method", "pruned", "--seed", "1,2,3,4,5"],
         ["bounds", "--family", "path", "--n", "8"]]

def outputs():
    runs = []
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        runs.append((cli.run(argv, out, err), out.getvalue(), err.getvalue()))
    return runs

plain = outputs()
tracer = Tracer()
tracer.install()
assert outputs() == plain and {rc for rc, _out, _err in plain} == {0}, plain
layers = tracer.per_layer(1, 0)
for name in ("enumeration.calls", "enumeration.bipartitions",
             "enumeration.exact_min_fraction.calls"):
    print(name, layers[name][0])
"""


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


def test_every_traced_layer_resolves_in_speclab():
    layers = _layers()
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"speclab.{module}"), name, None))]
    assert missing == []


def test_traced_commands_print_the_same_and_count_the_engine(tmp_path):
    graph = tmp_path / "path10.json"
    edges = ", ".join(f"[{v}, {v + 1}, 1]" for v in range(1, 10))
    graph.write_text(f'{{"name": "p10", "n": 10, "edges": [{edges}], "loops": []}}',
                     encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS.parent), str(graph)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())
    assert set(counts) == {"enumeration.calls", "enumeration.bipartitions",
                           "enumeration.exact_min_fraction.calls"}
    assert all(float(value) > 0 for value in counts.values()), counts
