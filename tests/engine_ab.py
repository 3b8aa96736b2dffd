"""In-process A/B timing of the exhaustive engine against a second checkout's.

It loads the other checkout's ``src/speclab/_enumeration.py`` as a second
module of this checkout's ``speclab`` package, next to this one, and times
``minimize`` of both on each graph, alternating which engine runs first from
round to round, so that a slow spell of the machine falls on both alike. For
each graph it prints the median over rounds of the time ratio change/parent
(this checkout over the other), with each side's median time, and it exits 1
if the two engines ever return different minima or indices.

The other engine imports this checkout's ``graph``, ``matrices`` and
``errors``: the two must share that API, so this compares engines across
changes confined to ``_enumeration.py``. Run it from the root of this
checkout, with one BLAS thread set before numpy loads:

    python tests/engine_ab.py PARENT g000.json roach:n=8,k=4 path:n=24
    python tests/engine_ab.py PARENT --workload exhaustive --seed 101 --cls B
    python tests/engine_ab.py PARENT path:n=20 --objectives \\
        isoperimetric,cheeger_edge,cheeger_vertex --rounds 20

PARENT is the other checkout's root (or its ``_enumeration.py``). A graph is
a JSON file as the CLI reads it or ``FAMILY:PARAM=VALUE,...``. ``--workload``
adds the ``--graph`` files of a ``perfbench`` workload's commands whose class
starts with ``--cls``, written to a temporary directory. pytest does not
collect this file.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads a BLAS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speclab import _enumeration as change, graph  # noqa: E402


def load_parent(path: Path):
    """The other checkout's engine, as the module ``speclab._parent_enumeration``."""
    if path.is_dir():
        path = path / "src" / "speclab" / "_enumeration.py"
    spec = importlib.util.spec_from_file_location("speclab._parent_enumeration", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_graph(text: str) -> graph.Graph:
    if ":" not in text:
        return graph.from_json(Path(text).read_text(encoding="utf-8"))
    family, _, params = text.partition(":")
    values = dict(item.split("=") for item in params.split(",") if item)
    return graph.generate(graph.FamilySpec(family, **{k: int(v) for k, v in values.items()}))


def workload_files(workload: str, seed: int, cls: str, directory: str) -> list[str]:
    """The distinct ``--graph`` files of the workload's commands of class ``cls``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    paths = []
    for op in workloads.build(workload, seed, directory):
        if op.cls.startswith(cls) and "--graph" in op.argv:
            path = op.argv[op.argv.index("--graph") + 1]
            if path not in paths:
                paths.append(path)
    return sorted(paths)


def compare(g: graph.Graph, engines, objectives, rounds: int):
    """(median ratio change/parent, median parent s, median change s)."""
    times = {name: [] for name in engines}
    for r in range(rounds):
        order = list(engines.items()) if r % 2 else list(engines.items())[::-1]
        results = {}
        for name, engine in order:
            t0 = time.perf_counter()
            results[name] = engine.minimize(g, *objectives)
            times[name].append(time.perf_counter() - t0)
        if results["parent"] != results["change"]:
            sys.exit(f"{g.name}: parent {results['parent']} != change {results['change']}")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return (statistics.median(ratios), statistics.median(times["parent"]),
            statistics.median(times["change"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("graphs", nargs="*")
    parser.add_argument("--objectives", default="ncut")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--cls", default="")
    args = parser.parse_args()
    engines = {"parent": load_parent(args.parent), "change": change}
    objectives = args.objectives.split(",")
    with tempfile.TemporaryDirectory() as directory:
        specs = list(args.graphs)
        if args.workload:
            specs += workload_files(args.workload, args.seed, args.cls, directory)
        print("graph\tn\tratio\tparent_ms\tchange_ms")
        for spec in specs:
            g = load_graph(spec)
            ratio, parent, changed = compare(g, engines, objectives, args.rounds)
            print(f"{Path(spec).name}\t{g.n}\t{ratio:.3f}\t{parent * 1e3:.2f}\t{changed * 1e3:.2f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
