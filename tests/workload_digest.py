"""Byte-identity digest of the benchmark workloads: one sha256 per workload
and seed over the (argv, exit code, stdout, stderr) of its 100 commands,
and one more per seed over the spectral cuts.

The command lists come from ``perfbench/workloads.py``, which is imported as
it is. Each workload's input graphs are written to a fresh temporary
directory; ``{dir}`` replaces that directory in argv, stdout and stderr, so
the digest does not depend on where the files were written. Commands run in
process, in the workload's seeded order, through ``speclab.cli.run`` of this
checkout's ``src/``, with one BLAS thread as in ``perfbench/run.py``.

The ``spectral`` line runs ``lcut`` on every family instance within the
subset cap (4,757, the same for every seed) and on 1,000 random
connected graphs with weights and loops drawn from the seed. It takes a few
seconds per seed.

Two checkouts print the same lines exactly when every command gives the same
bytes. Run it from the root of each checkout and compare the output:

    python tests/workload_digest.py            # seeds 101 and 202
    python tests/workload_digest.py 7 8 9      # other seeds
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads a BLAS

import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exhaustive", "bounds", "ladder")
DEFAULT_SEEDS = (101, 202)
RANDOM_GRAPHS = 1000


def family_argv():
    """lcut on every family instance of at most SUBSET_CAPACITY vertices."""
    from speclab import graph

    cap = graph.SUBSET_CAPACITY
    for family, (params, *_sizes) in graph._FAMILY_TABLE.items():
        # every family's order is at least each of its parameters
        for values in itertools.product(*(range(low, cap + 1) for _name, low in params)):
            flags = {name: value for (name, _low), value in zip(params, values)}
            if graph.FamilySpec(family, **flags).order() <= cap:
                yield ["lcut", "--family", family, *itertools.chain.from_iterable(
                    (f"--{name}", str(value)) for name, value in flags.items())]


def random_graph_argv(seed: int, tmp: str):
    """lcut on seeded random connected graphs of 2-32 vertices, written to tmp,
    with weights up to 1, 7, 2**20 or 2**30 and a loop on about a quarter of
    the vertices."""
    rng = random.Random(seed)
    for i in range(RANDOM_GRAPHS):
        n, top = rng.randint(2, 32), rng.choice((1, 7, 1 << 20, 1 << 30))
        order = rng.sample(range(1, n + 1), n)
        pairs = {tuple(sorted((order[j], order[rng.randrange(j)]))) for j in range(1, n)}
        pairs |= {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(rng.randint(0, n))}
        doc = {"name": f"random{i}", "n": n,
               "edges": [[u, v, rng.randint(1, top)] for u, v in sorted(pairs)],
               "loops": [[v, rng.randint(1, top)] for v in range(1, n + 1) if rng.random() < 0.25]}
        path = os.path.join(tmp, f"random{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        yield ["lcut", "--graph", path]


def digest(workload: str, seed: int) -> str:
    """sha256 over the masked (argv, exit code, stdout, stderr) of each command."""
    import workloads
    from speclab import cli

    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        if workload == "spectral":
            argvs = itertools.chain(family_argv(), random_graph_argv(seed, tmp))
        else:
            argvs = (op.argv for op in workloads.build(workload, seed, tmp))
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(list(argv), out, err)
            record = [[a.replace(tmp, "{dir}") for a in argv], code,
                      out.getvalue().replace(tmp, "{dir}"), err.getvalue().replace(tmp, "{dir}")]
            sha.update(json.dumps(record).encode("utf-8") + b"\n")
    return sha.hexdigest()


def main(argv: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    for workload in (*WORKLOADS, "spectral"):
        for seed in seeds:
            print(workload, seed, digest(workload, seed), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
