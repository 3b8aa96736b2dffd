"""Byte-identity digest of the benchmark workloads: one sha256 per workload
and seed over the (argv, exit code, stdout, stderr) of its 100 commands.

The command lists come from ``perfbench/workloads.py``, which is imported as
it is. Each workload's input graphs are written to a fresh temporary
directory; ``{dir}`` replaces that directory in argv, stdout and stderr, so
the digest does not depend on where the files were written. Commands run in
process, in the workload's seeded order, through ``speclab.cli.run`` of this
checkout's ``src/``, with one BLAS thread as in ``perfbench/run.py``.

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
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exhaustive", "bounds", "ladder")
DEFAULT_SEEDS = (101, 202)


def digest(workload: str, seed: int) -> str:
    """sha256 over the masked (argv, exit code, stdout, stderr) of each command."""
    import workloads
    from speclab import cli

    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(workload, seed, tmp):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(list(op.argv), out, err)
            record = [[a.replace(tmp, "{dir}") for a in op.argv], code,
                      out.getvalue().replace(tmp, "{dir}"), err.getvalue().replace(tmp, "{dir}")]
            sha.update(json.dumps(record).encode("utf-8") + b"\n")
    return sha.hexdigest()


def main(argv: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    for workload in WORKLOADS:
        for seed in seeds:
            print(workload, seed, digest(workload, seed), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
