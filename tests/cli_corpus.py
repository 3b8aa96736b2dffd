"""Golden CLI corpus: argvs whose exit code, stdout, stderr and --out file
are pinned byte for byte in ``cli_corpus.json``.

Only exact commands are listed: graph generation, exhaustive and closed-form
cuts, sweeps, the Chebyshev evaluation of ``charpoly --lam`` and error
documents, among them ``counterexample`` refusals, which are made before any
verdict is computed, and ``spectrum`` refusals, made before any matrix is
built. None of them calls an eigensolver or a libm function, so the recorded
bytes do not depend on the BLAS or the platform's math library.

``{dir}`` in an argv stands for a scratch directory that holds the entry's
``files`` before the run; an ``--out`` file written there is recorded too.

Regenerate the JSON only for a declared output change, from the tree whose
output is to be pinned:

    PYTHONPATH=src python tests/cli_corpus.py
"""

import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")

FAMILY_ARGS = [
    ["path", "--n", "1"], ["path", "--n", "2"], ["path", "--n", "7"],
    ["cycle", "--n", "3"], ["cycle", "--n", "8"],
    ["complete", "--n", "1"], ["complete", "--n", "5"],
    ["tree", "--depth", "1"], ["tree", "--depth", "3"],
    ["double-tree", "--depth", "1"], ["double-tree", "--depth", "3"],
    ["cycle-cross-path", "--m", "3", "--n", "1"], ["cycle-cross-path", "--m", "4", "--n", "3"],
    ["roach", "--n", "1", "--k", "2"], ["roach", "--n", "3", "--k", "4"],
    ["weighted-path", "--n", "1", "--k", "1"], ["weighted-path", "--n", "3", "--k", "4"],
    ["lollipop", "--n", "3", "--m", "1"], ["lollipop", "--n", "4", "--m", "3"],
]

# at most 24 vertices, every one connected
BRUTE_ARGS = [
    ["path", "--n", "2"], ["path", "--n", "9"], ["cycle", "--n", "7"],
    ["complete", "--n", "6"], ["tree", "--depth", "3"], ["double-tree", "--depth", "3"],
    ["cycle-cross-path", "--m", "5", "--n", "3"], ["roach", "--n", "1", "--k", "2"],
    ["roach", "--n", "6", "--k", "3"], ["roach", "--n", "4", "--k", "5"],
    ["weighted-path", "--n", "1", "--k", "1"], ["weighted-path", "--n", "5", "--k", "4"],
    ["lollipop", "--n", "5", "--m", "4"],
]

FORMULA_ARGS = FAMILY_ARGS + [
    ["path", "--n", "100"], ["cycle", "--n", "101"], ["complete", "--n", "40"],
    ["double-tree", "--depth", "12"], ["cycle-cross-path", "--m", "9", "--n", "4"],
    ["cycle-cross-path", "--m", "5", "--n", "6"], ["roach", "--n", "6", "--k", "3"],
    ["roach", "--n", "20", "--k", "10"], ["roach", "--n", "3", "--k", "9"],
    ["roach", "--n", "40", "--k", "7"], ["weighted-path", "--n", "4", "--k", "1"],
    ["weighted-path", "--n", "9", "--k", "6"], ["weighted-path", "--n", "30", "--k", "200"],
    ["lollipop", "--n", "10", "--m", "2"], ["lollipop", "--n", "4", "--m", "90"],
]

SCHEMA_FILES = {
    "not_object.json": "[1, 2]",
    "missing.json": '{"name": "g", "n": 2, "edges": []}',
    "bad_edge.json": '{"name": "g", "n": 2, "edges": [[1, 3, 1]], "loops": []}',
    "bad_json.json": '{"name": ',
}
ISOLATED_FILE = '{"name": "edge+isolated", "n": 3, "edges": [[1, 2, 1]], "loops": []}'
VERTEX_FILE = '{"name": "vertex", "n": 1, "edges": [], "loops": []}'
GRAPH_FILE = ('{"name": "square+tail", "n": 5, "edges": [[1, 2, 1], [2, 3, 2], [3, 4, 1], '
              '[4, 1, 1], [4, 5, 3]], "loops": [[5, 2]]}')


def entries() -> list[dict]:
    out = []

    def add(*argv, files=None):
        out.append({"argv": list(argv), "files": files or {}})

    for fam in FAMILY_ARGS:
        add("gen", "--family", *fam)
        add("gen", "--family", *fam, "--format", "dot")
    add("gen", "--family", "roach", "--n", "2", "--k", "3", "--out", "{dir}/roach.json")
    for fam in BRUTE_ARGS:
        add("mcut", "--family", *fam)
    add("mcut", "--graph", "{dir}/g.json", files={"g.json": GRAPH_FILE})
    for fam in FORMULA_ARGS:
        add("mcut", "--family", *fam, "--method", "formula")
    for fam, seed in [(["path", "--n", "8"], "1,2,3,4"), (["roach", "--n", "3", "--k", "4"], "1,2,3"),
                      (["roach", "--n", "3", "--k", "4"], "1,2,3,4,5,6,7"),
                      (["cycle", "--n", "9"], "2,3,4,5"), (["path", "--n", "8"], "1")]:
        add("mcut", "--family", *fam, "--method", "pruned", "--seed", seed)
    for fam, n_range, k_range in [("roach", "1:10", "2:9"), ("weighted-path", "3:12", "2:9")]:
        for fmt in ("csv", "gnuplot"):
            add("sweep", "--family", fam, "--n-range", n_range, "--k-range", k_range,
                "--format", fmt)
    add("sweep", "--family", "roach", "--n-range", "2:3", "--k-range", "2:3",
        "--out", "{dir}/rows.csv")
    for which in ("pnk", "qnk", "product"):
        for n, k in [(3, 3), (4, 7), (9, 5)]:
            for lam in ("0", "0.25", "1", "1.5", "2", "-0.5", "2.75"):
                add("charpoly", "--which", which, "--n", str(n), "--k", str(k), "--lam", lam)
    # exit 2
    add("mcut", "--family", "tree", "--depth", "3", "--method", "formula")
    add("mcut", "--family", "weighted-path", "--n", "1", "--k", "1", "--method", "formula")
    add("mcut", "--family", "path", "--n", "30")
    add("mcut", "--family", "nosuch", "--n", "3")
    add("gen", "--family", "roach", "--n", "0", "--k", "2")
    add("spectrum", "--family", "path", "--n", "3", "--kind", "laplace")
    for kind in ("adjacency", "difference", "normalized", "signless"):
        add("spectrum", "--family", "path", "--n", "4097", "--kind", kind)
    add("spectrum", "--family", "tree", "--depth", "1")
    add("spectrum", "--closed-form", "--family", "cycle", "--n", "5", "--vectors")
    add("spectrum", "--graph", "{dir}/iso.json", "--kind", "normalized",
        files={"iso.json": ISOLATED_FILE})
    add("mcut", "--family", "roach", "--n", "3", "--k", "4", "--method", "pruned",
        "--seed", "1,2,3,4,5,6,7,8,9,10,11,12")
    add("sweep", "--family", "path", "--n-range", "1:3", "--k-range", "1:3")
    add("sweep", "--family", "roach", "--n-range", "1:1000", "--k-range", "2:1000")
    add("charpoly", "--which", "pnk", "--n", "2", "--k", "3", "--lam", "1")
    add("counterexample", "--k-range", "2:3")
    add("counterexample", "--k-range", "3:11")
    # exit 64
    add("mcut")
    add("mcut", "--family", "path", "--n", "4", "--graph", "x.json")
    add("mcut", "--family", "path", "--n", "4", "--method", "pruned")
    add("mcut", "--family", "path", "--n", "4", "--method", "pruned", "--seed", "a,b")
    add("mcut", "--family", "path", "--n", "8", "--seed", "1")
    add("mcut", "--family", "path", "--n", "8", "--method", "formula", "--seed", "1")
    add("mcut", "--graph", "{dir}/g.json", "--method", "formula", files={"g.json": GRAPH_FILE})
    # a closed form refuses a --graph input before the file is opened
    add("mcut", "--graph", "{dir}/bad.json", "--method", "formula",
        files={"bad.json": SCHEMA_FILES["bad_json.json"]})
    add("spectrum", "--closed-form", "--graph", "{dir}/bad.json",
        files={"bad.json": SCHEMA_FILES["bad_json.json"]})
    add("sweep", "--family", "roach", "--n-range", "junk", "--k-range", "2:3")
    add("sweep", "--family", "roach", "--n-range", "3:2", "--k-range", "2:3")
    add("charpoly", "--which", "pnk", "--n", "4", "--k", "3")
    add("charpoly", "--which", "pnk", "--n", "4", "--k", "3", "--lam", "1", "--roots")
    add("charpoly", "--which", "pnk", "--n", "4", "--k", "3", "--lam", "nan")
    add("charpoly", "--which", "pnk", "--n", "4", "--k", "3", "--steps", "9", "--roots")
    add("counterexample", "--k-range", "5:4")
    add("counterexample", "--k-range", "x")
    add("gen", "--n", "3")
    add("gen", "--family", "path", "--n", "3", "--out", "{dir}/missing/x.json")
    # exit 65
    for name, text in SCHEMA_FILES.items():
        add("mcut", "--graph", "{dir}/" + name, files={name: text})
    # exit 70
    add("charpoly", "--which", "pnk", "--n", "2000", "--k", "3", "--lam", "1")
    add("charpoly", "--which", "product", "--n", "3", "--k", "3", "--lam", "1e300")
    # exit 2, appended after the entries above so that their records stay in place
    for command in ("mcut", "bounds", "compare", "lcut"):
        add(command, "--graph", "{dir}/vertex.json", files={"vertex.json": VERTEX_FILE})
    add("mcut", "--family", "path", "--n", "4", "--method", "pruned", "--seed", "1,2,3,4")
    return out


def run_entry(entry: dict) -> dict:
    """Run one entry in-process; its exit code, stdout, stderr and --out file."""
    from speclab import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in entry["files"].items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [a.replace("{dir}", tmp) for a in entry["argv"]]
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out, err)
        written = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            written = Path(path).read_text(encoding="utf-8") if os.path.exists(path) else None
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(tmp, "{dir}"), "out_file": written}


def main() -> None:
    records = [{**entry, **run_entry(entry)} for entry in entries()]
    CORPUS.write_text(json.dumps(records, indent=0) + "\n", encoding="utf-8")
    print(f"{len(records)} commands, {CORPUS.stat().st_size} bytes -> {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
