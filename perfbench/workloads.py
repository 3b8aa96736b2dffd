"""The three workloads: their inputs, made from the seed, and their commands.

Each workload is a fixed list of 100 CLI commands, run in whole rounds. The
list is built from latency classes, each a block of ranks in the sorted
latencies of one round, so that the median and the 90th percentile fall well
inside a block holding one command at one size:

    class  exhaustive  bounds   ladder
    L      1-35        1-35     1-33     cheaper commands
    B      36-84       36-65    34-83    the median block
    M      -           66-84    -        between the two percentile blocks
    P      85-96       85-96    84-95    the 90th-percentile block
    T      97-100      97-100   96-100   the costliest commands

Random graphs are connected, with integer weights; graph files are written
during set-up, and the program sees only those files and argv.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks
import graphs
import reference as ref

# charpoly --which product --roots misses the double root at lambda = 1 on
# these pairs (it is a root of both sector factors, and bracket_roots only
# finds sign changes); they do not depend on the seed.
PRODUCT_FAULT_PAIRS = ((3, 9), (4, 8), (9, 3))
PRODUCT_SOUND_PAIRS = ((5, 7), (6, 6), (7, 5), (8, 4))


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    cls: str
    check: Callable[[str], bool]
    known_fault: bool = False
    roots_expected: int = 0


class _Files:
    """Writes each input graph once, as the JSON document the CLI reads."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.paths: dict[graphs.G, str] = {}

    def path(self, g: graphs.G) -> str:
        if g not in self.paths:
            p = os.path.join(self.directory, f"g{len(self.paths):03d}.json")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(g.to_json())
            self.paths[g] = p
        return self.paths[g]


def valid_seed(g: graphs.G) -> list[int]:
    """A BFS prefix from vertex 0 that meets the pruned search's balance
    hypothesis imbalance**2 * (cut + 1) <= vol(V)**2, preferring the most
    balanced one."""
    nbrs = {v: [] for v in range(g.n)}
    for u, v, _w in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    order, seen = [0], {0}
    for v in order:
        for u in sorted(nbrs[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    deg = ref.degrees(g.n, g.edges, g.loops)
    total = sum(deg)
    best = None
    for size in range(1, g.n):
        side = order[:size]
        imbalance = 2 * sum(deg[v] for v in side) - total
        cut = ref.cut_weight(g.edges, side)
        if imbalance * imbalance * (cut + 1) <= total * total:
            if best is None or abs(imbalance) < best[0]:
                best = (abs(imbalance), side)
    if best is None:
        raise ValueError(f"{g.name} has no balanced BFS prefix")
    return sorted(best[1])


def _exhaustive_ops(g: graphs.G, files: _Files, cls: str, kinds):
    """mcut / compare / pruned commands on one file-loaded graph."""
    path = files.path(g)
    limit = seed_side = None
    if "pruned" in kinds:
        seed_side = valid_seed(g)
        limit = ref.cut_weight(g.edges, seed_side)
    ops = []
    for kind in kinds:
        if kind == "mcut":
            ops.append(Op(("mcut", "--graph", path), cls,
                          partial(checks.mcut, g=g, cut_limit=limit, pruned=False)))
        elif kind == "pruned":
            seed = ",".join(str(v + 1) for v in seed_side)
            ops.append(Op(("mcut", "--graph", path, "--method", "pruned", "--seed", seed),
                          cls, partial(checks.mcut, g=g, cut_limit=limit, pruned=True)))
        else:
            ops.append(Op(("compare", "--graph", path), cls,
                          partial(_compare_exhaustive, g=g, limit=limit)))
    return ops


def _compare_exhaustive(out: str, g: graphs.G, limit) -> bool:
    return checks.compare(out, g, checks.minima(g, limit)["ncut"])


def _spectrally_simple(g: graphs.G) -> bool:
    vals = checks.spectrum(g)
    return vals[2] - vals[1] > 1e-6


def _random_graphs(rng, count, n, m, wmax, tag):
    """Random connected graphs whose lambda2 is simple (the spectral cut is
    undefined otherwise), so that no command on them can fail."""
    out = []
    while len(out) < count:
        g = graphs.random_connected(rng, n, m, wmax, f"{tag}{len(out)}")
        if _spectrally_simple(g):
            out.append(g)
    return out


def exhaustive(seed: int, files: _Files) -> list[Op]:
    rng = random.Random(f"exhaustive/{seed}")
    three = ("mcut", "compare", "pruned")
    ops = []
    # L: 18 vertices, sparse
    for g in (graphs.path(18), graphs.roach(6, 3), graphs.cycle_cross_path(3, 6)):
        ops += _exhaustive_ops(g, files, "L n=18 family", three)
    for i, g in enumerate(_random_graphs(rng, 13, 18, 20, 1, "sparse18_")):
        ops += _exhaustive_ops(g, files, "L n=18 m=20", (three[i % 3], three[(i + 1) % 3]))
    # B: mcut on 19 vertices, 28 weighted edges
    for g in _random_graphs(rng, 7, 19, 28, 3, "r19_"):
        ops += _exhaustive_ops(g, files, "B mcut n=19 m=28", ("mcut",)) * 7
    # P: mcut on 20 vertices, 40 weighted edges
    for g in _random_graphs(rng, 6, 20, 40, 3, "r20_"):
        ops += _exhaustive_ops(g, files, "P mcut n=20 m=40", ("mcut",)) * 2
    # T: 21, 22 and two at the 24-vertex cap
    ops += _exhaustive_ops(graphs.cycle_cross_path(3, 7), files, "T n=21", ("compare",))
    ops += _exhaustive_ops(_random_graphs(rng, 1, 22, 33, 3, "r22_")[0], files,
                           "T n=22", ("compare",))
    ops += _exhaustive_ops(graphs.roach(8, 4), files, "T n=24", ("mcut",))
    ops += _exhaustive_ops(graphs.path(24), files, "T n=24", ("pruned",))
    return ops


def _bounds_op(g: graphs.G, cls: str, files: _Files | None = None,
               family_args: tuple = (), closed_iso: Fraction | None = None) -> Op:
    argv = ("bounds", *family_args) if family_args else ("bounds", "--graph", files.path(g))
    return Op(argv, cls, partial(checks.bounds, g=g, closed_iso=closed_iso))


def bounds(seed: int, files: _Files) -> list[Op]:
    rng = random.Random(f"bounds/{seed}")
    fam = [  # (graph, CLI family arguments, closed-form isoperimetric number)
        (graphs.path(14), ("--family", "path", "--n", "14"), Fraction(1, 7)),
        (graphs.cycle(14), ("--family", "cycle", "--n", "14"), Fraction(2, 7)),
        (graphs.roach(4, 3), ("--family", "roach", "--n", "4", "--k", "3"), None),
        (graphs.double_tree(3), ("--family", "double-tree", "--depth", "3"), None),
        (graphs.lollipop(4, 10), ("--family", "lollipop", "--n", "4", "--m", "10"), None),
        (graphs.cycle_cross_path(7, 2),
         ("--family", "cycle-cross-path", "--m", "7", "--n", "2"), None),
        (graphs.weighted_path(8, 6), ("--family", "weighted-path", "--n", "8", "--k", "6"),
         None),
    ]
    ops = [_bounds_op(g, "L n=14 family", family_args=a, closed_iso=c) for g, a, c in fam]
    for g in _random_graphs(rng, 14, 14, 21, 3, "r14_"):
        ops += [_bounds_op(g, "L n=14 m=21", files)] * 2
    for g in _random_graphs(rng, 10, 16, 24, 3, "r16_"):
        ops += [_bounds_op(g, "B bounds n=16 m=24", files)] * 3
    fam = [
        (graphs.path(18), ("--family", "path", "--n", "18"), Fraction(1, 9)),
        (graphs.cycle(18), ("--family", "cycle", "--n", "18"), Fraction(2, 9)),
        (graphs.lollipop(5, 13), ("--family", "lollipop", "--n", "5", "--m", "13"), None),
        (graphs.weighted_path(10, 8),
         ("--family", "weighted-path", "--n", "10", "--k", "8"), None),
    ]
    ops += [_bounds_op(g, "M n=18 family", family_args=a, closed_iso=c) for g, a, c in fam]
    for g in _random_graphs(rng, 5, 17, 25, 3, "r17_"):
        ops += [_bounds_op(g, "M n=17 m=25", files)] * 3
    for g in _random_graphs(rng, 6, 18, 27, 3, "r18_"):
        ops += [_bounds_op(g, "P bounds n=18 m=27", files)] * 2
    ops += [
        _bounds_op(graphs.path(20), "T n=20", family_args=("--family", "path", "--n", "20"),
                   closed_iso=Fraction(1, 10)),
        _bounds_op(graphs.roach(6, 4), "T n=20",
                   family_args=("--family", "roach", "--n", "6", "--k", "4")),
        _bounds_op(graphs.cycle_cross_path(4, 5), "T n=20", files),
        _bounds_op(_random_graphs(rng, 1, 20, 30, 3, "r20_")[0], "T n=20", files),
    ]
    return ops


def _family_args(g_family: str, **params) -> tuple[str, ...]:
    args = ["--family", g_family]
    for key, value in params.items():
        args += [f"--{key}", str(value)]
    return tuple(args)


def _lcut_op(g, args, cls):
    return Op(("lcut", *args), cls, partial(checks.lcut, g=g))


def _roach_compare(out, n, k):
    return checks.compare(out, graphs.roach(n, k), checks.roach_row_prefix_min(n, k))


def _wp_compare(out, n, k):
    return checks.compare(out, graphs.weighted_path(n, k),
                          checks.weighted_path_prefix_min(n, k))


def _charpoly_op(which, n, k, cls, known_fault=False):
    argv = ("charpoly", "--which", which, "--n", str(n), "--k", str(k), "--roots")
    count = (n + k) * (2 if which == "product" else 1)
    return Op(argv, cls, partial(checks.charpoly_roots, which=which, n=n, k=k),
              known_fault, count)


def ladder(seed: int, files: _Files) -> list[Op]:
    rng = random.Random(f"ladder/{seed}")
    ops = []
    # L: small spectral cuts and closed forms, single-k verdicts, 3 x 3 sweeps
    for _ in range(6):
        n = rng.randint(1, 14)
        k = rng.randint(2, 20 - n)
        ops.append(_lcut_op(graphs.roach(n, k), _family_args("roach", n=n, k=k), "L lcut"))
    for _ in range(4):
        n = rng.randint(4, 24)
        k = rng.randint(2, 40 - n)
        ops.append(_lcut_op(graphs.weighted_path(n, k),
                            _family_args("weighted-path", n=n, k=k), "L lcut"))
    for _ in range(4):
        n = rng.randint(4, 40)  # 3k + 2n >= 11: the closed form applies
        k = rng.randint(2, 64 - n)
        ops.append(Op(("compare", *_family_args("weighted-path", n=n, k=k)),
                      "L compare", partial(_wp_compare, n=n, k=k)))
    for _ in range(8):
        n = rng.randint(1, 22)
        k = 24 - n
        ops.append(Op(("compare", *_family_args("roach", n=n, k=k)),
                      "L compare", partial(_roach_compare, n=n, k=k)))
    for _ in range(5):
        k = rng.randint(5, 6)
        ops.append(Op(("counterexample", "--k-range", f"{k}:{k}"), "L counterexample",
                      partial(checks.counterexample, k_range=range(k, k + 1))))
    for family, n_lo, n_hi, k_lo, k_hi in (("roach", 1, 12, 2, 12),
                                           ("weighted-path", 4, 20, 1, 10)):
        for _ in range(3):
            n0, k0 = rng.randint(n_lo, n_hi - 2), rng.randint(k_lo, k_hi - 2)
            argv = ("sweep", "--family", family, "--n-range", f"{n0}:{n0 + 2}",
                    "--k-range", f"{k0}:{k0 + 2}")
            ops.append(Op(argv, "L sweep",
                          partial(checks.sweep, family=family.replace("-", "_"),
                                  n_range=range(n0, n0 + 3), k_range=range(k0, k0 + 3))))
    # B: the verdict on every ladder R(2k, k) under the 64-vertex cap whose
    # minimum cut is closed-form, about 2.5 times the cost of an L command
    for _ in range(50):
        ops.append(Op(("counterexample", "--k-range", "5:10"), "B counterexample k=5..10",
                      partial(checks.counterexample, k_range=range(5, 11))))
    # P: sector-factor roots at n + k = 10
    for i in range(12):
        n = rng.randint(3, 7)
        ops.append(_charpoly_op(("pnk", "qnk")[i % 2], n, 10 - n, "P charpoly sector n+k=10"))
    # T: product roots at n + k = 12, including the seed-independent faults,
    # and one dense spectrum of a 400-vertex family member
    for n, k in PRODUCT_FAULT_PAIRS:
        ops.append(_charpoly_op("product", n, k, "T charpoly product n+k=12", True))
    n, k = rng.choice(PRODUCT_SOUND_PAIRS)
    ops.append(_charpoly_op("product", n, k, "T charpoly product n+k=12"))
    g, args = rng.choice([
        (graphs.path(400), _family_args("path", n=400)),
        (graphs.cycle(400), _family_args("cycle", n=400)),
        (graphs.roach(120, 80), _family_args("roach", n=120, k=80)),
        (graphs.weighted_path(240, 160), _family_args("weighted-path", n=240, k=160)),
        (graphs.cycle_cross_path(20, 20), _family_args("cycle-cross-path", m=20, n=20)),
    ])
    kind = rng.choice(("normalized", "adjacency", "difference", "signless"))
    ops.append(Op(("spectrum", *args, "--kind", kind), "T spectrum n=400",
                  partial(checks.spectrum_cmd, g=g, kind=kind)))
    return ops


def build(workload: str, seed: int, directory: str) -> list[Op]:
    """The workload's command list, in its seeded run order."""
    files = _Files(directory)
    ops = {"exhaustive": exhaustive, "bounds": bounds, "ladder": ladder}[workload](seed, files)
    if len(ops) != 100:
        raise AssertionError(f"{workload} has {len(ops)} commands, not 100")
    random.Random(f"order/{workload}/{seed}").shuffle(ops)
    return ops


# Eight small commands, one for each command the workloads use, run untimed
# before the first round so that first-call costs (LAPACK start-up, regex and
# other caches filled on first use) stay out of it.
WARMUP = (
    ("mcut", "--family", "path", "--n", "6"),
    ("compare", "--family", "roach", "--n", "2", "--k", "3"),
    ("lcut", "--family", "roach", "--n", "2", "--k", "3"),
    ("bounds", "--family", "path", "--n", "6"),
    ("spectrum", "--family", "path", "--n", "20"),
    ("sweep", "--family", "roach", "--n-range", "1:2", "--k-range", "2:3"),
    ("charpoly", "--which", "pnk", "--n", "3", "--k", "3", "--roots"),
    ("counterexample", "--k-range", "5:5"),
)
