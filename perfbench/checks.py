"""Output checks for each CLI command the benchmark runs.

Every check recomputes what the command reports from the benchmark's own
edge lists (graphs.py) and reference code (reference.py), or tests a
property the method must have. A check raises Wrong when the output is
incorrect, returns True when it is complete, and returns False only for
``charpoly --roots`` when every reported root is in the spectrum but some
roots are missing.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import cache

import numpy as np

import graphs
import reference as ref

LAMBDA_TOL = 1e-9
ROOT_TOL = 1e-7
PARITY_TOL = 1e-6


class Wrong(Exception):
    """The program's output disagrees with the benchmark's reference."""


def _need(ok: bool, msg: str) -> None:
    if not ok:
        raise Wrong(msg)


def _rat(doc) -> Fraction:
    value = Fraction(doc["num"], doc["den"])
    _need(doc["float"] == float(format(float(value), ".15g")),
          f"float field {doc['float']} does not round {value}")
    return value


def _side(vertices_1based) -> list[int]:
    return [v - 1 for v in vertices_1based]


def _ncut(g: graphs.G, side) -> Fraction:
    return ref.ncut(g.n, g.edges, g.loops, side)


@cache
def minima(g: graphs.G, cut_limit: int | None, expansion: bool = False) -> dict:
    return ref.enumerate_minima(g.n, g.edges, g.loops, cut_limit, expansion)


@cache
def spectrum(g: graphs.G, kind: str = "normalized") -> np.ndarray:
    return ref.eigenvalues(ref.laplacian(g.n, g.edges, g.loops, kind))


@cache
def parity(g: graphs.G) -> str:
    if g.mirror is None:
        return "no_automorphism"
    _vals, vecs = np.linalg.eigh(ref.laplacian(g.n, g.edges, g.loops, "normalized"))
    u = vecs[:, 1]
    pu = u[list(g.mirror)]
    if np.linalg.norm(u - pu) <= PARITY_TOL:
        return "even"
    if np.linalg.norm(u + pu) <= PARITY_TOL:
        return "odd"
    return "neither"


@cache
def roach_row_prefix_min(n: int, k: int) -> Fraction:
    """Least Ncut over the cuts A = top[:a] + bottom[:b] of roach(n, k).

    The published closed-form minima are attained by cuts of this shape (the
    antenna, the top row, or both rows at one column), so the closed form
    must equal this minimum.
    """
    s = n + k
    deg = [(i > 0) + (i < s - 1) + (i >= n) for i in range(s)]
    prefix = [0]
    for d in deg:
        prefix.append(prefix[-1] + d)
    total = 2 * prefix[-1]
    best = None
    for a in range(s + 1):
        for b in range(s + 1):
            vol = prefix[a] + prefix[b]
            if vol == 0 or vol == total:
                continue
            lo, hi = min(a, b), max(a, b)
            cut = (0 < a < s) + (0 < b < s) + max(0, hi - max(n, lo))
            value = Fraction(cut * total, vol * (total - vol))
            if best is None or value < best:
                best = value
    return best


@cache
def weighted_path_prefix_min(n: int, k: int) -> Fraction:
    """Least Ncut over the prefix cuts of the looped path (one edge cut)."""
    g = graphs.weighted_path(n, k)
    deg = ref.degrees(g.n, g.edges, g.loops)
    total = sum(deg)
    best, vol = None, 0
    for a in range(1, g.n):
        vol += deg[a - 1]
        value = Fraction(total, vol * (total - vol))
        if best is None or value < best:
            best = value
    return best


def _check_lambda2(reported: float, g: graphs.G, kind: str = "normalized") -> float:
    lam2 = float(spectrum(g, kind)[1])
    _need(abs(reported - lam2) <= LAMBDA_TOL,
          f"{kind} lambda2 {reported} differs from eigvalsh {lam2}")
    return lam2


def mcut(out: str, g: graphs.G, cut_limit: int | None, pruned: bool) -> bool:
    doc = json.loads(out)
    value = _rat(doc["value"])
    side = _side(doc["witness"])
    _need(_ncut(g, side) == value, f"witness Ncut differs from reported {value}")
    _need(doc["cut_weight"] == ref.cut_weight(g.edges, side), "witness cut weight")
    _need(0 in side, "exhaustive witness must contain vertex 1")
    found = minima(g, cut_limit)
    if pruned:
        _need(doc["method"] == "pruned" and doc["branch"] == f"cut<={cut_limit}",
              f"method/branch {doc['method']}/{doc['branch']}")
        _need(doc["cut_weight"] <= cut_limit, "pruned witness above the cut limit")
        _need(value == found["ncut_pruned"],
              f"pruned minimum {value} != reference {found['ncut_pruned']}")
    else:
        _need(doc["method"] == "brute_force", f"method {doc['method']}")
        _need(value == found["ncut"], f"minimum {value} != reference {found['ncut']}")
    return True


def compare(out: str, g: graphs.G, mcut_expected: Fraction) -> bool:
    doc = json.loads(out)
    m, lc = _rat(doc["mcut"]), _rat(doc["lcut"])
    _need(_ncut(g, _side(doc["mcut_witness"])) == m, "mcut witness Ncut")
    _need(_ncut(g, _side(doc["lcut_positive_side"])) == lc, "lcut side Ncut")
    _need(m == mcut_expected, f"mcut {m} != reference {mcut_expected}")
    lam2 = _check_lambda2(doc["lambda2"], g)
    _need(lam2 <= float(m) + LAMBDA_TOL, "lambda2 above the minimum Ncut")
    _need(m <= lc, "minimum cut above the spectral cut")
    _need(doc["equal"] == (m == lc), "equal flag")
    return True


def lcut(out: str, g: graphs.G) -> bool:
    doc = json.loads(out)
    lc = _rat(doc["lcut"])
    _need(_ncut(g, _side(doc["positive_side"])) == lc, "positive side Ncut")
    vals = spectrum(g)
    lam2 = _check_lambda2(doc["lambda2"], g)
    _need(doc["simple"] is True, "lambda2 reported as not simple")
    _need(abs(doc["gap"] - float(vals[2] - vals[1])) <= LAMBDA_TOL, "lambda3 - lambda2 gap")
    _need(doc["parity"] == parity(g), f"parity {doc['parity']} != {parity(g)}")
    _need(lam2 <= float(lc) + LAMBDA_TOL, "lambda2 above the spectral cut")
    return True


def counterexample(out: str, k_range: range) -> bool:
    rows = json.loads(out)["results"]
    _need([row["k"] for row in rows] == list(k_range), "k values")
    for k, row in zip(k_range, rows):
        g = graphs.roach(2 * k, k)
        m, lc = _rat(row["mcut"]), _rat(row["lcut"])
        _need(row["parity"] == "odd" and row["top_row_cut"] is True
              and row["strictly_less"] is True, f"verdict {row}")
        _need(row["mcut_method"] == "formula", f"mcut method {row['mcut_method']}")
        _need(lc == _ncut(g, range(3 * k)), "lcut is not the top-row cut value")
        _need(m == roach_row_prefix_min(2 * k, k), "mcut != least row-prefix cut")
        lam2 = _check_lambda2(row["lambda2"], g)
        _need(lam2 <= float(m) + LAMBDA_TOL and m < lc, "lambda2 <= mcut < lcut fails")
    return True


def sweep(out: str, family: str, n_range, k_range) -> bool:
    rows = list(csv.reader(io.StringIO(out)))
    _need(rows[0] == ["n", "k", "branch", "value_num", "value_den", "value_float"],
          f"header {rows[0]}")
    grid = [(n, k) for n in n_range for k in k_range]
    _need(len(rows) - 1 == len(grid), "row count")
    best = roach_row_prefix_min if family == "roach" else weighted_path_prefix_min
    for (n, k), row in zip(grid, rows[1:]):
        value = Fraction(int(row[3]), int(row[4]))
        _need(row[:2] == [str(n), str(k)] and row[2], f"row {row}")
        _need(value == best(n, k), f"{family}({n},{k}) {value} != {best(n, k)}")
        _need(row[5] == format(float(value), ".15g"), f"float column {row[5]}")
    return True


def spectrum_cmd(out: str, g: graphs.G, kind: str) -> bool:
    doc = json.loads(out)
    _need(doc["kind"] == kind and doc["closed_form"] is False, "kind / closed_form")
    got = np.array(doc["eigenvalues"])
    want = spectrum(g, kind)
    _need(got.shape == want.shape, "eigenvalue count")
    scale = max(1.0, float(np.max(np.abs(want))))
    _need(float(np.max(np.abs(got - want))) <= LAMBDA_TOL * scale, "eigenvalues")
    _need(doc["residual"] <= LAMBDA_TOL * scale, f"residual {doc['residual']}")
    return True


@cache
def sector_roots(which: str, n: int, k: int) -> tuple[float, ...]:
    wp = graphs.weighted_path(n, k)
    even = ref.eigenvalues(ref.laplacian(wp.n, wp.edges, wp.loops, "normalized"))
    odd = ref.eigenvalues(ref.odd_sector_block(wp.n, wp.edges, wp.loops))
    roots = {"pnk": even, "qnk": odd, "product": np.concatenate([even, odd])}[which]
    return tuple(sorted(float(x) for x in roots))


def charpoly_roots(out: str, which: str, n: int, k: int) -> bool:
    doc = json.loads(out)
    _need((doc["which"], doc["n"], doc["k"]) == (which, n, k), "which / n / k")
    _need(doc["count"] == len(doc["roots"]), "count != number of roots listed")
    extra, missing = ref.match_roots(doc["roots"], sector_roots(which, n, k), ROOT_TOL)
    _need(not extra, f"roots outside the spectrum: {extra}")
    return not missing


def bounds(out: str, g: graphs.G, closed_iso: Fraction | None) -> bool:
    doc = json.loads(out)
    found = minima(g, None, expansion=True)
    for key, ref_key in (("mcut", "ncut"), ("isoperimetric", "isoperimetric"),
                         ("cheeger_edge", "cheeger_edge"),
                         ("cheeger_vertex", "cheeger_vertex")):
        value = _rat(doc[key])
        _need(value == found[ref_key], f"{key} {value} != reference {found[ref_key]}")
    if closed_iso is not None:
        _need(_rat(doc["isoperimetric"]) == closed_iso,
              f"isoperimetric number != closed form {closed_iso}")
    _check_lambda2(doc["lambda2_normalized"], g, "normalized")
    _check_lambda2(doc["lambda2_difference"], g, "difference")
    _need(doc["max_degree"] == max(ref.degrees(g.n, g.edges, g.loops)), "max degree")
    _need(all(v is True for v in doc["checks"].values()), f"checks {doc['checks']}")
    return True
