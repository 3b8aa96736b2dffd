"""Independent checkers for the benchmark: exact cut arithmetic, a streamed
reference enumeration, hand-built graph matrices and a root-multiset matcher.

Nothing here imports speclab. Graphs are plain tuples: ``n``, ``edges`` as
``(u, v, w)`` with 0-based ``u < v`` and positive integer ``w``, ``loops`` as
``(v, w)``; a loop adds ``w`` once to the degree of its vertex.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Numerators and denominators are integers below 2**53, so each float ratio is
# within one rounding (about 1e-16 relative) of its exact value: a 1e-9
# relative window above the float minimum always holds the exact minimizer,
# and the candidates in it are then compared in Fractions.
FLOAT_WINDOW = 1e-9
CHUNK_BITS = 15


def degrees(n, edges, loops) -> list[int]:
    deg = [0] * n
    for u, v, w in edges:
        deg[u] += w
        deg[v] += w
    for v, w in loops:
        deg[v] += w
    return deg


def cut_weight(edges, side) -> int:
    a = set(side)
    return sum(w for u, v, w in edges if (u in a) != (v in a))


def ncut(n, edges, loops, side) -> Fraction:
    """cut(A, V-A) * (1/vol A + 1/vol(V-A)) in exact rationals."""
    a = set(side)
    if not a or len(a) >= n or not a <= set(range(n)):
        raise ValueError(f"side {sorted(a)} is not a nonempty proper subset of 0..{n - 1}")
    deg = degrees(n, edges, loops)
    vol_a = sum(deg[v] for v in a)
    vol_b = sum(deg) - vol_a
    cut = cut_weight(edges, a)
    return Fraction(cut, vol_a) + Fraction(cut, vol_b)


def weight_matrix(n, edges, loops) -> np.ndarray:
    """Symmetric weighted adjacency with loop weights on the diagonal."""
    w = np.zeros((n, n))
    for u, v, wt in edges:
        w[u, v] = w[v, u] = wt
    for v, wt in loops:
        w[v, v] = wt
    return w


def laplacian(n, edges, loops, kind: str) -> np.ndarray:
    w = weight_matrix(n, edges, loops)
    deg = w.sum(axis=1)
    if kind == "adjacency":
        return w
    if kind == "difference":
        return np.diag(deg) - w
    if kind == "signless":
        return np.diag(deg) + w
    if kind == "normalized":
        scale = 1.0 / np.sqrt(deg)
        return np.eye(n) - w * np.outer(scale, scale)
    raise ValueError(f"unknown matrix kind {kind!r}")


def odd_sector_block(n, edges, loops) -> np.ndarray:
    """Normalized Laplacian of a looped path with each loop diagonal 1 - w/d
    replaced by 1 + w/d: the odd sector of the two-row ladder."""
    m = laplacian(n, edges, loops, "normalized")
    deg = degrees(n, edges, loops)
    for v, w in loops:
        m[v, v] = 1.0 + w / deg[v]
    return m


def eigenvalues(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(m)


def match_roots(found, expected, tol: float):
    """Pair roots one to one within ``tol`` after sorting both lists.

    Returns ``(unmatched_found, missing_expected)``: the found roots that no
    expected root accounts for, and the expected roots (with multiplicity)
    that no found root accounts for.
    """
    f = sorted(float(x) for x in found)
    e = sorted(float(x) for x in expected)
    i = j = 0
    extra, missing = [], []
    while i < len(f) and j < len(e):
        if abs(f[i] - e[j]) <= tol:
            i += 1
            j += 1
        elif f[i] < e[j]:
            extra.append(f[i])
            i += 1
        else:
            missing.append(e[j])
            j += 1
    return extra + f[i:], missing + e[j:]


# ---------------------------------------------------------------------------
# streamed reference enumeration
# ---------------------------------------------------------------------------

class _RunningMin:
    """Exact minimum of num/den over chunks, prefiltered in floats."""

    def __init__(self):
        self.value: Fraction | None = None

    def update(self, num: np.ndarray, den: np.ndarray, valid: np.ndarray) -> None:
        ok = valid & (den > 0)
        if not ok.any():
            return
        ratio = np.full(num.shape, np.inf)
        np.divide(num, den, out=ratio, where=ok)
        lo = float(ratio.min())
        if self.value is not None:
            lo = min(lo, float(self.value))
        cand = np.flatnonzero(ratio <= lo * (1 + FLOAT_WINDOW))
        if cand.size == 0:
            return
        pairs = np.unique(np.stack([num[cand], den[cand]], axis=1), axis=0)
        for p, q in pairs.tolist():
            f = Fraction(int(round(p)), int(round(q)))
            if self.value is None or f < self.value:
                self.value = f


def enumerate_minima(n, edges, loops, cut_limit: int | None = None,
                     expansion: bool = True,
                     chunk_bits: int = CHUNK_BITS) -> dict[str, Fraction | None]:
    """Exact minima over every bipartition {A, V-A} with vertex 0 in A.

    Side indicators x run in chunks that share their high bits: the cut
    weight is the quadratic form x'Lx of the edge Laplacian, so with x split
    into a varying low part and a constant high part it is
    q_lo + 2 x_lo' L_lh x_hi + x_hi' L_hh x_hi, one matrix-vector product per
    chunk. This shares nothing with speclab's per-edge sweep. Returned keys:
    ``ncut``; ``ncut_pruned`` (cut weight at most ``cut_limit``, None without
    a limit); and, when ``expansion`` is set, ``isoperimetric`` (cut /
    min(|A|, |V-A|)), ``cheeger_edge`` (cut / min vol) and ``cheeger_vertex``
    (min boundary volume / min vol), where the boundary of a side is the set
    of outside vertices with a neighbour inside it.
    """
    if n < 2:
        raise ValueError("enumeration needs at least two vertices")
    w = weight_matrix(n, edges, ())
    lap = np.diag(w.sum(axis=1)) - w
    adj = (w > 0).astype(float)
    deg = np.array(degrees(n, edges, loops), dtype=float)
    total = float(deg.sum())
    c = min(chunk_bits, n - 1)  # vertex 0 and vertices 1..c form the low part
    low = np.arange(1 << c, dtype=np.int64)
    x_lo = np.ones((low.size, c + 1))
    x_lo[:, 1:] = (low[:, None] >> np.arange(c)) & 1
    q_lo = ((x_lo @ lap[:c + 1, :c + 1]) * x_lo).sum(axis=1)
    vol_lo = x_lo @ deg[:c + 1]
    size_lo = x_lo.sum(axis=1)
    keys = ["ncut", "ncut_pruned"]
    if expansion:
        keys += ["isoperimetric", "cheeger_edge", "cheeger_vertex"]
    mins = {key: _RunningMin() for key in keys}
    chunks = 1 << (n - 1 - c)
    for high in range(chunks):
        x_hi = ((high >> np.arange(n - 1 - c)) & 1).astype(float)
        cut = (q_lo + 2 * (x_lo @ (lap[:c + 1, c + 1:] @ x_hi))
               + x_hi @ lap[c + 1:, c + 1:] @ x_hi)
        vol = vol_lo + deg[c + 1:] @ x_hi
        valid = np.ones(low.size, dtype=bool)
        if high == chunks - 1:
            valid[-1] = False  # every vertex in A: not a bipartition
        mins["ncut"].update(cut * total, vol * (total - vol), valid)
        if cut_limit is not None:
            mins["ncut_pruned"].update(cut * total, vol * (total - vol),
                                       valid & (cut <= cut_limit))
        if not expansion:
            continue
        size = size_lo + x_hi.sum()
        small_vol = np.minimum(vol, total - vol)
        mins["isoperimetric"].update(cut, np.minimum(size, n - size), valid)
        mins["cheeger_edge"].update(cut, small_vol, valid)
        x = np.hstack([x_lo, np.broadcast_to(x_hi, (low.size, x_hi.size))])
        xb = 1.0 - x
        bd_a = ((x @ adj > 0) & (xb > 0)) @ deg
        bd_b = ((xb @ adj > 0) & (x > 0)) @ deg
        mins["cheeger_vertex"].update(np.minimum(bd_a, bd_b), small_vol, valid)
    return {key: m.value for key, m in mins.items()}
