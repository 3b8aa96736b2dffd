"""Streamed exhaustive bipartition sweep shared by the exact cut operations.

Bipartitions are canonicalized so that side A contains vertex 0. Index ``m``
holds the membership of vertices 1..n-1 in its bits, so A's full bitmask is
``1 | (m << 1)``; the last index is the improper full set, never a minimum.

Memory does not grow with the 2**(n-1) indices: a chunk holds at most
2**CHUNK_BITS of them. The side indicator x = y + z splits into a low part y
(vertices 0..lo) and a high part z (the rest); a chunk is rows r0..r1-1 of
the table whose entry (r, c) is index ``(r << lo) | c``. Each value is a sum
of high-factor times low-factor products, hence one matrix product per
chunk: the cut weight is x'Lx = y'Ly + z'Lz + 2 z'Ly for the Laplacian L,
volumes and sizes are outer sums, the Ncut denominator vol(A) (s - vol(A))
for the total volume s is a rank-3 sum of the two parts' volumes, and the
boundary volume sums deg(v) [v in B] (1 - [no neighbour of v in A]) over v,
each indicator a low one times a high one. A factor pair is built the first
time a pass asks for it. The factors are integers and every partial sum is
at most max(4s, s^2) < 2**30, since s < VOLUME_CAP = 2**15, far below 2**53,
so the float64 products are exact in any summation order.

A pass allocates each chunk-sized array once: every chunk has the same
shape and writes its products and its objectives' work into the pass's
arrays, so a chunk's arrays are valid only until the next chunk is read.
The objectives share the work arrays num, den and ratio and keep only the
cut weight between them, because every further array is more fresh pages
for each pass to touch. In each chunk a float prefilter keeps the indices within a relative 1e-9 of
the running minimum, and integer cross multiplication over them gives the
chunk's exact minimum, which replaces the running one only when smaller:
the lowest index wins a tie.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import SizeError
from .graph import EXHAUSTIVE_CAP, Graph
from .matrices import MatrixKind, build_matrix

VOLUME_CAP = 1 << 15
CHUNK_BITS = 16


def _check_size(g: Graph) -> None:
    if g.n < 2:
        raise SizeError("bipartition sweep needs at least two vertices")
    if g.n > EXHAUSTIVE_CAP:
        raise SizeError(f"exhaustive sweep capped at {EXHAUSTIVE_CAP} vertices, got {g.n}")
    if g.volume >= VOLUME_CAP:
        raise SizeError(f"exhaustive sweep caps the total volume at {VOLUME_CAP}")


def _factors(g: Graph, lo: int):
    """factor(key) -> (high, low) with value[r, c] = high[r] @ low[:, c]; each
    pair is built when a pass first asks for it."""
    n, k, s = g.n, lo + 1, g.volume
    ya, za = np.zeros((1 << lo, n)), np.zeros((1 << (n - k), n))
    ya[:, :k] = (np.arange(1 << lo)[:, None] << 1 | 1) >> np.arange(k) & 1
    za[:, k:] = np.arange(len(za))[:, None] >> np.arange(n - k) & 1
    adj = build_matrix(g, MatrixKind.ADJACENCY).values  # loops cancel out of lap and boundary
    lap, deg = np.diag(adj.sum(1)) - adj, np.array(g.degrees, dtype=float)
    h1, l1 = np.ones((len(za), 1)), np.ones((1, len(ya)))
    vol_z, vol_y = za @ deg, ya @ deg

    def outer(high, low):
        return np.column_stack([high, h1]), np.vstack([l1, low])

    def boundary(y, z):  # volume off the side (y, z) less that with no neighbour on it
        off_y, off_z = deg * (1 - y), 1 - z
        return (np.hstack([off_z, -off_z * (z @ adj == 0)]),
                np.vstack([off_y.T, (off_y * (y @ adj == 0)).T]))

    def cut():
        quad_y, quad_z = ((ya @ lap) * ya).sum(1), ((za @ lap) * za).sum(1)
        return np.column_stack([2 * za @ lap, quad_z, h1]), np.vstack([ya.T, l1, quad_y])

    builders = {
        "cut": cut,
        "vol": lambda: outer(vol_z, vol_y),
        "size": lambda: outer(za.sum(1), ya.sum(1)),
        # vol(A) vol(B) = (s a - a^2) - 2 a b + (s b - b^2) for vol(A) = a + b
        "ncut_den": lambda: (np.column_stack([vol_z * (s - vol_z), -2 * vol_z, h1]),
                             np.vstack([l1, vol_y, vol_y * (s - vol_y)])),
        "bound_a": lambda: boundary(ya, za),
        "bound_b": lambda: boundary((np.arange(n) < k) - ya, (np.arange(n) >= k) - za),
    }
    return functools.cache(lambda key: builders[key]())


class Chunk(dict):
    """Bipartitions from index ``start`` on, as (rows, 2**lo) float64 arrays
    computed on first use: cut, vol and size of side A, ncut_den (vol A vol
    B), bound_a (volume of the vertices of B with a neighbour in A) and
    bound_b (A and B swapped).

    Every chunk of a pass has the same shape, and ``work(name)`` is the
    pass's one array called ``name``: ``self[key]`` is kept in
    ``work(key)``, and ``product(key, out)`` writes the values into an array
    of the caller's, such as ``work("den")``, without keeping them. So a
    chunk's arrays are valid only until the next chunk of the pass is read.
    """

    def __init__(self, g: Graph, factor, work, rows: slice, start: int, last: bool):
        super().__init__()
        self.g, self.factor, self.work = g, factor, work
        self.rows, self.start, self.last = rows, start, last

    def product(self, key: str, out: np.ndarray) -> np.ndarray:
        """This chunk's values ``key``, written into ``out`` and not kept."""
        high, low = self.factor(key)
        return np.matmul(high[self.rows], low, out=out)

    def __missing__(self, key: str) -> np.ndarray:
        self[key] = value = self.product(key, self.work(key))
        return value


def bipartition_arrays(g: Graph):
    """Check g and stream its bipartitions as Chunks of one pass."""
    _check_size(g)
    lo = min(g.n // 2, CHUNK_BITS)
    high = 1 << (g.n - 1 - lo)
    step = min(high, 1 << (CHUNK_BITS - lo))  # powers of two: every chunk has step rows
    factor, work = _factors(g, lo), functools.cache(lambda name: np.empty((step, 1 << lo)))
    return (Chunk(g, factor, work, slice(r0, r0 + step), r0 << lo, r0 + step >= high)
            for r0 in range(0, high, step))


def side_sizes(g: Graph) -> np.ndarray:
    """|A| per canonical bipartition (vertex 0 included), as one whole array."""
    return np.concatenate([c["size"].astype(np.int64).ravel() for c in bipartition_arrays(g)])


def boundary_volumes(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """bound_a and bound_b (see Chunk) per canonical bipartition, as whole arrays."""
    pairs = [(c["bound_a"].astype(np.int64).ravel(), c["bound_b"].astype(np.int64).ravel())
             for c in bipartition_arrays(g)]
    return tuple(np.concatenate(arrays) for arrays in zip(*pairs))


def exact_min_fraction(num: np.ndarray, den: np.ndarray) -> tuple[Fraction, int]:
    """Exact argmin of num/den (den > 0); ties break on the lowest position.

    A float pass locates near-minimal candidates, then integer cross
    multiplication resolves them exactly (products fit int64 under the
    engine's volume cap).
    """
    ratio = num / den
    cand = np.flatnonzero(ratio <= ratio.min() * (1 + 1e-9) + 1e-300)
    idx = int(cand[0])
    while (better := cand[num[cand] * den[idx] < num[idx] * den[cand]]).size:
        idx = int(better[0])
    return Fraction(int(num[idx]), int(den[idx])), idx


class RunningMin:
    """Exact minimum of num/den and its lowest index over a stream of chunks."""

    def __init__(self):
        self.limit, self.best = np.inf, None

    def add(self, chunk: Chunk, num, den) -> None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(num, den, out=chunk.work("ratio"))
        if chunk.last:
            ratio.flat[-1] = np.inf  # the improper full set
        low = ratio.min()
        if low == np.inf or low > self.limit:
            return
        self.limit = min(self.limit, low * (1 + 1e-9) + 1e-300)
        hit = np.flatnonzero(ratio <= self.limit)
        exact = (np.broadcast_to(x, ratio.shape).flat[hit].astype(np.int64) for x in (num, den))
        value, i = exact_min_fraction(*exact)
        if self.best is None or value < self.best[0]:  # an earlier index keeps a tie
            self.best = value, chunk.start + int(hit[i])

    def result(self) -> tuple[Fraction, int]:
        if self.best is None:
            raise SizeError("no valid bipartition to minimize over")
        return self.best


def minimize(g: Graph, *objectives) -> list[tuple[Fraction, int]]:
    """Exact minimum and its lowest index for each objective, in one pass.

    An objective maps a Chunk to ``(num, den)``, with num = inf where a
    bipartition is excluded and den > 0 elsewhere; the improper full set
    never counts. Objectives run one after another on each chunk, so they
    may share the chunk's work arrays.
    """
    mins = [RunningMin() for _ in objectives]
    for chunk in bipartition_arrays(g):
        for running, objective in zip(mins, objectives):
            running.add(chunk, *objective(chunk))
    return [running.result() for running in mins]


def full_mask_from_index(index: int) -> int:
    """Recover the real vertex bitmask from an enumeration index."""
    return 1 | (index << 1)
