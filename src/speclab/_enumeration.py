"""Exhaustive bipartition sweep and the four objectives minimized over it.

Bipartitions are canonicalized so that side A contains vertex 0. Index ``m``
holds the membership of vertices 1..n-1 in its bits, so A's full bitmask is
``1 | (m << 1)``; the last index is the improper full set, never a minimum.

Objectives, each num/den over the bipartitions (A, B) of total volume s:
NCUT is cut(A) s / (vol A vol B), and with ``max_cut`` (the pruned search)
a bipartition cutting more has num = inf; ISOPERIMETRIC is cut(A) / min(|A|,
|B|); CHEEGER_EDGE is cut(A) / min(vol A, vol B); CHEEGER_VERTEX is
min(bound_a, bound_b) / min(vol A, vol B), where bound_a is the volume of
the vertices of B with a neighbour in A and bound_b swaps A and B. The
smaller share min(x, t - x) is t/2 - |x - t/2|, exact on integers.

Memory does not grow with the 2**(n-1) indices: a chunk holds at most
2**CHUNK_BITS of them. The side indicator x = y + z splits into a low part y
(vertices 0..lo) and a high part z (the rest); a chunk is rows r0..r1-1 of
the table whose entry (r, c) is index ``(r << lo) | c``. Each value is a sum
of high-factor times low-factor products, hence one matrix product per
chunk: the cut weight is x'Lx = y'Ly + z'Lz + 2 z'Ly for the Laplacian L,
volumes and sizes are outer sums, vol A vol B = vol(A) (s - vol(A)) is a
rank-3 sum of the two parts' volumes, and the boundary volume sums deg(v)
[v in B] (1 - [no neighbour of v in A]) over v, each indicator a low one
times a high one. A factor pair is built the first time a pass asks for it.
The factors are integers and every partial sum is at most max(4s, s^2) <
2**30, since s < VOLUME_CAP = 2**15: the float64 products are exact in any
summation order, and num and den are integers whose int64 products fit.

One call of ``minimize`` is one pass. It allocates the four chunk-sized
arrays cut, num, den and ratio as one block (at 19-22 vertices, four
separate arrays freed together went back from malloc to the system and were
page-faulted anew by each pass; the block stays on the heap). Every chunk
writes its cut weights into the block, and so does a chunk evaluated whole;
the block goes when the call returns. The objectives run one after another
on a chunk, sharing the cut weights. A float prefilter keeps the indices
within a relative 1e-9 of the running minimum, exact_min_fraction
cross-multiplies them in integers, and the chunk's exact minimum replaces
the running one only when smaller: the lowest index wins a tie.

Each objective is at least cut / M on every bipartition: NCUT with M = s/4,
since vol A vol B <= s^2/4; ISOPERIMETRIC with M = floor(n/2), the largest
smaller side; CHEEGER_EDGE with M = s/2, the largest smaller volume; and
CHEEGER_VERTEX with M = s/2, since bound_a and bound_b are each at least the
cut (each cut edge has an end on either side, counted with its whole
degree). Once an objective has a running limit, a chunk keeps only the
entries whose cut is at most limit * M (and, for the pruned NCUT, at most
``max_cut``, from the first chunk on) and evaluates num and den at those
alone, from rows of the factor pairs (``Chunk.at``). A chunk with no cap,
or with more than DENSE_SHARE of its entries under it, is evaluated whole.
Neither the minimum nor its index changes: an entry whose exact value is at
most the running minimum v has cut <= M v, and the limit is at least
v (1 + 1e-9) less a rounding, so the slack keeps the float cap limit * M
above M v. An entry the cap drops is worth more than v: it could neither
win nor tie, and the lowest index still wins a tie.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import SizeError
from .graph import EXHAUSTIVE_CAP, Graph
from .matrices import MatrixKind, build_matrix

VOLUME_CAP = 1 << 15
CHUNK_BITS = 16
# The largest share of a chunk evaluated at its kept entries alone; a chunk
# keeping more is evaluated whole. Point evaluation gathers a factor row and
# column per entry: on a 20-vertex graph (one BLAS thread) it beat the whole
# chunk for every objective up to 1/64 of its 2**16 entries, and lost at 1/32
# for the vertex objective, whose boundary factors have 2n columns.
DENSE_SHARE = 1 / 64

NCUT, ISOPERIMETRIC = "ncut", "isoperimetric"
CHEEGER_EDGE, CHEEGER_VERTEX = "cheeger_edge", "cheeger_vertex"
# the side measure whose smaller share is each expansion objective's denominator
_SIDE = {ISOPERIMETRIC: "size", CHEEGER_EDGE: "vol", CHEEGER_VERTEX: "vol"}


def _check_size(g: Graph) -> None:
    if g.n < 2:
        raise SizeError("bipartition sweep needs at least two vertices")
    if g.n > EXHAUSTIVE_CAP:
        raise SizeError(f"exhaustive sweep capped at {EXHAUSTIVE_CAP} vertices, got {g.n}")
    if g.volume >= VOLUME_CAP:
        raise SizeError(f"exhaustive sweep caps the total volume at {VOLUME_CAP}")


def _factors(g: Graph, lo: int):
    """factor(key) -> (high, low) with value[r, c] = high[r] @ low[c]; each
    pair is built when a pass first asks for it."""
    n, k, s = g.n, lo + 1, g.volume
    ya, za = np.zeros((1 << lo, n)), np.zeros((1 << (n - k), n))
    ya[:, :k] = (np.arange(1 << lo)[:, None] << 1 | 1) >> np.arange(k) & 1
    za[:, k:] = np.arange(len(za))[:, None] >> np.arange(n - k) & 1
    adj = build_matrix(g, MatrixKind.ADJACENCY).values  # loops cancel out of lap and boundary
    lap, deg = np.diag(adj.sum(1)) - adj, np.array(g.degrees, dtype=float)
    h1, l1 = np.ones((len(za), 1)), np.ones((len(ya), 1))
    vol_z, vol_y = za @ deg, ya @ deg

    def outer(high, low):
        return np.column_stack([high, h1]), np.column_stack([l1, low])

    def boundary(y, z):  # volume off the side (y, z) less that with no neighbour on it
        off_y, off_z = deg * (1 - y), 1 - z
        return (np.hstack([off_z, -off_z * (z @ adj == 0)]),
                np.hstack([off_y, off_y * (y @ adj == 0)]))

    def cut():
        quad_y, quad_z = ((ya @ lap) * ya).sum(1), ((za @ lap) * za).sum(1)
        return np.column_stack([2 * za @ lap, quad_z, h1]), np.column_stack([ya, l1, quad_y])

    builders = {
        "cut": cut,
        "vol": lambda: outer(vol_z, vol_y),
        "size": lambda: outer(za.sum(1), ya.sum(1)),
        # vol(A) vol(B) = (s a - a^2) - 2 a b + (s b - b^2) for vol(A) = a + b
        "ncut_den": lambda: (np.column_stack([vol_z * (s - vol_z), -2 * vol_z, h1]),
                             np.column_stack([l1, vol_y, vol_y * (s - vol_y)])),
        "bound_a": lambda: boundary(ya, za),
        "bound_b": lambda: boundary((np.arange(n) < k) - ya, (np.arange(n) >= k) - za),
    }
    return functools.cache(lambda key: builders[key]())


class Chunk(NamedTuple):
    """Bipartitions from index ``start`` on, ``last`` if they end the pass.
    ``chunk(key, out)`` writes their values ``key`` (cut, vol, size,
    ncut_den, bound_a or bound_b) as a (rows, 2**lo) float64 array into
    ``out``, or a new array, from the pass's ``factor`` pair."""

    start: int
    last: bool
    rows: slice
    factor: Callable

    def __call__(self, key: str, out: np.ndarray | None = None) -> np.ndarray:
        high, low = self.factor(key)
        return np.matmul(high[self.rows], low.T, out=out)

    def at(self, where: np.ndarray, key: str, out: np.ndarray | None = None) -> np.ndarray:
        """The values ``key`` at the chunk's flat positions ``where`` only,
        position p being (row, column) = divmod(p, 2**lo), into ``out``."""
        high, low = self.factor(key)
        rows, cols = np.divmod(where, len(low))
        return np.einsum("ij,ij->i", high.take(self.rows.start + rows, 0), low.take(cols, 0),
                         out=out)


def _layout(g: Graph) -> tuple[int, int, int]:
    """(lo, high, step): 2**lo columns, high rows in chunks of step rows, all
    powers of two, so every chunk of a pass has the same shape."""
    lo = min(g.n // 2, CHUNK_BITS)
    high = 1 << (g.n - 1 - lo)
    return lo, high, min(high, 1 << (CHUNK_BITS - lo))


def bipartition_arrays(g: Graph):
    """Check g and stream its bipartitions as the Chunks of one pass."""
    _check_size(g)
    lo, high, step = _layout(g)
    factor = _factors(g, lo)
    return (Chunk(r0 << lo, r0 + step >= high, slice(r0, r0 + step), factor)
            for r0 in range(0, high, step))


def side_sizes(g: Graph) -> np.ndarray:
    """|A| per canonical bipartition (vertex 0 included), as one whole array."""
    return np.concatenate([c("size").astype(np.int64).ravel() for c in bipartition_arrays(g)])


def boundary_volumes(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """bound_a and bound_b per canonical bipartition, as whole arrays."""
    pairs = [(c("bound_a").astype(np.int64).ravel(), c("bound_b").astype(np.int64).ravel())
             for c in bipartition_arrays(g)]
    return tuple(np.concatenate(arrays) for arrays in zip(*pairs))


def exact_min_fraction(num: np.ndarray, den: np.ndarray) -> tuple[Fraction, int]:
    """Exact minimum of num/den over int64 candidates (den > 0) and its
    lowest position, by integer cross multiplication (num, den < 2**30)."""
    idx = 0
    while (better := np.flatnonzero(num * den[idx] < num[idx] * den)).size:
        idx = int(better[0])
    return Fraction(int(num[idx]), int(den[idx])), idx


def _fraction(objective: str, g: Graph, values, cut, num, den, max_cut):
    """The (numerator, denominator) of ``objective``, written into num and
    den, from the cut weights ``cut`` (which may be the numerator) and the
    matching ``values(key, out)``: the whole chunk or its kept entries."""
    if objective == NCUT:
        np.multiply(cut, g.volume, out=num)
        if max_cut is not None:
            num[cut > max_cut] = np.inf
        return num, values("ncut_den", den)
    key, top = _SIDE[objective], cut
    if objective == CHEEGER_VERTEX:
        top = np.minimum(values("bound_a", num), values("bound_b", den), out=num)
    half = (g.n if key == "size" else g.volume) / 2
    np.abs(np.subtract(values(key, den), half, out=den), out=den)
    return top, np.subtract(half, den, out=den)


def _kept(cut: np.ndarray, cap: float) -> np.ndarray | None:
    """The flat positions of the cuts at most ``cap``, or None to evaluate the
    whole chunk: no cap, or more than DENSE_SHARE of the chunk under it."""
    if cap == np.inf:
        return None
    kept = cut <= cap
    return np.flatnonzero(kept) if np.count_nonzero(kept) <= DENSE_SHARE * cut.size else None


def minimize(g: Graph, *objectives: str, max_cut: int | None = None):
    """[(exact minimum, its lowest index)] per objective, from one pass; with
    ``max_cut``, NCUT skips the bipartitions cutting more than it."""
    chunks = bipartition_arrays(g)
    lo, _high, step = _layout(g)
    block = np.empty((4, step, 1 << lo))  # cut, num, den, ratio
    reach = {NCUT: g.volume / 4, ISOPERIMETRIC: g.n // 2,  # M: objective >= cut / M
             CHEEGER_EDGE: g.volume / 2, CHEEGER_VERTEX: g.volume / 2}
    ceiling = np.inf if max_cut is None else max_cut
    limits, best = [np.inf] * len(objectives), [None] * len(objectives)
    for chunk in chunks:
        cut = chunk("cut", block[0])
        if chunk.last:
            cut.flat[-1] = np.inf  # the improper full set, kept by no cap
        for i, objective in enumerate(objectives):
            where = _kept(cut, min(limits[i] * reach[objective],
                                   ceiling if objective == NCUT else np.inf))
            if where is None:
                values, work = chunk, block
            elif not where.size:
                continue
            else:
                values, work = functools.partial(chunk.at, where), np.empty((4, where.size))
                work[0] = cut.flat[where]
            top, bottom = _fraction(objective, g, values, *work[:3], max_cut)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.divide(top, bottom, out=work[3])
            if where is None and chunk.last:
                ratio.flat[-1] = np.inf  # the improper full set
            low = ratio.min()
            if low == np.inf or low > limits[i]:
                continue
            limits[i] = min(limits[i], low * (1 + 1e-9) + 1e-300)
            hit = np.flatnonzero(ratio <= limits[i])
            value, j = exact_min_fraction(top.flat[hit].astype(np.int64),
                                          bottom.flat[hit].astype(np.int64))
            if best[i] is None or value < best[i][0]:  # an earlier index keeps a tie
                best[i] = value, chunk.start + int(hit[j] if where is None else where[hit[j]])
    if None in best:
        raise SizeError("no valid bipartition to minimize over")
    return best


def full_mask_from_index(index: int) -> int:
    """Recover the real vertex bitmask from an enumeration index."""
    return 1 | (index << 1)
