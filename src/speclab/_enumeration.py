"""Exhaustive bipartition sweep and the four objectives minimized over it.

Bipartitions are canonicalized so that side A contains vertex 0. Index ``m``
holds the membership of vertices 1..n-1 in its bits, so A's full bitmask is
``1 | (m << 1)``. NaN ratios never compete: at the last index, the improper
full set, every objective below is 0/0, and the pruned NCUT is NaN past
``max_cut``. Chunk minima skip NaN (fmin), and NaN fails every ``<= limit``.

Objectives, each num/den over the bipartitions (A, B) of total volume s:
NCUT is cut(A) s / (vol A vol B), and with ``max_cut`` (the pruned search)
a bipartition cutting more has num = NaN; ISOPERIMETRIC is cut(A) / min(|A|,
|B|); CHEEGER_EDGE is cut(A) / min(vol A, vol B); CHEEGER_VERTEX is
min(bound_a, bound_b) / min(vol A, vol B), where bound_a is the volume of
the vertices of B with a neighbour in A and bound_b swaps A and B. The
smaller share min(x, t - x) is t/2 - |x - t/2|, exact on integers.

Memory does not grow with the 2**(n-1) indices: a chunk holds at most
2**CHUNK_BITS of them. The side indicator x = (y, z) splits into a low part y
(vertices 0..lo, k = lo + 1 of them) and a high part z (the other n - k); a
chunk is rows r0..r1-1 of the table whose entry (r, c) is index
``(r << lo) | c``. Each value is a sum of high-factor times low-factor
products, hence one matrix product per chunk over the pair's columns: the
cut weight is x'Lx = y'L[:k, :k]y + z'L[k:, k:]z + 2 z'L[k:, :k]y for the
Laplacian L (k + 2 columns), volumes and sizes are outer sums (2), vol A vol
B = vol(A) (s - vol(A)) is a rank-3 sum of the two parts' volumes (3), and
the boundary volume is vol B, an outer sum, less deg(v) [v in B] [no
neighbour of v in A] summed over v, each indicator a low one times a high
one (n + 2). A factor pair is built the first time a pass asks for it.
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

Before any cut is computed, a pass with several chunks drops whole rows of a
chunk: those whose floor is above every objective's cap (the largest cap,
taken at the start of the chunk), and it skips a chunk no row of which is
left. Row z's floor is the weight z cuts inside the high part, plus, for
each low vertex v, the lighter of its weights into z's side and into the
rest of the high part: every bipartition (y, z) cuts at least that much,
since v is on one side or the other and the low part's own edges add to it.
Vertex 0 is always on side A, so its term is its weight into the rest, not
the lighter one. All of it is read off the cut pair's high factor
(``_floors``), and the float sums are exact for the reason above. A dropped
row cuts more than each cap, so, as for an entry the cap drops, none of its
entries could win or tie. The rows left are evaluated as one smaller block,
the entry (i, c) of which is index ``(rows[i] << lo) | c``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, SizeError
from .graph import EXHAUSTIVE_CAP, Graph
from .matrices import MatrixKind, build_matrix

VOLUME_CAP = 1 << 15
CHUNK_BITS = 16
# A chunk keeping at most this share is evaluated at its kept entries alone,
# by a gathered factor row and column each. With one BLAS thread, on path(20)
# and a random 20-vertex graph, that took 0.2-0.45x the time of the whole
# 2**16-entry chunk at 1/64, 0.55-0.75x at 1/32 and 0.7-1.5x at 1/16, for Ncut
# and the vertex objective (n + 2 boundary columns) alike. Both paths stay:
# bounds ran 7-11x slower on 18-20-vertex random graphs with points alone, 1.8x
# on path(20) with the vertex objective always whole, and 6-16% with kept-column
# matmuls.
DENSE_SHARE = 1 / 64

NCUT, ISOPERIMETRIC = "ncut", "isoperimetric"
CHEEGER_EDGE, CHEEGER_VERTEX = "cheeger_edge", "cheeger_vertex"
# the side measure whose smaller share is each expansion objective's denominator
_SIDE = {ISOPERIMETRIC: "size", CHEEGER_EDGE: "vol", CHEEGER_VERTEX: "vol"}


def _check_size(g: Graph) -> None:
    if g.n < 2:
        raise DomainError("bipartition sweep needs at least two vertices")
    if g.n > EXHAUSTIVE_CAP:
        raise SizeError(f"exhaustive sweep capped at {EXHAUSTIVE_CAP} vertices, got {g.n}")
    if g.volume >= VOLUME_CAP:
        raise SizeError(f"exhaustive sweep caps the total volume at {VOLUME_CAP}")


def _factors(g: Graph, lo: int):
    """factor(key) -> (high, low) with value[r, c] = high[r] @ low[c]; each
    pair is built when a pass first asks for it."""
    n, k, s = g.n, lo + 1, g.volume
    ya = ((np.arange(1 << lo)[:, None] << 1 | 1) >> np.arange(k) & 1).astype(float)
    za = (np.arange(1 << (n - k))[:, None] >> np.arange(n - k) & 1).astype(float)
    lap, deg = build_matrix(g, MatrixKind.DIFFERENCE).values, np.array(g.degrees, dtype=float)
    vol_z, vol_y = za @ deg[k:], ya @ deg[:k]
    ones = np.ones((len(za), 1)), np.ones((len(ya), 1))  # a term's 1: the ones column per side

    def terms(*pairs):  # the pair whose value sums high * low over its (high, low) terms
        return tuple(np.concatenate([one if isinstance(x, int) else x.reshape(len(one), -1)
                                     for x in side], 1) for side, one in zip(zip(*pairs), ones))

    def boundary(y, z):  # volume off the side (y, z) less that with no neighbour on it
        # column v off the side is minus v's weight into this half of the side, 0 iff no
        # neighbour there; lap's diagonal (loops) reaches only on-side columns, masked below
        low, high = deg * (y @ lap[:k] == 0), -1.0 * (z @ lap[k:] == 0)
        low[:, :k] *= 1 - y  # v off the side: 1 - y_v below k, 1 - z_v from k on
        high[:, k:] *= 1 - z
        return terms((s - z @ deg[k:], 1), (1, -(y @ deg[:k])), (high, low))

    builders = {  # x'Lx = y'L[:k, :k]y + z'L[k:, k:]z + 2 z'L[k:, :k]y for x = (y, z)
        "cut": lambda: terms((2 * za @ lap[k:, :k], ya), (((za @ lap[k:, k:]) * za).sum(1), 1),
                             (1, ((ya @ lap[:k, :k]) * ya).sum(1))),
        "vol": lambda: terms((vol_z, 1), (1, vol_y)),
        "size": lambda: terms((za.sum(1), 1), (1, ya.sum(1))),
        # vol(A) vol(B) = (s a - a^2) - 2 a b + (s b - b^2) for vol(A) = a + b
        "ncut_den": lambda: terms((vol_z * (s - vol_z), 1), (-2 * vol_z, vol_y),
                                  (1, vol_y * (s - vol_y))),
        "bound_a": lambda: boundary(ya, za),
        "bound_b": lambda: boundary(1 - ya, 1 - za),
    }
    return functools.cache(lambda key: builders[key]())


class Chunk(NamedTuple):
    """Bipartitions in the table rows ``rows``, 2**lo columns each: a slice,
    or an array of rows where the floor drops some. ``chunk(key, out)``
    writes their values ``key`` (cut, vol, size, ncut_den, bound_a or
    bound_b), from the pass's ``factor`` pair, into ``out`` or a new (rows,
    2**lo) array."""

    lo: int
    rows: slice | np.ndarray
    factor: Callable

    def __call__(self, key: str, out: np.ndarray | None = None) -> np.ndarray:
        high, low = self.factor(key)
        return np.matmul(high[self.rows], low.T, out=out)

    def _cells(self, where):
        """(table row, column) of the chunk's flat positions ``where``."""
        rows, cols = divmod(where, 1 << self.lo)
        return (self.rows[rows] if isinstance(self.rows, np.ndarray)
                else self.rows.start + rows), cols

    def at(self, where: np.ndarray, key: str, out: np.ndarray | None = None) -> np.ndarray:
        """The values ``key`` at the chunk's flat positions ``where`` only,
        into ``out``."""
        high, low = self.factor(key)
        rows, cols = self._cells(where)
        return np.einsum("ij,ij->i", high.take(rows, 0), low.take(cols, 0), out=out)

    def index(self, where: int) -> int:
        """The enumeration index ``(row << lo) | column`` of flat position ``where``."""
        row, col = self._cells(int(where))
        return int(row) << self.lo | col

    @property
    def start(self) -> int:
        return self.index(0)


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
    return (Chunk(lo, slice(r0, r0 + step), factor) for r0 in range(0, high, step))


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
            num[cut > max_cut] = np.nan
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


def _floors(high: np.ndarray, k: int) -> np.ndarray:
    """Per table row z, a lower bound on the cut of every bipartition in it,
    from the high factor of the cut pair (k low vertices)."""
    # per row, column v < k is -2 times low vertex v's weight into z's side, and the
    # last row, every high vertex, gives v's weight into the high part: d[v] is the
    # change in the cut as v moves to side A (where vertex 0 always is) from the cut
    # d[k] with every low vertex on side B. Transposed, each operation is one long run.
    d = high[:, :k + 1].T.copy()
    d[:k] -= 0.5 * high[-1, :k, None]
    np.minimum(d[1:k], 0, out=d[1:k])
    return d.sum(0)


def minimize(g: Graph, *objectives: str, max_cut: int | None = None):
    """[(exact minimum, its lowest index)] per objective, from one pass; with
    ``max_cut``, NCUT skips the bipartitions cutting more than it."""
    chunks = bipartition_arrays(g)
    lo, high, step = _layout(g)
    block = np.empty((4, step, 1 << lo))  # cut, num, den, ratio
    reach = {NCUT: g.volume / 4, ISOPERIMETRIC: g.n // 2,  # M: objective >= cut / M
             CHEEGER_EDGE: g.volume / 2, CHEEGER_VERTEX: g.volume / 2}
    ceiling = np.inf if max_cut is None else max_cut
    limits, best = [np.inf] * len(objectives), [None] * len(objectives)
    floors = None
    for chunk in chunks:
        caps = [min(limit * reach[objective], ceiling if objective == NCUT else np.inf)
                for limit, objective in zip(limits, objectives)]
        cap, dense = max(caps), block
        if cap < np.inf and step < high:  # drop the rows cutting more than every cap
            if floors is None:
                floors = _floors(chunk.factor("cut")[0], lo + 1)
            rows = np.flatnonzero(floors[chunk.rows] <= cap)
            if not rows.size:
                continue
            if rows.size < step:  # else the slice view, not a copy of its rows
                chunk, dense = chunk._replace(rows=chunk.rows.start + rows), block[:, :rows.size]
        cut = chunk("cut", dense[0])
        for i, objective in enumerate(objectives):
            where = _kept(cut, caps[i])
            if where is None:
                values, work = chunk, dense
            elif not where.size:
                continue
            else:
                values, work = functools.partial(chunk.at, where), np.empty((4, where.size))
                work[0] = cut.flat[where]
            top, bottom = _fraction(objective, g, values, *work[:3], max_cut)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.divide(top, bottom, out=work[3])
            low = np.fmin.reduce(ratio, axis=None)  # NaN only if every entry is NaN
            if not low <= limits[i]:  # NaN, or above the running limit
                continue
            limits[i] = min(limits[i], low * (1 + 1e-9) + 1e-300)
            hit = np.flatnonzero(ratio <= limits[i])
            value, j = exact_min_fraction(top.flat[hit].astype(np.int64),
                                          bottom.flat[hit].astype(np.int64))
            if best[i] is None or value < best[i][0]:  # an earlier index keeps a tie
                best[i] = value, chunk.index(hit[j] if where is None else where[hit[j]])
    if None in best:
        raise SizeError("no valid bipartition to minimize over")
    return best


def full_mask_from_index(index: int) -> int:
    """Recover the real vertex bitmask from an enumeration index."""
    return 1 | (index << 1)
