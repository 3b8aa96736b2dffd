"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's vectorized enumeration
engine: the slow reference implementations walk Python integers and
Fractions directly, and the determinant oracle is LU factorization with
partial pivoting (numpy's det), so closed forms and fast paths are checked
against genuinely independent routes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from speclab import DomainError, FamilySpec, Graph, chebyshev_t, chebyshev_u
from speclab import _enumeration as en
from speclab import bisection

# one small instance of every family
ALL_SPECS = [FamilySpec("path", n=5), FamilySpec("cycle", n=6), FamilySpec("complete", n=4),
             FamilySpec("tree", depth=3), FamilySpec("double_tree", depth=3),
             FamilySpec("cycle_cross_path", m=3, n=2), FamilySpec("roach", n=2, k=3),
             FamilySpec("weighted_path", n=3, k=2), FamilySpec("lollipop", n=4, m=2)]


def sector_block(n: int, k: int, sector: str) -> np.ndarray:
    """The dense block D^{-1/2} (D - W_s) D^{-1/2} of one sector of roach(n, k), as
    the ladder verdict solves it."""
    return bisection._block(*bisection.sector_pencil(n, k, sector))


def lu_det(m: np.ndarray) -> float:
    """Dense determinant via LU with partial pivoting (test-only oracle)."""
    return float(np.linalg.det(np.asarray(m, dtype=float)))


def is_automorphism(g: Graph, perm) -> bool:
    """True iff the permutation commutes with the weighted adjacency matrix."""
    if sorted(perm) != list(range(g.n)):
        raise DomainError("perm is not a bijection on the vertex set")
    edges = {(*sorted((perm[u], perm[v])), w) for u, v, w in g.edges}
    return (edges == set(g.edges)
            and {(perm[v], w) for v, w in g.loops} == set(g.loops))


def slow_parity(g: Graph, perm, u) -> str:
    """Parity of a vector under an order-2 automorphism by distance: "even" or
    "odd" when the unit vector is within 1e-6 of its mirror image or of that
    image's negation, "neither" otherwise."""
    assert is_automorphism(g, perm) and all(perm[perm[i]] == i for i in range(g.n))
    v = np.asarray(u, dtype=float)
    v = v / np.linalg.norm(v)
    pv = v[list(perm)]
    if np.linalg.norm(v - pv) <= 1e-6:
        return "even"
    if np.linalg.norm(v + pv) <= 1e-6:
        return "odd"
    return "neither"


def slow_sides(g: Graph):
    """(full bitmask, |A|, vol A, cut) of every canonical proper bipartition
    (vertex 0 on side A), in increasing bitmask order."""
    for m in range(2 ** (g.n - 1) - 1):
        mask = 1 | (m << 1)
        size = bin(mask).count("1")
        vol_a = sum(g.degrees[i] for i in range(g.n) if mask >> i & 1)
        cut = sum(w for u, v, w in g.edges if (mask >> u & 1) != (mask >> v & 1))
        yield mask, size, vol_a, cut


def slow_min_ncut(g: Graph, max_cut: int | None = None) -> tuple[Fraction, int, int]:
    """Reference exhaustive minimum: (value, full bitmask, cut weight).

    Pure-Python sweep over canonical bipartitions (vertex 0 on side A),
    optionally only those with cut weight <= max_cut, smallest-bitmask tie
    break.
    """
    s = g.volume
    best = None
    for mask, _size, vol_a, cut in slow_sides(g):
        if max_cut is not None and cut > max_cut:
            continue
        value = Fraction(cut * s, vol_a * (s - vol_a))
        if best is None or value < best[0]:
            best = (value, mask, cut)
    return best


def slow_isoperimetric(g: Graph) -> Fraction:
    return min(Fraction(cut, min(size, g.n - size)) for _m, size, _v, cut in slow_sides(g))


def slow_cheeger_edge(g: Graph) -> Fraction:
    s = g.volume
    return min(Fraction(cut, min(vol, s - vol)) for _m, _size, vol, cut in slow_sides(g))


def slow_edge_connectivity(g: Graph) -> int:
    return min(cut for _m, _size, _vol, cut in slow_sides(g))


def edge_connectivity(g: Graph) -> int:
    """Least cut weight over the proper bipartitions, read from the engine's
    cut table (not an oracle: tests compare it with slow_edge_connectivity)."""
    cuts = np.concatenate([c("cut").ravel() for c in en.bipartition_arrays(g)])
    return int(cuts[:-1].min())  # the last index is the improper full set


def neighbour_sets(g: Graph) -> list[set[int]]:
    """Each vertex's neighbours along the edges (a loop is not a neighbour)."""
    neighbours = [set() for _ in range(g.n)]
    for u, v, _w in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return neighbours


def slow_cheeger_vertex(g: Graph) -> Fraction:
    """Reference vertex expansion over all nonempty proper subsets."""
    neighbours = neighbour_sets(g)
    s = g.volume
    best = None
    for mask in range(1, 2 ** g.n - 1):
        inside = [i for i in range(g.n) if mask >> i & 1]
        vol_s = sum(g.degrees[i] for i in inside)
        boundary = {v for u in inside for v in neighbours[u] if not mask >> v & 1}
        value = Fraction(sum(g.degrees[v] for v in boundary), min(vol_s, s - vol_s))
        if best is None or value < best:
            best = value
    return best


def slow_tail(k: int, c, odd: bool = False):
    """Reference loop-tail factor: one chebyshev_u recurrence per term."""
    if odd:
        return 2.0 * chebyshev_u(k + 1, c) - chebyshev_u(k, c) - chebyshev_u(k - 1, c)
    return 2.0 * chebyshev_u(k + 1, c) + chebyshev_u(k, c) - chebyshev_u(k - 1, c)


def slow_sector_charpoly(n: int, k: int, lam, odd: bool = False):
    """Reference sector factor p_{n,k} (odd=False) or q_{n,k} (odd=True):
    three chebyshev_u recurrences per tail and one chebyshev_t per T term,
    in the order of operations of the single-pass evaluation."""
    scale = 2.0 ** n * 3.0 ** k
    ca = lam - 1.0
    c = 1.5 * lam - (2.0 if odd else 1.0)
    value = (slow_tail(k, c, odd) * chebyshev_t(n, ca)
             - slow_tail(k - 1, c, odd) * chebyshev_t(n - 1, ca))
    return value / scale


def slow_bracket_roots(fn, steps: int, lo: float = 0.0, hi: float = 2.0,
                       width: float = 1e-10) -> list[tuple[float, float]]:
    """Reference root bracketing: the scalar grid scan and bisection, one
    Python float evaluation of fn per grid point."""
    if steps < 1:
        raise DomainError("grid needs at least one step")
    if not hi > lo:
        raise DomainError("empty interval")
    xs = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    vals = [fn(x) for x in xs]
    out = []
    for (a, fa), (b, fb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if fa == 0.0:
            out.append((a, a))
            continue
        if fa * fb >= 0.0:
            continue
        while b - a > width:
            mid = 0.5 * (a + b)
            fm = fn(mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        out.append((a, b))
    if vals[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


@pytest.fixture
def ncut_example_graph() -> Graph:
    """The 7-vertex regression graph: triangle pair bridged to a triangle.

    Degrees (4,2,4,2,3,3,2), volume 20; the best split is {1,2,3,4} with
    cut 2 and value 5/12.
    """
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (0, 3),
             (0, 4), (2, 5), (5, 4), (6, 4), (6, 5)]
    return Graph(7, tuple(edges), name="ncut_example")


def assert_exact(report_value: Fraction, expected: Fraction) -> None:
    __tracebackhide__ = True
    assert report_value == expected, f"{report_value} != {expected}"
