"""Graph families and seeded random graphs, built without speclab.

Vertex numbering follows speclab's documented conventions (two-row families
put the top row first, products map (u, v) to u * n + v), so that witnesses
the program reports can be checked against these edge lists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class G:
    n: int
    edges: tuple
    loops: tuple = ()
    name: str = ""
    mirror: tuple | None = None  # the family's order-2 automorphism, if any

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "n": self.n,
                           "edges": [[u + 1, v + 1, w] for u, v, w in self.edges],
                           "loops": [[v + 1, w] for v, w in self.loops]})


def path(n: int) -> G:
    return G(n, tuple((i, i + 1, 1) for i in range(n - 1)), (), f"path({n})",
             tuple(range(n - 1, -1, -1)))


def cycle(n: int) -> G:
    edges = [(i, i + 1, 1) for i in range(n - 1)] + [(0, n - 1, 1)]
    return G(n, tuple(edges), (), f"cycle({n})")


def roach(n: int, k: int) -> G:
    """Two rows of n + k vertices joined by rungs on the last k columns."""
    s = n + k
    edges = [(i, i + 1, 1) for i in range(s - 1)]
    edges += [(s + i, s + i + 1, 1) for i in range(s - 1)]
    edges += [(i, s + i, 1) for i in range(n, s)]
    return G(2 * s, tuple(edges), (), f"roach({n},{k})",
             tuple((i + s) % (2 * s) for i in range(2 * s)))


def weighted_path(n: int, k: int) -> G:
    """Path on n + k vertices with a unit loop on each of the last k."""
    s = n + k
    return G(s, tuple((i, i + 1, 1) for i in range(s - 1)),
             tuple((i, 1) for i in range(n, s)), f"weighted_path({n},{k})")


def cycle_cross_path(m: int, n: int) -> G:
    edges = [(u * n + v, u * n + v + 1, 1) for u in range(m) for v in range(n - 1)]
    ring = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    edges += [(a * n + v, b * n + v, 1) for a, b in ring for v in range(n)]
    return G(m * n, tuple(sorted(edges)), (), f"cycle_cross_path({m},{n})")


def double_tree(depth: int) -> G:
    t = 2 ** depth - 1
    half = [(i, c, 1) for i in range(t) for c in (2 * i + 1, 2 * i + 2) if c < t]
    edges = half + [(t + u, t + v, 1) for u, v, _w in half] + [(0, t, 1)]
    return G(2 * t, tuple(edges), (), f"double_tree({depth})")


def lollipop(n: int, m: int) -> G:
    """Path on m vertices whose last vertex joins a clique on n vertices."""
    edges = [(i, i + 1, 1) for i in range(m - 1)]
    edges += [(m + i, m + j, 1) for i in range(n) for j in range(i + 1, n)]
    edges.append((m - 1, m, 1))
    return G(m + n, tuple(edges), (), f"lollipop({n},{m})")


def random_connected(rng: random.Random, n: int, m: int, wmax: int, name: str) -> G:
    """Random spanning tree plus random extra edges, weights in 1..wmax."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        u, v = sorted((order[i], order[rng.randrange(i)]))
        edges[(u, v)] = rng.randint(1, wmax)
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.randint(1, wmax))
    return G(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())), (), name)
