"""Weighted undirected graphs, exact cut arithmetic, and family generators.

Vertices are 0-indexed internally; the JSON interchange format and all
user-facing listings are 1-based. Edge weights are positive integers and a
self-loop of weight w contributes w (once) to the degree of its vertex, so
that degree(i) equals the i-th row sum of the weighted adjacency matrix.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, SchemaError, SizeError

SUBSET_CAPACITY = 64
EXHAUSTIVE_CAP = 24
MAX_ORDER = 1 << 17   # generate() and graph files build at most this many vertices
MAX_EDGES = 1 << 19   # and this many edges
MAX_WEIGHT = 1 << 53  # larger integers are not all exact in float64


@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph with optional self-loops.

    ``edges`` entries are ``(u, v, w)`` with ``u < v``; 2-tuples are accepted
    at construction and normalized to weight 1. ``spec`` is the family instance
    ``generate`` built the graph from, None on every other graph (one built
    directly, read from JSON or copied by ``dataclasses.replace``), and not compared.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    loops: tuple[tuple[int, int], ...] = ()
    name: str = ""
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)
    spec: FamilySpec | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if type(n) is not int:  # a bool is not a vertex count, as in FamilySpec
            raise DomainError(f"graph needs an integer n, got {n!r}")
        if n < 1:
            raise DomainError(f"graph needs at least one vertex, got n={n}")
        _check_budget(f"graph with {n} vertices", n, 0)
        deg, edges, loops = [0] * n, {}, {}  # setdefault on their keys finds duplicates
        for e in self.edges:
            u, v, w = (*e, 1) if len(e) == 2 else e
            if u == v:
                raise DomainError(f"edge ({u},{v}) is a loop; use the loops field")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            _check_weight("edge", w)
            if u > v:
                u, v = v, u
            edge = u, v, w
            if edges.setdefault((u, v), edge) is not edge:
                raise DomainError(f"duplicate edge ({u},{v})")
            deg[u] += w
            deg[v] += w
        for v, w in self.loops:
            if not (0 <= v < n):
                raise DomainError(f"loop vertex {v} out of range for n={n}")
            _check_weight("loop", w)
            loop = v, w
            if loops.setdefault(v, loop) is not loop:
                raise DomainError(f"duplicate loop on vertex {v}")
            deg[v] += w
        object.__setattr__(self, "edges", tuple(edges.values()))
        object.__setattr__(self, "loops", tuple(loops.values()))
        object.__setattr__(self, "degrees", tuple(deg))

    @property
    def volume(self) -> int:
        return sum(self.degrees)


def _check_weight(what: str, w) -> None:
    if not (type(w) is int and w > 0):  # a bool is not a weight, as in FamilySpec
        raise DomainError(f"{what} weight {w!r} is not a positive integer")
    if w > MAX_WEIGHT:
        raise DomainError(f"{what} weight {w} is above MAX_WEIGHT = 2**53")


def _check_budget(label: str, order: int, edges: int) -> None:
    """SizeError above MAX_ORDER vertices or MAX_EDGES edges; Graph, generate() and
    from_json_dict() call it before they build anything."""
    if order > MAX_ORDER or edges > MAX_EDGES:
        raise SizeError(f"{label} is above the generation budget of "
                        f"{MAX_ORDER} vertices and {MAX_EDGES} edges")


@dataclass(frozen=True)
class VertexSubset:
    """One side of a bipartition, with its exact volume and cut weight."""

    graph: Graph = field(repr=False)
    mask: int
    volume: int
    cut_weight: int

    def vertices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.graph.n) if self.mask >> i & 1)


def vertex_subset(g: Graph, vertices: Iterable[int]) -> VertexSubset:
    """Build a subset from vertex indices, caching volume and cut weight."""
    mask = 0
    for v in vertices:
        if not (0 <= v < g.n):
            raise DomainError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return subset_from_mask(g, mask)


def check_subset_capacity(order: int) -> None:
    """SizeError when a graph of this order has more vertices than a subset holds."""
    if order > SUBSET_CAPACITY:
        raise SizeError(f"subset capacity is {SUBSET_CAPACITY} vertices, graph has {order}")


def subset_from_mask(g: Graph, mask: int) -> VertexSubset:
    check_subset_capacity(g.n)
    if mask < 0 or mask >= (1 << g.n):
        raise DomainError(f"mask {mask} out of range for n={g.n}")
    vol = sum(g.degrees[i] for i in range(g.n) if mask >> i & 1)
    cutw = sum(w for u, v, w in g.edges if (mask >> u & 1) != (mask >> v & 1))
    return VertexSubset(g, mask, vol, cutw)


def normalized_cut(g: Graph, a) -> Fraction:
    """cut(A, V\\A) * (1/vol(A) + 1/vol(V\\A)) as an exact rational.

    Requires a nonempty proper subset. A disconnected graph may yield 0.
    """
    if not isinstance(a, VertexSubset):
        a = vertex_subset(g, a)
    elif a.graph is not g:
        raise DomainError("subset was built for a different graph")
    if a.mask == 0 or a.mask == (1 << g.n) - 1:
        raise DomainError("normalized cut needs a nonempty proper subset")
    vol_b = g.volume - a.volume
    if a.volume == 0 or vol_b == 0:
        raise DomainError("both sides must have positive volume")
    return Fraction(a.cut_weight, a.volume) + Fraction(a.cut_weight, vol_b)


class MatrixKind(enum.Enum):
    """The four matrices a weighted graph is assembled into (see `matrices`). It has no
    numpy in it, so the CLI refuses an unknown `--kind` before it loads the numeric layer."""

    ADJACENCY = "adjacency"
    DIFFERENCE = "difference"
    NORMALIZED = "normalized"
    SIGNLESS = "signless"

    @classmethod
    def parse(cls, text: str) -> MatrixKind:
        try:
            return cls(text)
        except ValueError:
            names = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown matrix kind {text!r}; expected one of {names}")


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

PATH = "path"
CYCLE = "cycle"
COMPLETE = "complete"
TREE = "tree"
DOUBLE_TREE = "double_tree"
CYCLE_CROSS_PATH = "cycle_cross_path"
ROACH = "roach"
WEIGHTED_PATH = "weighted_path"
LOLLIPOP = "lollipop"

# family -> ((parameter, minimum) in label order, vertex count, edge count)
_FAMILY_TABLE = {
    PATH: ((("n", 1),), lambda s: s.n, lambda s: s.n - 1),
    CYCLE: ((("n", 3),), lambda s: s.n, lambda s: s.n),
    COMPLETE: ((("n", 1),), lambda s: s.n, lambda s: s.n * (s.n - 1) // 2),
    TREE: ((("depth", 1),), lambda s: 2 ** s.depth - 1, lambda s: 2 ** s.depth - 2),
    DOUBLE_TREE: ((("depth", 1),), lambda s: 2 ** (s.depth + 1) - 2,
                  lambda s: 2 ** (s.depth + 1) - 3),
    CYCLE_CROSS_PATH: ((("m", 3), ("n", 1)), lambda s: s.m * s.n,
                       lambda s: s.m * (2 * s.n - 1)),
    ROACH: ((("n", 1), ("k", 2)), lambda s: 2 * (s.n + s.k),
            lambda s: 2 * (s.n + s.k) + s.k - 2),
    WEIGHTED_PATH: ((("n", 1), ("k", 1)), lambda s: s.n + s.k, lambda s: s.n + s.k - 1),
    LOLLIPOP: ((("n", 3), ("m", 1)), lambda s: s.n + s.m,
               lambda s: s.m + s.n * (s.n - 1) // 2),
}
FAMILIES = tuple(_FAMILY_TABLE)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record for one of the named graph families.

    Construction raises DomainError for an unknown family, or for a parameter
    of the family that is None, not an int (a bool is not one), or below its
    minimum.
    """

    family: str
    n: int | None = None
    k: int | None = None
    m: int | None = None
    depth: int | None = None

    def __post_init__(self):
        entry = _FAMILY_TABLE.get(self.family)
        if entry is None:
            raise DomainError(f"unknown family {self.family!r}")
        for name, low in entry[0]:
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise DomainError(f"{self.family} needs an integer {name} (got {self})")
            if value is None or value < low:
                needs = " and ".join(f"{p} >= {lo}" for p, lo in entry[0])
                raise DomainError(f"{self.family} needs {needs} (got {self})")

    def label(self) -> str:
        params = _FAMILY_TABLE[self.family][0]
        return f"{self.family}({','.join(str(getattr(self, p)) for p, _lo in params)})"

    def order(self) -> int:
        """Vertex count of generate(self)."""
        return _FAMILY_TABLE[self.family][1](self)

    def edge_count(self) -> int:
        """Edge count of generate(self), self-loops excluded."""
        return _FAMILY_TABLE[self.family][2](self)

    def mirror(self) -> tuple[int, ...] | None:
        """Order-2 automorphism of generate(self), SizeError where generate raises it: a path
        reversed, a double tree's or a roach's halves swapped (i -> i + n/2 mod n); else None."""
        n = _check_spec_budget(self, self.label())
        if self.family in (DOUBLE_TREE, ROACH):
            return tuple((i + n // 2) % n for i in range(n))
        return tuple(range(n - 1, -1, -1)) if self.family == PATH else None


def _check_spec_budget(spec: FamilySpec, name: str) -> int:
    """spec.order(), after _check_budget on spec's order and edge count, with spec's
    label as name. A tree's depth past MAX_ORDER's bit length is refused before 2**depth
    is built; the other families ignore depth."""
    if spec.family in (TREE, DOUBLE_TREE) and spec.depth > MAX_ORDER.bit_length():
        _check_budget(name, MAX_ORDER + 1, 0)
    order = spec.order()
    _check_budget(name, order, spec.edge_count())
    return order


def _heap_tree_edges(depth: int) -> list[tuple[int, int, int]]:
    t = 2 ** depth - 1
    return [(i, c, 1) for i in range(t) for c in (2 * i + 1, 2 * i + 2) if c < t]


def generate(spec: FamilySpec) -> Graph:
    """Build the exact vertex and edge sets of the named family; the graph
    carries spec as its ``spec``.

    Raises SizeError above MAX_ORDER vertices or MAX_EDGES edges, before
    anything is built.
    """
    f, name = spec.family, spec.label()
    order, loops = _check_spec_budget(spec, name), ()
    if f == PATH:
        edges = [(i, i + 1, 1) for i in range(order - 1)]
    elif f == CYCLE:
        n = spec.n
        edges = [(i, i + 1, 1) for i in range(n - 1)] + [(0, n - 1, 1)]
    elif f == COMPLETE:
        n = spec.n
        edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
    elif f == TREE:
        edges = _heap_tree_edges(spec.depth)
    elif f == DOUBLE_TREE:
        t, half = order // 2, _heap_tree_edges(spec.depth)
        edges = half + [(t + u, t + v, w) for u, v, w in half] + [(0, t, 1)]
    elif f == CYCLE_CROSS_PATH:  # vertex (u, v) of C_m x P_n is u * n + v
        m, n = spec.m, spec.n
        ring = [(u, u + 1) for u in range(m - 1)] + [(0, m - 1)]
        edges = [(u * n + v, u * n + v + 1, 1) for u in range(m) for v in range(n - 1)]
        edges += [(a * n + v, b * n + v, 1) for a, b in ring for v in range(n)]
    elif f == ROACH:
        n, k = spec.n, spec.k
        s = n + k
        edges = []
        for i in range(s - 1):
            edges.append((i, i + 1, 1))
            edges.append((s + i, s + i + 1, 1))
        for i in range(n, s):
            edges.append((i, s + i, 1))
    elif f == WEIGHTED_PATH:
        n, k = spec.n, spec.k
        edges = [(i, i + 1, 1) for i in range(n + k - 1)]
        loops = tuple((i, 1) for i in range(n, n + k))
    else:  # LOLLIPOP, the last family FamilySpec admits
        n, m = spec.n, spec.m
        edges = [(i, i + 1, 1) for i in range(m - 1)]
        edges += [(m + i, m + j, 1) for i in range(n) for j in range(i + 1, n)]
        edges.append((m - 1, m, 1))
    g = Graph(order, tuple(edges), loops, name=name)
    object.__setattr__(g, "spec", spec)  # set here only, so no other graph claims a family
    return g


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    neighbours = [[] for _ in range(g.n)]
    for u, v, _w in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in neighbours[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------

def to_json_dict(g: Graph) -> dict:
    """Graph as a JSON-ready dict with 1-based vertex ids."""
    return {
        "name": g.name,
        "n": g.n,
        "edges": [[u + 1, v + 1, w] for u, v, w in g.edges],
        "loops": [[v + 1, w] for v, w in g.loops],
    }


def _parse_entries(items: list, n: int, what: str, shape: str) -> tuple[tuple[int, ...], ...]:
    """1-based integer entries of ``shape`` (vertices, then a weight) as 0-based tuples."""
    arity = shape.count(",") + 1
    entries = []
    for item in items:
        if (not isinstance(item, list) or len(item) != arity
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise SchemaError(f"{what} entry {item!r} is not {shape}")
        if not all(1 <= x <= n for x in item[:-1]):
            raise SchemaError(f"{what} {item!r} references a vertex outside 1..{n}")
        entries.append((*(x - 1 for x in item[:-1]), item[-1]))
    return tuple(entries)


def from_json_dict(data) -> Graph:
    if not isinstance(data, dict):
        raise SchemaError("graph document must be a JSON object")
    for key in ("name", "n", "edges", "loops"):
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    name, n = data["name"], data["n"]
    if not isinstance(name, str):
        raise SchemaError("name must be a string")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("n must be a positive integer")
    if not isinstance(data["edges"], list) or not isinstance(data["loops"], list):
        raise SchemaError("edges and loops must be arrays")
    m = len(data["edges"])
    _check_budget(f"graph document with {n} vertices and {m} edges", n, m)
    edges = _parse_entries(data["edges"], n, "edge", "[u, v, w]")
    loops = _parse_entries(data["loops"], n, "loop", "[v, w]")
    try:
        return Graph(n, edges, loops, name=name)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc


def to_json(g: Graph) -> str:
    return json.dumps(to_json_dict(g))


def from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an int past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)


def read_json(path) -> Graph:
    """The graph document in a file, read to at most 64 characters per edge of
    the budget; SizeError past that, SchemaError when the file cannot be read."""
    limit = 64 * MAX_EDGES
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(limit + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read graph file: {exc}") from exc
    if len(text) > limit:
        raise SizeError(f"graph file is longer than {limit} characters")
    return from_json(text)


def to_dot(g: Graph) -> str:
    """GraphViz rendering with 1-based labels; loop weights shown on edges."""
    name = (g.name or "G").replace('"', r'\"')  # DOT's one escape in a quoted ID
    name += " " if name.endswith("\\") else ""  # else the closing quote reads as escaped
    lines = [f'graph "{name}" {{']
    for v in range(g.n):
        lines.append(f"  {v + 1};")
    for u, v, w in g.edges:
        attr = f' [label="{w}"]' if w != 1 else ""
        lines.append(f"  {u + 1} -- {v + 1}{attr};")
    for v, w in g.loops:
        lines.append(f'  {v + 1} -- {v + 1} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
