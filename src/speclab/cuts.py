"""Exact minimum normalized cut: exhaustive search and closed-form branches.

The exhaustive operations canonicalize bipartitions so that side A contains
vertex 1 and break value ties on the smallest bitmask, which makes witnesses
deterministic. The closed-form evaluator implements the published piecewise
minima for the supported families; every threshold comparison is done in
integer arithmetic (square-root thresholds are compared via squared integer
inequalities), so branch classification is exact on the boundary.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _enumeration as en
from .errors import ConnectivityError, DomainError
from .graph import (CYCLE, CYCLE_CROSS_PATH, COMPLETE, DOUBLE_TREE, LOLLIPOP,
                    PATH, ROACH, WEIGHTED_PATH, FamilySpec, Graph,
                    VertexSubset, generate, is_connected, normalized_cut,
                    subset_from_mask, vertex_subset)

BRUTE_FORCE = "brute_force"
PRUNED = "pruned"
FORMULA = "formula"


@dataclass(frozen=True)
class CutReport:
    """Result of a minimum normalized cut computation."""

    value: Fraction
    witness: VertexSubset | None
    cut_weight: int
    method: str
    branch: str = ""
    family: FamilySpec | None = None

    def witness_vertices(self) -> tuple[int, ...]:
        return self.witness.vertices() if self.witness is not None else ()


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ConnectivityError(f"{g.name or 'graph'} is disconnected")


def _ncut(c: en.Chunk, keep=None):
    """Ncut objective; bipartitions outside the mask ``keep`` are excluded."""
    s = c.g.volume
    num = c["cut"] * s if keep is None else np.where(keep, c["cut"] * s, np.inf)
    return num, c["vol"] * (s - c["vol"])


def _cut_report(g: Graph, found: tuple[Fraction, int], method: str,
                branch: str = "") -> CutReport:
    value, idx = found
    witness = subset_from_mask(g, en.full_mask_from_index(idx))
    return CutReport(value, witness, witness.cut_weight, method, branch)


def min_ncut_brute(g: Graph) -> CutReport:
    """Global minimum of the normalized cut by exhaustive enumeration."""
    _require_connected(g)
    return _cut_report(g, *en.minimize(g, _ncut), BRUTE_FORCE)


def min_ncut_pruned(g: Graph, seed: VertexSubset) -> CutReport:
    """Minimum normalized cut restricted to cut weights at most cut(seed).

    The restriction is sound only when the seed satisfies the volume-balance
    hypothesis |vol(A) - vol(B)| <= vol(V) / sqrt(cut(seed) + 1); violating
    seeds raise a DomainError and the caller should fall back to the
    unrestricted search.
    """
    _require_connected(g)
    if seed.graph is not g:
        raise DomainError("seed subset was built for a different graph")
    if seed.mask == 0 or seed.mask == (1 << g.n) - 1:
        raise DomainError("seed must be a nonempty proper subset")
    s = g.volume
    j0 = seed.cut_weight
    imbalance = seed.volume - (s - seed.volume)
    if imbalance * imbalance * (j0 + 1) > s * s:
        raise DomainError(
            f"seed violates the balance hypothesis: |{imbalance}| > {s}/sqrt({j0 + 1})")
    found, = en.minimize(g, lambda c: _ncut(c, c["cut"] <= j0))
    return _cut_report(g, found, PRUNED, branch=f"cut<={j0}")


def min_ncut_by_cut_weight(g: Graph) -> dict[int, Fraction]:
    """Minimum normalized cut per realized cut weight (exhaustive)."""
    _require_connected(g)
    mins = {}
    for c in en.bipartition_arrays(g):
        for j in np.unique(c["cut"]):
            if j:  # cut 0 is only the improper full set
                mins.setdefault(int(j), en.RunningMin()).add(c, *_ncut(c, c["cut"] == j))
    return {j: mins[j].result()[0] for j in sorted(mins)}


# ---------------------------------------------------------------------------
# expansion constants
# ---------------------------------------------------------------------------

def _isoperimetric(c: en.Chunk):
    return c["cut"], np.minimum(c["size"], c.g.n - c["size"])


def _cheeger_edge(c: en.Chunk):
    return c["cut"], np.minimum(c["vol"], c.g.volume - c["vol"])


def _cheeger_vertex(c: en.Chunk):
    return np.minimum(c["bound_a"], c["bound_b"]), np.minimum(c["vol"], c.g.volume - c["vol"])


def _expansion(g: Graph, objective) -> Fraction:
    _require_connected(g)
    (value, _idx), = en.minimize(g, objective)
    return value


def isoperimetric_number(g: Graph) -> Fraction:
    """min cut(S, V\\S) / |S| over nonempty S with |S| <= n/2."""
    return _expansion(g, _isoperimetric)


def cheeger_edge(g: Graph) -> Fraction:
    """Edge expansion: min cut(S, V\\S) / min(vol S, vol V\\S)."""
    return _expansion(g, _cheeger_edge)


def cheeger_vertex(g: Graph) -> Fraction:
    """Vertex expansion: min vol(boundary of S) / min(vol S, vol V\\S)."""
    return _expansion(g, _cheeger_vertex)


def expansion_constants(g: Graph, with_ncut: bool = False):
    """Isoperimetric number, both Cheeger constants and, if asked, the
    brute-force minimum normalized cut (else None), from one pass."""
    _require_connected(g)
    found = en.minimize(g, _isoperimetric, _cheeger_edge, _cheeger_vertex,
                        *([_ncut] if with_ncut else []))
    mcut = _cut_report(g, found.pop(), BRUTE_FORCE) if with_ncut else None
    return (*(value for value, _idx in found), mcut)


# ---------------------------------------------------------------------------
# closed-form minima
# ---------------------------------------------------------------------------

def _formula_report(spec: FamilySpec, value: Fraction, branch: str,
                    witness_vertices, cut_weight: int) -> CutReport:
    # Witness construction is skipped above the subset capacity; when built,
    # the witness must achieve the closed-form value exactly.
    w = None
    if _family_order(spec) <= 64:
        g = generate(spec)
        w = vertex_subset(g, witness_vertices)
        achieved = normalized_cut(g, w)
        if achieved != value:
            raise AssertionError(
                f"closed-form branch {branch} of {spec.label()} yields {value} "
                f"but its witness achieves {achieved}")
        cut_weight = w.cut_weight
    return CutReport(value, w, cut_weight, FORMULA, branch, spec)


def _family_order(spec: FamilySpec) -> int:
    f = spec.family
    if f in (PATH, CYCLE, COMPLETE):
        return spec.n
    if f == DOUBLE_TREE:
        return 2 ** (spec.depth + 1) - 2
    if f == CYCLE_CROSS_PATH:
        return spec.m * spec.n
    if f == LOLLIPOP:
        return spec.n + spec.m
    if f == WEIGHTED_PATH:
        return spec.n + spec.k
    if f == ROACH:
        return 2 * (spec.n + spec.k)
    raise DomainError(f"no closed-form minimum for family {spec.family!r}")


def closed_form(spec: FamilySpec | None) -> CutReport | None:
    """min_ncut_formula(spec), or None without a spec or outside its domain."""
    try:
        return min_ncut_formula(spec) if spec is not None else None
    except DomainError:
        return None


def min_ncut_formula(spec: FamilySpec) -> CutReport:
    """Closed-form minimum normalized cut for a family instance.

    Raises DomainError when the instance falls outside the domain where the
    closed form applies; callers should then use min_ncut_brute.
    """
    spec.validate()
    if spec.family not in _FORMULAS:
        raise DomainError(f"no closed-form minimum for family {spec.family!r}")
    return _FORMULAS[spec.family](spec)


def _path_formula(spec: FamilySpec) -> CutReport:
    n = spec.n
    if n < 2:
        raise DomainError("path minimum cut needs n >= 2")
    if n % 2 == 0:
        value, branch, half = Fraction(2, n - 1), "2|n", n // 2
    else:
        value, branch, half = Fraction(2 * (n - 1), n * (n - 2)), "2!|n", (n - 1) // 2
    return _formula_report(spec, value, branch, range(half), 1)


def _cycle_formula(spec: FamilySpec) -> CutReport:
    n = spec.n
    if n % 2 == 0:
        value, branch, half = Fraction(4, n), "2|n", n // 2
    else:
        value, branch, half = Fraction(4 * n, n * n - 1), "2!|n", (n - 1) // 2
    return _formula_report(spec, value, branch, range(half), 2)


def _complete_formula(spec: FamilySpec) -> CutReport:
    n = spec.n
    if n < 2:
        raise DomainError("complete-graph minimum cut needs n >= 2")
    return _formula_report(spec, Fraction(n, n - 1), "any subset", [0], n - 1)


def _double_tree_formula(spec: FamilySpec) -> CutReport:
    t = 2 ** spec.depth - 1
    value = Fraction(2, 2 ** (spec.depth + 1) - 3)
    return _formula_report(spec, value, "root bridge", range(t), 1)


def _cycle_cross_path_formula(spec: FamilySpec) -> CutReport:
    m, n = spec.m, spec.n
    if n < 2:
        raise DomainError("cycle-cross-path minimum cut needs n >= 2 (and m >= 3)")
    if 2 * n > m:
        value = Fraction(2 * (2 * n - 1), 16 * (n // 2) * ((n + 1) // 2) - 4 * n + 1)
        verts = [u * n + v for u in range(m) for v in range(n // 2)]
        return _formula_report(spec, value, "2n>m", verts, m)
    value = Fraction(n * m, (2 * n - 1) * (m // 2) * ((m + 1) // 2))
    verts = [u * n + v for u in range(m // 2) for v in range(n)]
    return _formula_report(spec, value, "2n<=m", verts, 2 * n)


def _roach_formula(spec: FamilySpec) -> CutReport:
    n, k = spec.n, spec.k
    s = n + k
    t = 3 * k + 2 * n
    sq = (t - 2) * (t - 2)
    top_row = range(s)
    antenna = range(n)

    def ladder_prefix(alpha):
        return [*range(n + alpha), *range(s, s + n + alpha)]

    def c4_report(value, offsets_times_6, branch):
        base6 = 3 * k - 2 * n
        alphas = sorted((base6 + off) // 6 for off in offsets_times_6
                        if (base6 + off) % 6 == 0 and 1 <= (base6 + off) // 6 <= k - 1)
        if not alphas:
            raise AssertionError(f"no integer ladder split for branch {branch} of {spec.label()}")
        return _formula_report(spec, value, branch, ladder_prefix(alphas[0]), 2)

    c2 = Fraction(6 * k + 4 * n - 4, (2 * n - 1) * (6 * k + 2 * n - 3))
    div3, div2 = n % 3 == 0, k % 2 == 0
    if n == 1 and k == 2:
        return _formula_report(spec, Fraction(2, 3), "c1:(n,k)=(1,2)", top_row, k)
    if (n, k) in ((1, 3), (2, 3)):
        value = Fraction(4 * (t - 2), (t - 3) * (t - 1))
        return c4_report(value, (-1, 1), f"c4:(n,k)=({n},3)")
    if k >= 4:
        # n < K_i  <=>  (3k+2n-2)^2 < threshold(k); thresholds are integers.
        if div3 and div2:
            if sq < 18 * k * k - 12 * k + 2:
                return c4_report(Fraction(4, t - 2), (0,), "c4:3|n&2|k&n<K1")
            return _formula_report(spec, c2, "c2:3|n&2|k&K1<=n", antenna, 1)
        if div3 and not div2:
            if sq < 18 * k * k - 12 * k - 7:
                value = Fraction(4 * (t - 2), (t - 5) * (t + 1))
                return c4_report(value, (-3, 3), "c4:3|n&2!|k&n<K4")
            return _formula_report(spec, c2, "c2:3|n&2!|k&K4<=n", antenna, 1)
        if not div3 and div2:
            if sq < 18 * k * k - 12 * k - 2:
                value = Fraction(4 * (t - 2), (t - 4) * t)
                return c4_report(value, (-2, 2), "c4:3!|n&2|k&n<K3")
            return _formula_report(spec, c2, "c2:3!|n&2|k&K3<=n", antenna, 1)
        if sq < 18 * k * k - 12 * k + 1:
            value = Fraction(4 * (t - 2), (t - 3) * (t - 1))
            return c4_report(value, (-1, 1), "c4:3!|n&2!|k&n<K2")
        return _formula_report(spec, c2, "c2:3!|n&2!|k&K2<=n", antenna, 1)
    if k == 2:  # n >= 2 here; (1,2) handled above
        return _formula_report(spec, c2, "c2:k=2&n>=2", antenna, 1)
    return _formula_report(spec, c2, "c2:k=3&n>=3", antenna, 1)


def _weighted_path_formula(spec: FamilySpec) -> CutReport:
    n, k = spec.n, spec.k
    if 3 * k + 2 * n < 11:
        raise DomainError(
            f"weighted-path closed form needs 3k+2n >= 11, got {spec.label()}; "
            "use the exhaustive search")
    t = 3 * k + 2 * n

    def prefix_report(value, alpha, branch):
        if not 1 <= alpha <= n + k - 1:
            raise AssertionError(f"prefix split {alpha} out of range for {spec.label()}")
        return _formula_report(spec, value, branch, range(alpha), 1)

    def nearest_integral(base, deltas, limit_6=6):
        hits = [(base + d) // limit_6 for d in deltas if (base + d) % limit_6 == 0]
        if not hits:
            raise AssertionError(f"no integral split in {spec.label()}")
        return min(hits)

    if 3 * k <= 2 * n:  # k <= R1: split inside the plain segment
        if t % 4 == 0:
            return prefix_report(Fraction(4, t - 2), t // 4, "o1&k<=R1")
        if k % 2 == 0:
            alpha = nearest_integral(t, (-2, 2), 4)
            return prefix_report(Fraction(4 * (t - 2), (t - 4) * t), alpha, "o2&2|k&k<=R1")
        alpha = nearest_integral(t, (-1, 1), 4)
        return prefix_report(Fraction(4 * (t - 2), (t - 3) * (t - 1)), alpha, "2!|k&k<=R1")
    if 3 * k <= 2 * n + 3:  # R1 < k <= R2
        value = Fraction(t - 2, (3 * k - 1) * (2 * n - 1))
        return prefix_report(value, n, "R1<k<=R2")
    if 3 * k <= 2 * n + 6:  # R2 < k <= R3
        value = Fraction(t - 2, 2 * (n + 1) * (3 * k - 4))
        return prefix_report(value, n + 1, "R2<k<=R3")
    base = 4 * n + 3 * k  # k > R3: split inside the loop segment
    if n % 3 == 0 and k % 2 == 0:
        return prefix_report(Fraction(4, t - 2), base // 6, "3|n&2|k&R3<k")
    if n % 3 == 0:
        value = Fraction(4 * (t - 2), (t - 5) * (t + 1))
        return prefix_report(value, nearest_integral(base, (-3, 3)), "3|n&2!|k&R3<k")
    if k % 2 == 0:
        value = Fraction(4 * (t - 2), (t - 4) * t)
        return prefix_report(value, nearest_integral(base, (-2, 2)), "3!|n&2|k&R3<k")
    value = Fraction(4 * (t - 2), (t - 3) * (t - 1))
    return prefix_report(value, nearest_integral(base, (-1, 1)), "3!|n&2!|k&R3<k")


def _lollipop_formula(spec: FamilySpec) -> CutReport:
    n, m = spec.n, spec.m
    q = n * n - n
    if m == 1:
        value = Fraction(q + 2, (n + 1) * (n - 1))
        return _formula_report(spec, value, "m=1", [0, m], n - 1)
    if 2 * m <= q + 4:
        value = Fraction(q + 2 * m, (2 * m - 1) * (q + 1))
        return _formula_report(spec, value, "2<=m<=(n^2-n+4)/2", range(m), 1)
    w = q + 2 * m + 2
    if w % 4 == 0:
        return _formula_report(spec, Fraction(4, q + 2 * m), "o1&m>(n^2-n+4)/2",
                               range(w // 4), 1)
    alpha = min(x // 4 for x in (w - 2, w + 2) if x % 4 == 0)
    value = Fraction(4 * (q + 2 * m), (q + 2 * m - 2) * (q + 2 * m + 2))
    return _formula_report(spec, value, "o2&m>(n^2-n+4)/2", range(alpha), 1)


_FORMULAS = {PATH: _path_formula, CYCLE: _cycle_formula, COMPLETE: _complete_formula,
             DOUBLE_TREE: _double_tree_formula, CYCLE_CROSS_PATH: _cycle_cross_path_formula,
             ROACH: _roach_formula, WEIGHTED_PATH: _weighted_path_formula,
             LOLLIPOP: _lollipop_formula}


# ---------------------------------------------------------------------------
# region sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    branch: str
    value: Fraction


def formula_sweep(family: str, n_range, k_range) -> list[SweepRow]:
    """Closed-form minima over a parameter grid for roach or weighted_path."""
    if family not in (ROACH, WEIGHTED_PATH):
        raise DomainError(f"sweep supports roach and weighted_path, not {family!r}")
    rows = []
    for n in n_range:
        for k in k_range:
            spec = FamilySpec(family, n=n, k=k)
            report = min_ncut_formula(spec)
            rows.append(SweepRow(n, k, report.branch, report.value))
    return rows


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "k", "branch", "value_num", "value_den", "value_float"])
    for row in rows:
        writer.writerow([row.n, row.k, row.branch, row.value.numerator,
                         row.value.denominator, format(float(row.value), ".15g")])
    return buf.getvalue()


def sweep_to_gnuplot(rows) -> str:
    """Whitespace-separated dump with a comment header, plottable directly."""
    lines = ["# n k value branch"]
    for row in rows:
        lines.append(f"{row.n} {row.k} {format(float(row.value), '.15g')} {row.branch}")
    return "\n".join(lines) + "\n"
