"""Exact minimum normalized cut: exhaustive search and closed-form branches.

The exhaustive operations name their objective to the enumeration engine and
return, among tied minima, the witness of smallest bitmask, so witnesses are
deterministic. The closed-form evaluator implements the published piecewise
minima for the supported families. Each one is a split of cut weight c whose
side volumes differ by d out of vol(V), and every such value is the one
identity Ncut = c vol(V) / (vol A vol B) = 4 c vol(V) / (vol(V)^2 - d^2);
the families differ only in c, d and which split wins. Every threshold
comparison is done in integer arithmetic (square-root thresholds are
compared via squared integer inequalities), so branch classification is
exact on the boundary. The enumeration engine is imported inside the
functions that use it: it loads numpy, which the closed forms never need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import ConnectivityError, DomainError, SizeError
from .graph import (CYCLE, CYCLE_CROSS_PATH, COMPLETE, DOUBLE_TREE, LOLLIPOP,
                    PATH, ROACH, SUBSET_CAPACITY, WEIGHTED_PATH, FamilySpec,
                    Graph, VertexSubset, generate, is_connected,
                    normalized_cut, subset_from_mask, vertex_subset)

BRUTE_FORCE = "brute_force"
PRUNED = "pruned"
FORMULA = "formula"
MAX_SWEEP_ROWS = 1 << 17


@dataclass(frozen=True)
class CutReport:
    """Result of a minimum normalized cut computation."""

    value: Fraction
    witness: VertexSubset | None
    cut_weight: int
    method: str
    branch: str = ""


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ConnectivityError(f"{g.name or 'graph'} is disconnected")


def _cut_report(g: Graph, found: tuple[Fraction, int], method: str,
                branch: str = "") -> CutReport:
    from . import _enumeration as en
    value, idx = found
    witness = subset_from_mask(g, en.full_mask_from_index(idx))
    return CutReport(value, witness, witness.cut_weight, method, branch)


def min_ncut_brute(g: Graph) -> CutReport:
    """Global minimum of the normalized cut by exhaustive enumeration."""
    from . import _enumeration as en
    _require_connected(g)
    return _cut_report(g, *en.minimize(g, en.NCUT), BRUTE_FORCE)


def min_ncut_pruned(g: Graph, seed: VertexSubset) -> CutReport:
    """Minimum normalized cut restricted to cut weights at most cut(seed).

    The restriction is sound only when the seed satisfies the volume-balance
    hypothesis |vol(A) - vol(B)| <= vol(V) / sqrt(cut(seed) + 1); violating
    seeds raise a DomainError and the caller should fall back to the
    unrestricted search.
    """
    from . import _enumeration as en
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
    found, = en.minimize(g, en.NCUT, max_cut=j0)
    return _cut_report(g, found, PRUNED, branch=f"cut<={j0}")


# ---------------------------------------------------------------------------
# expansion constants
# ---------------------------------------------------------------------------

def _expansion(g: Graph, objective: str) -> Fraction:
    from . import _enumeration as en
    _require_connected(g)
    (value, _idx), = en.minimize(g, objective)
    return value


def isoperimetric_number(g: Graph) -> Fraction:
    """min cut(S, V\\S) / |S| over nonempty S with |S| <= n/2."""
    from . import _enumeration as en
    return _expansion(g, en.ISOPERIMETRIC)


def cheeger_edge(g: Graph) -> Fraction:
    """Edge expansion: min cut(S, V\\S) / min(vol S, vol V\\S)."""
    from . import _enumeration as en
    return _expansion(g, en.CHEEGER_EDGE)


def cheeger_vertex(g: Graph) -> Fraction:
    """Vertex expansion: min vol(boundary of S) / min(vol S, vol V\\S)."""
    from . import _enumeration as en
    return _expansion(g, en.CHEEGER_VERTEX)


def expansion_constants(g: Graph):
    """Isoperimetric number, both Cheeger constants and min_ncut(g), from one
    pass; the pass adds the Ncut only when no closed form answers."""
    from . import _enumeration as en
    mcut = _closed_form(g)
    _require_connected(g)
    found = en.minimize(g, en.ISOPERIMETRIC, en.CHEEGER_EDGE, en.CHEEGER_VERTEX,
                        *([] if mcut else [en.NCUT]))
    mcut = mcut or _cut_report(g, found.pop(), BRUTE_FORCE)
    return (*(value for value, _idx in found), mcut)


# ---------------------------------------------------------------------------
# closed-form minima
# ---------------------------------------------------------------------------

def _split_value(cut: int, volume: int, d: int) -> Fraction:
    """Ncut of a split of weight ``cut`` whose side volumes differ by ``d``.

    With vol A + vol B = volume and vol A - vol B = d, vol A * vol B equals
    (volume^2 - d^2) / 4, so cut * volume / (vol A * vol B) is the value below.
    """
    return Fraction(4 * cut * volume, volume * volume - d * d)


def _nearest_split(base: int, step: int) -> tuple[int, int]:
    """(d, alpha): base lies d from its nearest multiple of ``step``, and
    step * alpha is the smaller multiple at that distance.

    The families' splits move in volume steps of ``step``, so alpha indexes
    the most balanced split and d measures what imbalance is left.
    """
    r = base % step
    d = min(r, step - r)
    return d, (base - d if r == d else base + d) // step


# Splits among the rungs of roach(n, k) or the loops of weighted_path(n, k)
# step by 6 in volume; their d (3k - 2n and 4n + 3k agree mod 6) names the
# residue class of (n mod 3, k mod 2), and K_{d+1} is the roach threshold.
_RESIDUES = ("3|n&2|k", "3!|n&2!|k", "3!|n&2|k", "3|n&2!|k")


def ladder_split_wins(n: int, k: int, d: int) -> bool:
    """True iff on roach(n, k) the ladder split of imbalance 2d cuts below the
    antenna cut, i.e. c4 < c2; the thresholds K_i are the n where this flips.

    Both share the volume 2(t-2), t = 3k+2n: c4 cuts 2 at imbalance 2d and c2
    cuts 1 at imbalance 2(3k-1), so c4 < c2 cross-multiplies to
    (t-2)^2 + d^2 < 2(3k-1)^2, decided exactly in integers.
    """
    return (3 * k + 2 * n - 2) ** 2 + d * d < 2 * (3 * k - 1) ** 2


def in_disagreement_region(n: int, k: int) -> bool:
    """Membership in the parameter region where the two cuts must differ."""
    FamilySpec(ROACH, n=n, k=k)  # DomainError unless roach(n, k) exists
    # members: the minimum is the antenna cut (c2), and k < 4 or 3|n & 2|k (d = 0)
    d = _nearest_split(3 * k - 2 * n, 6)[0]
    return (k < 4 or d == 0) and not ladder_split_wins(n, k, d)


def min_ncut_formula(instance: FamilySpec | Graph) -> CutReport:
    """Closed-form minimum normalized cut of a spec, or of the graph ``generate``
    built from one. Up to the subset capacity its witness must cut ``cut`` and
    achieve the split value exactly on that graph, generated here from a spec.

    Raises DomainError for a graph with no spec, or outside the closed form's
    domain; min_ncut then falls back to min_ncut_brute.
    """
    spec = instance.spec if isinstance(instance, Graph) else instance
    if spec is None:
        raise DomainError(f"{instance.name or 'graph'} was not built from a family spec")
    if spec.family not in _FORMULAS:
        raise DomainError(f"no closed-form minimum for family {spec.family!r}")
    branch, witness_vertices, cut, volume, d = _FORMULAS[spec.family](spec)
    value, w = _split_value(cut, volume, d), None
    if spec.order() <= SUBSET_CAPACITY:  # witness_vertices is lazy: read only here
        g = instance if isinstance(instance, Graph) else generate(spec)
        w = vertex_subset(g, witness_vertices)
        achieved = normalized_cut(g, w)
        if achieved != value or w.cut_weight != cut:
            raise AssertionError(
                f"closed-form branch {branch} of {spec.label()} yields {value} "
                f"cutting {cut} but its witness achieves {achieved} cutting {w.cut_weight}")
    return CutReport(value, w, cut, FORMULA, branch)


def _closed_form(g: Graph) -> CutReport | None:
    """The closed form of g's family instance, checked on g; None when
    ``generate`` did not build g or the instance is outside its domain."""
    try:
        return min_ncut_formula(g) if g.spec is not None else None
    except DomainError:
        return None


def min_ncut(g: Graph) -> CutReport:
    """Minimum normalized cut of g: the closed form when g is a family instance
    from ``generate`` inside its domain, else the exhaustive one."""
    return _closed_form(g) or min_ncut_brute(g)


# Each family's rule returns its split: (branch, witness vertices, cut, volume, d).

def _path_formula(spec: FamilySpec):
    n = spec.n
    if n < 2:
        raise DomainError("path minimum cut needs n >= 2")
    return "2!|n" if n % 2 else "2|n", range(n // 2), 1, 2 * (n - 1), 2 * (n % 2)


def _cycle_formula(spec: FamilySpec):
    n = spec.n
    return "2!|n" if n % 2 else "2|n", range(n // 2), 2, 2 * n, 2 * (n % 2)


def _complete_formula(spec: FamilySpec):
    n = spec.n
    if n < 2:
        raise DomainError("complete-graph minimum cut needs n >= 2")
    return "any subset", [0], n - 1, n * (n - 1), (n - 1) * (n - 2)


# The value 2 / (2^(depth+1) - 3) is built exactly: the cap keeps 2^depth small.
MAX_CLOSED_FORM_DEPTH = 10_000


def _double_tree_formula(spec: FamilySpec):
    if spec.depth > MAX_CLOSED_FORM_DEPTH:
        raise SizeError(f"double-tree closed form is capped at depth {MAX_CLOSED_FORM_DEPTH}")
    return "root bridge", range(2 ** spec.depth - 1), 1, 2 ** (spec.depth + 2) - 6, 0


def _cycle_cross_path_formula(spec: FamilySpec):
    m, n = spec.m, spec.n
    if n < 2:
        raise DomainError("cycle-cross-path minimum cut needs n >= 2 (and m >= 3)")
    volume = 2 * m * (2 * n - 1)
    if 2 * n > m:  # cut every copy of the path once
        verts = (u * n + v for u in range(m) for v in range(n // 2))
        return "2n>m", verts, m, volume, 4 * m * (n % 2)
    # cut every copy of the cycle twice
    verts = (u * n + v for u in range(m // 2) for v in range(n))
    return "2n<=m", verts, 2 * n, volume, 2 * (2 * n - 1) * (m % 2)


def _roach_formula(spec: FamilySpec):
    n, k = spec.n, spec.k
    s, volume = n + k, 2 * (3 * k + 2 * n - 2)
    if (n, k) == (1, 2):  # split the two rows apart
        return "c1:(n,k)=(1,2)", range(s), k, volume, 0
    # Below k = 4 the same test picks the split; the paper labels it by (n, k).
    d, alpha = _nearest_split(3 * k - 2 * n, 6)
    if ladder_split_wins(n, k, d):  # c4: cut both rows between two rungs
        branch = f"c4:{_RESIDUES[d]}&n<K{d + 1}" if k >= 4 else f"c4:(n,k)=({n},{k})"
        return branch, chain(range(n + alpha), range(s, s + n + alpha)), 2, volume, 2 * d
    # c2: cut one antenna off
    branch = f"c2:{_RESIDUES[d]}&K{d + 1}<=n" if k >= 4 else f"c2:k={k}&n>={k}"
    return branch, range(n), 1, volume, 2 * (3 * k - 1)


def _weighted_path_formula(spec: FamilySpec):
    n, k = spec.n, spec.k
    t = 3 * k + 2 * n
    if t < 11:
        raise DomainError(
            f"weighted-path closed form needs 3k+2n >= 11, got {spec.label()}; "
            "use the exhaustive search")
    # Every branch cuts one edge after a prefix of alpha vertices.
    if 3 * k <= 2 * n:  # k <= R1: split inside the plain segment
        d, alpha = _nearest_split(t, 4)
        branch = ("o1&k<=R1", "2!|k&k<=R1", "o2&2|k&k<=R1")[d]
    elif 3 * k <= 2 * n + 3:  # R1 < k <= R2: split where the loops start
        d, branch, alpha = 3 * k - 2 * n, "R1<k<=R2", n
    elif 3 * k <= 2 * n + 6:  # R2 < k <= R3
        d, branch, alpha = 3 * k - 2 * n - 6, "R2<k<=R3", n + 1
    else:  # k > R3: split inside the loop segment
        d, alpha = _nearest_split(4 * n + 3 * k, 6)
        branch = f"{_RESIDUES[d]}&R3<k"
    if not 1 <= alpha <= n + k - 1:
        raise AssertionError(f"prefix split {alpha} out of range for {spec.label()}")
    return branch, range(alpha), 1, t - 2, d


def _lollipop_formula(spec: FamilySpec):
    n, m = spec.n, spec.m
    q = n * n - n
    volume = q + 2 * m
    if m == 1:  # the path vertex with its clique neighbour
        return "m=1", [0, m], n - 1, volume, n * (3 - n)
    if 2 * m <= q + 4:  # cut the bridge
        return "2<=m<=(n^2-n+4)/2", range(m), 1, volume, 2 * m - 2 - q
    d, alpha = _nearest_split(volume + 2, 4)  # cut the path nearest to balance
    return f"o{1 + d // 2}&m>(n^2-n+4)/2", range(alpha), 1, volume, d


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
    try:
        count = len(n_range) * len(k_range)
    except OverflowError:  # a range longer than sys.maxsize
        count = MAX_SWEEP_ROWS + 1
    if count > MAX_SWEEP_ROWS:
        raise SizeError(f"sweep is capped at {MAX_SWEEP_ROWS} rows")
    rows = []
    for n in n_range:
        for k in k_range:
            spec = FamilySpec(family, n=n, k=k)
            report = min_ncut_formula(spec)
            rows.append(SweepRow(n, k, report.branch, report.value))
    return rows

