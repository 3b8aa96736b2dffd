"""Spectral bisection of the normalized Laplacian and its counterexamples.

The spectral cut takes the eigenvector of the second-smallest eigenvalue
(assumed simple), canonicalizes its sign so the first significantly nonzero
entry is positive, and splits the vertices on the sign pattern with
zero entries joining the positive side. On the two-row ladder families this
is compared against the exact minimum cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cuts import min_ncut_brute, min_ncut_formula
from .errors import ConnectivityError, DomainError, MultiplicityError, NumericError
from .graph import (EXHAUSTIVE_CAP, FamilySpec, Graph, VertexSubset, generate,
                    is_automorphism, is_connected, normalized_cut, vertex_subset)
from .matrices import MatrixKind, SymmetricMatrix, build_matrix, eig_sym

ZERO_TOL = 1e-9
PARITY_TOL = 1e-6

EVEN = "even"
ODD = "odd"
NEITHER = "neither"
NO_AUTOMORPHISM = "no_automorphism"


@dataclass(frozen=True)
class BisectionReport:
    """Sign-pattern cut of the second eigenvector, with exact cut value."""

    lambda2: float
    gap: float
    positive_side: VertexSubset
    value: Fraction
    parity: str
    alt_value: Fraction | None = None
    zero_count: int = 0


def spectral_cut(g: Graph) -> BisectionReport:
    """Bipartition of g by the sign pattern of the second eigenvector.

    The parity is classified under the generator-supplied mirror when the
    graph carries one. When zero entries exist, the opposite-orientation cut
    value is also reported, since the sign convention silently decides which
    side absorbs them.
    """
    if not is_connected(g):
        raise ConnectivityError("spectral cut needs a connected graph")
    if g.n < 2:
        raise DomainError("spectral cut needs at least two vertices")
    spectrum = eig_sym(build_matrix(g, MatrixKind.NORMALIZED))
    if not spectrum.lambda2_is_simple():
        raise MultiplicityError(f"second eigenvalue is not simple (gap {spectrum.gap:.3e}); "
                                "spectral cut undefined")
    u = spectrum.eigenvectors[:, 1]
    significant = np.flatnonzero(np.abs(u) > ZERO_TOL)
    if significant.size == 0:
        raise NumericError("second eigenvector is numerically zero")
    u = -u if u[significant[0]] < 0 else u  # the first significant entry is positive
    zeros = int(np.count_nonzero(np.abs(u) <= ZERO_TOL))
    side = vertex_subset(g, [int(i) for i in np.flatnonzero(u >= -ZERO_TOL)])
    value = normalized_cut(g, side)
    alt = None
    if zeros:
        other = vertex_subset(g, [int(i) for i in np.flatnonzero(u <= ZERO_TOL)])
        alt = normalized_cut(g, other)
    parity = NO_AUTOMORPHISM if g.mirror is None else classify_parity(g, g.mirror, u)
    return BisectionReport(spectrum.lambda2, spectrum.gap, side, value, parity, alt, zeros)


def classify_parity(g: Graph, perm, u) -> str:
    """Classify a vector as even/odd under an involutive automorphism."""
    perm = tuple(perm)
    if not is_automorphism(g, perm):
        raise DomainError("permutation is not an automorphism")
    if any(perm[perm[i]] != i for i in range(g.n)):
        raise DomainError("automorphism must have order 2")
    v = np.asarray(u, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise DomainError("cannot classify the zero vector")
    v = v / norm
    pv = v[list(perm)]
    if np.linalg.norm(v - pv) <= PARITY_TOL:
        return EVEN
    if np.linalg.norm(v + pv) <= PARITY_TOL:
        return ODD
    return NEITHER


def even_odd_blocks(n: int, k: int) -> tuple[SymmetricMatrix, SymmetricMatrix]:
    """Even and odd sector blocks of the two-row ladder's normalized Laplacian.

    The even block equals the normalized Laplacian of the weighted path; the
    odd block shifts the loop-tail diagonal from 1 - 1/d to 1 + 1/d. Their
    spectra together form the full ladder spectrum.
    """
    if n < 1 or k < 2:
        raise DomainError(f"sector blocks need n >= 1 and k >= 2, got ({n},{k})")
    wp = generate(FamilySpec.weighted_path(n, k))
    even = build_matrix(wp, MatrixKind.NORMALIZED)
    odd_values = np.array(even.values)
    for v, w in wp.loops:
        odd_values[v, v] = 1.0 + w / wp.degrees[v]
    return even, SymmetricMatrix(odd_values)


@dataclass(frozen=True)
class IndicatorIdentity:
    """Both sides of the indicator-vector identity y'Ly = vol(V) * Ncut."""

    lhs: float
    rhs: float
    ncut: Fraction
    volume: int
    quadratic_degree: float   # y'Dy, equals vol(V)
    dy_dot_one: float         # (Dy)'1, equals 0
    indicator: np.ndarray


def indicator_identity_check(g: Graph, a) -> IndicatorIdentity:
    """Evaluate the indicator identity for a bipartition side.

    The indicator carries sqrt(vol(B)/vol(A)) on side A and the negated
    reciprocal ratio on side B.
    """
    side = a if isinstance(a, VertexSubset) else vertex_subset(g, a)
    if side.mask == 0 or side.mask == (1 << g.n) - 1:
        raise DomainError("identity needs a nonempty proper subset")
    value = normalized_cut(g, side)
    vol_a = side.volume
    vol_b = g.volume - side.volume
    y = np.array([math.sqrt(vol_b / vol_a) if side.mask >> i & 1
                  else -math.sqrt(vol_a / vol_b) for i in range(g.n)])
    lap = build_matrix(g, MatrixKind.DIFFERENCE).values
    deg = np.array(g.degrees, dtype=float)
    return IndicatorIdentity(
        lhs=float(y @ lap @ y),
        rhs=g.volume * float(value),
        ncut=value,
        volume=g.volume,
        quadratic_degree=float(y @ (deg * y)),
        dy_dot_one=float(deg @ y),
        indicator=y,
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """Exact comparison of minimum cut vs spectral cut on a ladder graph."""

    k: int
    mcut: Fraction
    mcut_method: str
    lcut: Fraction
    lambda2: float
    parity: str
    top_row_cut: bool
    strictly_less: bool


def counterexample_check(k: int) -> CounterexampleReport:
    """Verify the balanced ladder family splits spectrally along the rungs.

    For the family with antenna length 2k and k rungs, the second eigenvector
    must be odd, the spectral cut must be the one separating the two rows,
    and the exact minimum cut must be strictly smaller. The minimum cut is
    exhaustive up to EXHAUSTIVE_CAP vertices (k <= 4) and closed-form above.
    min_ncut would take the closed form for every k; the exhaustive search
    is kept on purpose, because ``mcut_method`` is printed.
    """
    if k < 3:
        raise DomainError("counterexample family needs k >= 3")
    spec = FamilySpec.roach(2 * k, k)
    g = generate(spec)
    report = spectral_cut(g)
    row = (1 << 3 * k) - 1  # the mask of one row: vertices 0..3k-1
    top_row_cut = report.positive_side.mask in (row, row << 3 * k)
    mcut = min_ncut_brute(g) if 6 * k <= EXHAUSTIVE_CAP else min_ncut_formula(spec, g)
    return CounterexampleReport(k, mcut.value, mcut.method, report.value, report.lambda2,
                                report.parity, top_row_cut, mcut.value < report.value)

