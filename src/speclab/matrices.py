"""Matrix builders, a dense symmetric eigensolver that bounds its own
eigenvalue error, and closed-form spectra.

Four matrices are associated with a weighted graph: the adjacency matrix W,
the difference Laplacian D - W, the degree-normalized Laplacian
I - D^{-1/2} W D^{-1/2} (diagonal 1 - w_ii/d_i when loops are present), and
the signless Laplacian D + W. Paths and cycles additionally have closed-form
eigenvalues, and paths closed-form eigenvectors, which the numeric solver is
tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DomainError, NumericError, SizeError
from .graph import CYCLE, MAX_ORDER, PATH, FamilySpec, Graph, MatrixKind

RESIDUAL_TOL = 1e-9
ORTHO_TOL = 1e-9
MAX_DENSE_ORDER = 1 << 12  # largest n x n float64 matrix built (128 MB)


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix, checked nonempty, finite and exactly symmetric."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise DomainError("matrix must be square and nonempty")
        if not np.array_equal(v, v.T):
            raise DomainError("matrix must be exactly symmetric")
        if not np.isfinite(v).all():  # inf gives eig_sym a NaN residual, which its gates pass
            raise DomainError("matrix entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def check_dense_order(order: int) -> None:
    """SizeError above MAX_DENSE_ORDER, before an order x order matrix is allocated."""
    if order > MAX_DENSE_ORDER:
        raise SizeError(f"dense matrices are capped at order {MAX_DENSE_ORDER}, got {order}")


def build_matrix(g: Graph, kind: MatrixKind) -> SymmetricMatrix:
    """One of the four graph matrices; SizeError and DomainError before allocating."""
    n = g.n
    check_dense_order(n)
    if not isinstance(kind, MatrixKind):
        raise DomainError(f"unknown matrix kind {kind!r}")
    if kind is MatrixKind.NORMALIZED and 0 in g.degrees:
        raise DomainError(f"vertex {g.degrees.index(0) + 1} has degree 0; "
                          "normalized Laplacian undefined")
    edges, loops = (np.fromiter(chain.from_iterable(rows), np.int64, width * len(rows))
                    .reshape(-1, width).T for rows, width in ((g.edges, 3), (g.loops, 2)))
    rest = list(g.degrees)  # loopless degrees in ints, rounded once below
    for v, w in g.loops:
        rest[v] -= w
    return SymmetricMatrix(assemble(kind, n, edges, loops, np.array(g.degrees, dtype=float),
                                    np.array(rest, dtype=float)))


# kind -> (entry of an edge (u, v, w) for degrees d, diagonal from d, loop weights l
# and loopless degrees r)
_ENTRIES = {
    MatrixKind.ADJACENCY: (lambda u, v, w, d: w, lambda d, l, r: l),
    MatrixKind.DIFFERENCE: (lambda u, v, w, d: -w, lambda d, l, r: r),
    MatrixKind.SIGNLESS: (lambda u, v, w, d: w, lambda d, l, r: d + l),
    MatrixKind.NORMALIZED: (lambda u, v, w, d: -w * (1.0 / np.sqrt(d[u]) * (1.0 / np.sqrt(d[v]))),
                            lambda d, l, r: 1.0 - l / d),  # -w (s_u s_v) for s = 1/sqrt(d)
}


def assemble(kind: MatrixKind, n: int, edges, loops, deg: np.ndarray,
             rest: np.ndarray) -> np.ndarray:
    """The ``kind`` matrix of order n from edge columns (u, v, w), loop columns (v, w),
    float degrees and float loopless degrees: the kind's edge entry at (u, v) and
    (v, u), its diagonal, +0.0 elsewhere; rounded as eig_sym assumes, with no n x n
    temporary."""
    (u, v, w), (entry, diagonal) = edges, _ENTRIES[kind]
    m = np.zeros((n, n))
    m[u, v] = m[v, u] = entry(u, v, w, deg)
    m.flat[:: n + 1] = diagonal(deg, np.bincount(*loops, n), rest)
    return m


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending eigenvalues, residual, error radius."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    residual: float
    radius: float

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda2(self) -> float:
        if self.order < 2:
            raise DomainError("lambda2 needs at least two eigenvalues")
        return float(self.eigenvalues[1])

    @property
    def gap(self) -> float:
        """lambda3 - lambda2; infinite below three eigenvalues."""
        return float(self.eigenvalues[2] - self.eigenvalues[1]) if self.order > 2 else math.inf

    def lambda2_interval(self) -> tuple[Fraction, Fraction]:
        """Exact ends of [lambda2 - radius, lambda2 + radius], which holds the exact lambda2."""
        lam, rho = Fraction(self.lambda2), Fraction(self.radius)
        return lam - rho, lam + rho

    def lambda2_is_simple(self) -> bool:
        """Certified: the exact lambda2 and lambda3 lie in disjoint intervals."""
        return self.order >= 2 and self.gap > 2 * self.radius


def eig_sym(m: SymmetricMatrix) -> Spectrum:
    """Eigendecomposition of a symmetric matrix, validated against residuals.

    The radius bounds |lambda_i - mu_i| for every i, with mu the ascending
    eigenvalues of the exact matrix that m rounds. By Kahan's residual theorem
    (1967), the ordered pairing is off by at most ||R||_2 / sigma_min(V), for
    R = m V - V diag(lambda) and sigma_min(V)^2 >= 1 - ||V'V - I||_2. With
    u = eps / 2 and scale = n max(1, |m|), the numerator adds to the computed
    ||R||_F the rounding of R, gamma_{n+2} (|m| |V| + |V| |diag(lambda)|)
    entrywise, at most 2(n + 3) u scale ||V||_F, and that of m, 8u max(1, |m|)
    per entry (assemble: +-w is exact for w <= 2**53, d - l is the loopless degree
    rounded once, d + l rounds at most twice, -w s_u s_v is within 7u relative and
    1 - l/d within 3u). Twice the sum at ||V||_F = sqrt(n) covers the rest.
    """
    try:
        vals, vecs = np.linalg.eigh(m.values)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    n = m.order
    columns = np.linalg.norm(m.values @ vecs - vecs * vals, axis=0)
    residual = float(np.max(columns))
    scale = max(1.0, float(np.max(np.abs(m.values)))) * n
    if residual > RESIDUAL_TOL * scale:
        raise NumericError("eigendecomposition residual above tolerance")
    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(n))))
    if ortho > ORTHO_TOL:
        raise NumericError("eigenvectors are not orthonormal")
    eps = float(np.finfo(float).eps)
    rounding = 2 * (n + 7) * math.sqrt(n) * eps * scale  # of R and of m, doubled
    sigma = math.sqrt(1 - n * (ortho + (n + 2) * eps))  # at most sigma_min(V)
    return Spectrum(vals, vecs, residual, (float(np.linalg.norm(columns)) + rounding) / sigma)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

# kind -> (a, b): each path and cycle eigenvalue of that kind is a + b cos(theta)
_COSINE_FORMS = {MatrixKind.ADJACENCY: (0.0, 2.0), MatrixKind.DIFFERENCE: (2.0, -2.0),
                 MatrixKind.NORMALIZED: (1.0, -1.0), MatrixKind.SIGNLESS: (2.0, 2.0)}

# kind -> (theta of eigenvalue j, entry i of eigenvector j) of the n-path, indices
# from 0; the n-cycle has theta = 2 pi j / n for every kind
_PATH_FORMS = {
    MatrixKind.ADJACENCY: (lambda j, n: (j + 1) * np.pi / (n + 1),
                           lambda i, j, n: np.sin((i + 1) * (j + 1) * np.pi / (n + 1))),
    MatrixKind.DIFFERENCE: (lambda j, n: j * np.pi / n,
                            lambda i, j, n: np.cos((2 * i + 1) * j * np.pi / (2 * n))),
    MatrixKind.NORMALIZED: (lambda j, n: j * np.pi / (n - 1),
                            # interior entries carry sqrt(2)
                            lambda i, j, n: np.cos(i * j * np.pi / (n - 1))
                            * np.where((i > 0) & (i < n - 1), math.sqrt(2.0), 1.0)),
    MatrixKind.SIGNLESS: (lambda j, n: (j + 1) * np.pi / n,
                          lambda i, j, n: np.sin((2 * i + 1) * (j + 1) * np.pi / (2 * n))),
}


def _cosine_eigenvalues(spec: FamilySpec, kind: MatrixKind) -> np.ndarray:
    """a + b cos(theta_j) of the path or cycle, unsorted."""
    j, n = np.arange(spec.n), spec.n
    theta = _PATH_FORMS[kind][0](j, n) if spec.family == PATH else 2.0 * j * np.pi / n
    a, b = _COSINE_FORMS[kind]
    return a + b * np.cos(theta)


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Ascending closed-form eigenvalues of a path or cycle. A path's unit
    eigenvector columns, in the same order, are built on first read."""

    kind: MatrixKind
    spec: FamilySpec
    eigenvalues: np.ndarray = field(repr=False)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray | None:
        if self.spec.family != PATH:
            return None
        check_dense_order(self.spec.n)
        entry, j = _PATH_FORMS[self.kind][1], np.arange(self.spec.n)
        order = np.argsort(_cosine_eigenvalues(self.spec, self.kind), kind="stable")
        vecs = entry(j[:, None], j[None, :], j.size)[:, order]
        return vecs / np.linalg.norm(vecs, axis=0)


def closed_form_spectrum(spec: FamilySpec, kind: MatrixKind) -> ClosedFormSpectrum:
    """Closed-form eigenvalues (paths and cycles) and path eigenvectors."""
    if spec.family not in (PATH, CYCLE):
        raise DomainError(f"no closed-form spectrum for family {spec.family!r}")
    n = spec.n
    if n > MAX_ORDER:
        raise SizeError(f"closed-form spectra are capped at n = {MAX_ORDER}, got {spec.label()}")
    if spec.family == PATH and n < 2:
        raise DomainError("closed-form path spectrum needs n >= 2")
    return ClosedFormSpectrum(kind, spec, np.sort(_cosine_eigenvalues(spec, kind)))


def circulant_eigenpairs(first_row) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the circulant matrix with the given first row.

    With w the primitive n-th root of unity exp(-2*pi*i/n), eigenvalue k is
    sum_j c_j w^{kj} and eigenvector k has entries w^{ki}. Columns of the
    returned matrix hold the (unnormalized) eigenvectors.
    """
    row = np.asarray(first_row, dtype=complex)
    n = row.shape[0]
    if n < 1:
        raise DomainError("circulant needs at least one entry")
    omega = np.exp(-2j * np.pi / n)
    powers = np.arange(n)
    vecs = omega ** np.outer(powers, powers)  # column k: (w^k)^i
    vals = vecs.T @ row
    return vals, vecs


def circulant_matrix(first_row) -> np.ndarray:
    row = np.asarray(first_row, dtype=complex)
    n = row.shape[0]
    j = np.arange(n)
    return row[(j[None, :] - j[:, None]) % n]

