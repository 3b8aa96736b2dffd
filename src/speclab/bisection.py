"""Spectral bisection of the normalized Laplacian and its counterexamples.

The spectral cut takes the eigenvector of the second-smallest eigenvalue
(certified simple), canonicalizes its sign so the first entry whose sign the
solver's residual certifies is positive, and splits the vertices on the sign
pattern with uncertified entries joining the positive side. On the two-row
ladder families this is compared against the exact minimum cut; there the
verdict needs no eigenvector, only one float solve of a sector block and exact
inertia counts of the two sector pencils (see counterexample_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charpoly import EVEN, ODD
from .cuts import min_ncut, min_ncut_brute
from .errors import ConnectivityError, DomainError, MultiplicityError, NumericError
from .graph import (EXHAUSTIVE_CAP, ROACH, FamilySpec, Graph, VertexSubset, check_subset_capacity,
                    generate, is_connected, normalized_cut, subset_from_mask, vertex_subset)
from .matrices import MatrixKind, assemble, build_matrix, check_dense_order, eig_sym

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
    zero_count: int = 0  # entries whose sign the residual bound cannot certify


def spectral_cut(g: Graph) -> BisectionReport:
    """Bipartition of g by the sign pattern of the second eigenvector.

    lambda2 is simple when lambda3 - lambda2 exceeds twice the spectrum's
    error radius. By Davis and Kahan (SIAM J. Numer. Anal. 7, 1970), the
    computed unit u then lies within tol = sqrt(2) |r| / delta of a true unit
    eigenvector x, for the largest residual r and the exact gap's lower bound
    delta = min(lambda2 - lambda1, lambda3 - lambda2) - 2 radius. So entries
    with |u_i| > tol have their true signs; the others count as zero, and the
    other orientation's cut value is reported too, since the sign convention
    decides which side absorbs them. Under the mirror P = g.spec.mirror() of
    g's family, P x = +-x, and u . P u is within 2 tol + tol^2 of that sign.
    """
    if not is_connected(g):
        raise ConnectivityError("spectral cut needs a connected graph")
    if g.n < 2:
        raise DomainError("spectral cut needs at least two vertices")
    check_subset_capacity(g.n)  # before the dense solve
    spectrum = eig_sym(build_matrix(g, MatrixKind.NORMALIZED))
    if not spectrum.lambda2_is_simple():
        raise MultiplicityError(f"second eigenvalue is not simple (gap {spectrum.gap:.3e}); "
                                "spectral cut undefined")
    lam, u = spectrum.eigenvalues, spectrum.eigenvectors[:, 1]
    delta = min(lam[1] - lam[0], spectrum.gap) - 2 * spectrum.radius
    tol = math.sqrt(2.0) * spectrum.residual / delta if delta > 0 else math.inf
    significant = np.flatnonzero(np.abs(u) > tol)
    if significant.size == 0:
        raise NumericError("second eigenvector is numerically zero")
    u = -u if u[significant[0]] < 0 else u  # the first certified entry is positive
    zeros = int(np.count_nonzero(np.abs(u) <= tol))
    side = vertex_subset(g, [int(i) for i in np.flatnonzero(u >= -tol)])
    value = normalized_cut(g, side)
    alt = None
    if zeros:
        other = vertex_subset(g, [int(i) for i in np.flatnonzero(u <= tol)])
        alt = normalized_cut(g, other)
    parity, mirror = NO_AUTOMORPHISM, g.spec and g.spec.mirror()
    if mirror is not None:
        if 2 * tol + tol * tol >= 1:
            raise NumericError("parity of the second eigenvector is not certified")
        parity = EVEN if u @ u[list(mirror)] > 0 else ODD
    return BisectionReport(spectrum.lambda2, spectrum.gap, side, value, parity, alt, zeros)


def sector_pencil(n: int, k: int, sector: str) -> tuple[list[int], list[int]]:
    """Degrees d and diagonal of one sector pencil of roach(n, k), EVEN or ODD.

    A sector is the integer tridiagonal D - W_s with off-diagonal -1 and
    diagonal d_i -+ 1 (even -, odd +) on the rung vertices i >= n, d_i
    elsewhere; (D - W_s) x = lambda D x has the block's spectrum.
    """
    FamilySpec(ROACH, n=n, k=k)  # DomainError unless roach(n, k) exists
    check_dense_order(n + k)
    if sector not in (EVEN, ODD):
        raise DomainError(f"unknown sector {sector!r}; expected {EVEN} or {ODD}")
    s = 1 if sector == ODD else -1
    deg = [1] + [2] * (n - 1) + [3] * (k - 1) + [2]  # path degree, plus 1 on a rung
    return deg, [1] + [2] * (n - 1) + [3 + s] * (k - 1) + [2 + s]


def sector_block(n: int, k: int, sector: str) -> np.ndarray:
    """D^{-1/2} (D - W_s) D^{-1/2}: the NORMALIZED ``assemble`` of the unit path with
    loop weights d_i - diag_i (-+1 on a rung), the same call as build_matrix's, so the
    even block is bitwise the weighted path's. Nothing but the block is (n + k)^2."""
    return _block(*sector_pencil(n, k, sector))


def _block(deg: list[int], diag: list[int]) -> np.ndarray:
    d, r, i = np.array(deg, dtype=float), np.array(diag, dtype=float), np.arange(len(deg))
    return assemble(MatrixKind.NORMALIZED, i.size, (i[:-1], i[1:], 1), (i, d - r), d, r)


def sector_eigenvalues(n: int, k: int, sector: str) -> np.ndarray:
    """Ascending float eigenvalues of one sector block."""
    return _eigenvalues(sector_pencil(n, k, sector))


def _eigenvalues(pencil) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(_block(*pencil))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc


def sturm_count(deg: list[int], diag: list[int], p: int, q: int) -> int | None:
    """Eigenvalues below p/q (q > 0) of the pencil (tridiag(-1, diag, -1), diag(deg)).

    The leading minors of q (D - W_s) - p D follow M_i = t_i M_{i-1} - q^2 M_{i-2}
    with t_i = q diag_i - p deg_i, exactly in Python ints; by Sylvester's law
    of inertia the sign changes of M_0 = 1, M_1, ... count the negative
    pivots, hence the eigenvalues below p/q. None when a minor is zero: then
    p/q is an eigenvalue of a leading block and the count needs another point.
    """
    count, prev, cur, qq = 0, 0, 1, q * q
    for t, d in zip(diag, deg):
        prev, cur = cur, (q * t - p * d) * cur - qq * prev
        if cur == 0:
            return None
        count += (cur < 0) != (prev < 0)
    return count


def _separate(lo: float, hi: float, pencils) -> tuple[int, ...]:
    """Each pencil's count below one dyadic p/q in (lo, hi) that no leading
    minor vanishes at: the grid point of spacing at most (hi - lo)/8 nearest
    the midpoint, else the next ones out, all inside the interval."""
    if not 0.0 <= lo < hi < math.inf:
        raise NumericError("ladder verdict not certified")
    e = max(0, 4 - math.frexp(hi - lo)[1])  # hi - lo >= 2**(exponent - 1) >= 8 / q
    q, mid = 1 << e, round(math.ldexp(0.5 * (lo + hi), e))  # exact, also at subnormal widths
    for p in (mid, mid + 1, mid - 1, mid + 2, mid - 2, mid + 3, mid - 3):
        counts = tuple(sturm_count(deg, diag, p, q) for deg, diag in pencils)
        if None not in counts:
            return counts
    raise NumericError("ladder verdict not certified")


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


def counterexample_spec(k: int) -> FamilySpec:
    """roach(2k, k), refused before anything is built: DomainError below k = 3,
    SizeError above the subset capacity (k >= 11)."""
    if k < 3:
        raise DomainError("counterexample family needs k >= 3")
    spec = FamilySpec(ROACH, n=2 * k, k=k)
    check_subset_capacity(spec.order())
    return spec


def counterexample_check(k: int) -> CounterexampleReport:
    """Verify the balanced ladder family splits spectrally along the rungs.

    For the family with antenna length 2k and k rungs, the second eigenvector
    must be odd, the spectral cut must be the one separating the two rows,
    and the exact minimum cut must be strictly smaller. The minimum cut is
    exhaustive up to EXHAUSTIVE_CAP vertices (k <= 4) and min_ncut above, which
    takes the closed form. That holds for every roach(2k, k); the exhaustive
    search is kept on purpose, because ``mcut_method`` is printed.

    The spectral verdict is certified from the two sector pencils, whose
    spectra together are the ladder's. By the ladder's bipartite symmetry about
    1 (Chung, Spectral Graph Theory, 1997, Lemma 1.8), odd = F (2I - even) F
    for F the alternating-sign diagonal. So one float solve of the odd block
    gives lambda1(odd), its least value (the lambda2 reported), and
    lambda2(even), 2 minus its second-largest. These only place dyadic
    separators 0 < tau < lambda1(odd) < sigma < lambda2(even); exact counts
    (sturm_count) then show that the even sector has one eigenvalue below sigma
    (its 0) and the odd sector none below tau and one below sigma. So lambda2
    of the ladder is the odd block's lambda1, simple and in (tau, sigma). The
    odd block is irreducible with nonpositive off-diagonals, so by
    Perron-Frobenius that eigenvector is positive, and the ladder's is (v, -v)
    with v > 0: the odd spectral cut is exactly the row 0..3k-1, with no
    uncertified entry. NumericError when the counts certify nothing.
    """
    g = generate(counterexample_spec(k))
    row = subset_from_mask(g, (1 << 3 * k) - 1)  # vertices 0..3k-1
    even, odd = sector_pencil(2 * k, k, EVEN), sector_pencil(2 * k, k, ODD)
    vals = _eigenvalues(odd)
    lam, lam2_even = float(vals[0]), 2.0 - float(vals[-2])
    if (_separate(0.0, lam, [odd]) != (0,)
            or _separate(lam, lam2_even, [even, odd]) != (1, 1)):
        raise NumericError("ladder verdict not certified")
    lcut = normalized_cut(g, row)
    mcut = min_ncut_brute(g) if 6 * k <= EXHAUSTIVE_CAP else min_ncut(g)
    return CounterexampleReport(k, mcut.value, mcut.method, lcut, lam, ODD, True,
                                mcut.value < lcut)
