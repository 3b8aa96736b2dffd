"""Chebyshev recurrences, tridiagonal determinants, and characteristic polynomials.

The convention here pairs T_0 = 1, T_1 = x with U_0 = 0, U_1 = 1, so that
T_n(cos t) = cos(n t) and U_n(cos t) * sin(t) = sin(n t). All trigonometric
closed forms are evaluated through these polynomials in c = cos(t) rather
than through arccos, so every expression stays defined when |c| > 1 (the
sin denominators of the printed formulas cancel symbolically).

A ladder sector factor is tail(k) T_n - tail(k-1) T_{n-1} with the loop tail
tail(j) = 2 U_{j+1} + s U_j - U_{j-1} (s = +1 even, -1 odd): both tails read
U_{k-2} .. U_{k+1}, so one evaluation is one pass of each recurrence.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericError

EVEN, ODD = "even", "odd"  # the ladder sectors, named as the s = +1 and s = -1 tails above
BISECTION_WIDTH = 1e-10
MAX_STEPS = 1 << 20


def _advance(x2, a, b, steps: int):
    """Run y_{j+1} = x2 * y_j - y_{j-1} ``steps`` times from the pair (a, b)."""
    for _ in range(steps):
        a, b = b, x2 * b - a
    return a, b


def chebyshev_pair(n: int, x: float) -> tuple[float, float]:
    """(T_n(x), U_n(x)) by the two-term recurrence."""
    if n < 0:
        raise DomainError("chebyshev degree must be nonnegative")
    if n == 0:
        return 1.0, 0.0
    return _advance(2.0 * x, 1.0, x, n - 1)[1], _advance(2.0 * x, 0.0, 1.0, n - 1)[1]


def chebyshev_t(n: int, x: float) -> float:
    return chebyshev_pair(n, x)[0]


def chebyshev_u(n: int, x: float) -> float:
    return chebyshev_pair(n, x)[1]


def tridiag_det(n: int, a: float, b: float) -> float:
    """Determinant of the n x n tridiagonal matrix with diagonal a, bands b.

    Follows |A_0| = 1, |A_1| = a, |A_i| = a |A_{i-1}| - b^2 |A_{i-2}|, which
    equals b^n * U_{n+1}(a / 2b) for b != 0 and remains valid for |a/2b| > 1.
    """
    if n < 0:
        raise DomainError("matrix order must be nonnegative")
    prev, cur = 1.0, a
    if n == 0:
        return prev
    bb = b * b
    for _ in range(n - 1):
        prev, cur = cur, a * cur - bb * prev
    return cur


def _tails(k: int, c, s: int):
    """(tail(k), tail(k-1)) at c for k >= 2, from one pass of the U recurrence."""
    x2 = 2.0 * c
    u0, u1 = _advance(x2, 0.0, 1.0, k - 2)
    u2, u3 = _advance(x2, u0, u1, 2)
    return 2.0 * u3 + s * u2 - u1, 2.0 * u2 + s * u1 - u0


def tail_poly_even(k: int, c: float) -> float:
    """sin-normalized determinant factor of the even loop-tail block.

    Equals (2 sin((k+1)t) + sin(kt) - sin((k-1)t)) / sin(t) at c = cos(t)
    and extends polynomially beyond |c| <= 1.
    """
    if k < 1:
        raise DomainError("tail factor needs k >= 1")
    return _tails(k + 1, c, 1)[1]


def tail_poly_odd(k: int, c: float) -> float:
    """sin-normalized determinant factor of the odd loop-tail block."""
    if k < 1:
        raise DomainError("tail factor needs k >= 1")
    return _tails(k + 1, c, -1)[1]


def normalization(n: int, k: int) -> float:
    """The divisor 2**n * 3**k of the (n, k) sector polynomials, checked.

    Raises NumericError when it is not a finite float64, so that an (n, k)
    out of range is refused before any recurrence of n + k steps runs.
    """
    if n < 3 or k < 3:
        raise DomainError(f"characteristic polynomial needs n >= 3 and k >= 3, got ({n},{k})")
    try:
        scale = 2.0 ** n * 3.0 ** k
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericError(f"2**n * 3**k overflows float64 at (n, k) = ({n},{k})")
    return scale


def _sector_factor(n: int, k: int, lam, shift: float, s: int):
    """Sector factor over 2**n 3**k: c_alpha = lam - 1, tail at 3 lam / 2 - shift."""
    scale = normalization(n, k)
    ca = lam - 1.0
    tail_k, tail_k1 = _tails(k, 1.5 * lam - shift, s)
    t_n1, t_n = _advance(2.0 * ca, 1.0, ca, n - 1)
    return (tail_k * t_n - tail_k1 * t_n1) / scale


def weighted_path_charpoly(n: int, k: int, lam: float) -> float:
    """det(lam I - normalized Laplacian of the n+k weighted path).

    This is also the even factor of the corresponding two-row ladder graph.
    Substitutions: c_alpha = lam - 1 for the plain segment and
    c_beta = 3 lam / 2 - 1 for the loop segment.
    """
    return _sector_factor(n, k, lam, 1.0, 1)


def roach_odd_charpoly(n: int, k: int, lam: float) -> float:
    """Odd factor of the ladder-graph characteristic polynomial.

    Same shape as the even factor with the odd tail and c_gamma = 3 lam/2 - 2.
    """
    return _sector_factor(n, k, lam, 2.0, -1)


def roach_charpoly(n: int, k: int, lam: float) -> float:
    """det(lam I - normalized Laplacian of R) as the even * odd product."""
    return weighted_path_charpoly(n, k, lam) * roach_odd_charpoly(n, k, lam)


def normalized_path_charpoly(n: int, lam: float) -> float:
    """det(lam I - normalized Laplacian of the n-path).

    Polynomial form of -(1/2)^{n-2} sin(t) sin((n-1)t) at lam = 1 + cos(t):
    -(1/2)^{n-2} (1 - c^2) U_{n-1}(c) with c = lam - 1.
    """
    if n < 2:
        raise DomainError("path characteristic polynomial needs n >= 2")
    c = lam - 1.0
    return -(0.5 ** (n - 2)) * (1.0 - c * c) * chebyshev_u(n - 1, c)


def weighted_path_lambda2_bound(k: int) -> float:
    """Lower bound 1 - cos(pi / (4k-1)) on lambda2 of the balanced weighted path."""
    if k < 3:
        raise DomainError("lambda2 bound needs k >= 3")
    return 1.0 - math.cos(math.pi / (4 * k - 1))


def bracket_roots(fn, steps: int, lo: float = 0.0, hi: float = 2.0,
                  width: float = BISECTION_WIDTH) -> list[tuple[float, float]]:
    """Sign-change brackets of fn on [lo, hi], each refined by bisection.

    fn must evaluate elementwise on a float64 array: it is called once on
    the whole grid of steps + 1 points, then on Python floats while
    bisecting. A grid point where fn is 0 gives the bracket (x, x). steps is
    capped at MAX_STEPS (DomainError) before anything is allocated, and a
    non-finite grid value raises NumericError.

    Tangential roots produce no sign change and are missed, and so are
    pairs of roots inside one grid cell, so the returned count is a lower
    bound on the number of roots. Values that underflow to 0 can add
    spurious brackets: a caller that knows the degree d can reject more
    than d brackets, but underflow that leaves at most d brackets goes
    undetected.
    """
    import numpy as np  # the only numpy user here: the polynomials evaluate without it
    if steps < 1:
        raise DomainError("grid needs at least one step")
    if steps > MAX_STEPS:
        raise DomainError(f"grid capped at {MAX_STEPS} steps, got {steps}")
    if not hi > lo:
        raise DomainError("empty interval")
    grid = lo + (hi - lo) * np.arange(steps + 1) / steps
    with np.errstate(all="ignore"):
        values = fn(grid)
        cells = np.flatnonzero((values[:-1] == 0.0) | (values[:-1] * values[1:] < 0.0))
    if not np.isfinite(values).all():
        raise NumericError("polynomial evaluation is not finite on the grid")
    xs, vals = grid.tolist(), values.tolist()
    out = []
    for i in cells.tolist():
        a, fa, b = xs[i], vals[i], xs[i + 1]
        if fa == 0.0:
            out.append((a, a))
            continue
        while b - a > width:
            mid = 0.5 * (a + b)
            fm = fn(mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        out.append((a, b))
    if vals[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out
