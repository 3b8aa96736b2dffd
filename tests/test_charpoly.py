"""Chebyshev recurrences, tridiagonal determinants, and the p/q polynomials."""

import math
import random

import numpy as np
import pytest

import speclab as sl
from speclab import DomainError, FamilySpec, MatrixKind

from conftest import lu_det, slow_bracket_roots, slow_sector_charpoly, slow_tail


def norm_lap(spec):
    return sl.build_matrix(sl.generate(spec), MatrixKind.NORMALIZED).values


def eigvals(spec):
    return sl.eig_sym(sl.build_matrix(sl.generate(spec), MatrixKind.NORMALIZED)).eigenvalues


# ---------------------------------------------------------------------------
# chebyshev pair
# ---------------------------------------------------------------------------

def test_t3_u3_values():
    t3, u3 = sl.chebyshev_pair(3, 0.5)
    assert t3 == pytest.approx(4 * 0.5 ** 3 - 3 * 0.5)  # -1.0
    assert t3 == pytest.approx(-1.0)
    assert u3 == pytest.approx(4 * 0.5 ** 2 - 1)
    assert sl.chebyshev_u(3, 1.0) == pytest.approx(3.0)


def test_t_at_one():
    for n in range(21):
        assert sl.chebyshev_t(n, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_u_at_one_is_degree():
    for n in range(21):
        assert sl.chebyshev_u(n, 1.0) == pytest.approx(float(n), abs=1e-10)


def test_trig_identities():
    rng = random.Random(3)
    for _ in range(100):
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        n = rng.randrange(0, 31)
        t, u = sl.chebyshev_pair(n, math.cos(theta))
        assert abs(t - math.cos(n * theta)) <= 1e-11
        assert abs(u * math.sin(theta) - math.sin(n * theta)) <= 1e-11


def test_negative_degree_rejected():
    with pytest.raises(DomainError):
        sl.chebyshev_pair(-1, 0.0)


# ---------------------------------------------------------------------------
# tridiagonal determinants
# ---------------------------------------------------------------------------

def test_tridiag_2x2():
    assert sl.tridiag_det(2, 3.0, 2.0) == pytest.approx(9.0 - 4.0)


def test_tridiag_sine_ratio():
    theta = math.pi / 7
    got = sl.tridiag_det(5, 2 * math.cos(theta), 1.0)
    assert abs(got - math.sin(6 * theta) / math.sin(theta)) <= 1e-12


def tridiag_dense(n, a, b):
    m = np.zeros((n, n))
    np.fill_diagonal(m, a)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = b
    return m


def test_tridiag_against_lu():
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        got = sl.tridiag_det(6, a, b)
        assert got == pytest.approx(lu_det(tridiag_dense(6, a, b)), abs=1e-10, rel=1e-10)


def test_tridiag_u_relation_inside_and_outside():
    # |a/2b| <= 1 keeps the determinant bounded by (n+1)|b|^n, so |b| <= 1
    # makes the 1e-10 absolute tolerance meaningful; outside values grow
    # exponentially and are compared relatively.
    rng = random.Random(9)
    for _ in range(50):
        inside = rng.random() < 0.5
        b = rng.choice([-1, 1]) * rng.uniform(0.2, 1.0 if inside else 2.0)
        a = (rng.uniform(-1, 1) if inside else rng.choice([-1, 1]) * rng.uniform(1.01, 3)) * 2 * b
        for n in range(21):
            expected = b ** n * sl.chebyshev_u(n + 1, a / (2 * b))
            got = sl.tridiag_det(n, a, b)
            tol = 1e-10 if inside else 1e-9 * max(1.0, abs(expected))
            assert abs(got - expected) <= tol


# ---------------------------------------------------------------------------
# tail factors
# ---------------------------------------------------------------------------

def test_tail_even_at_one():
    # 2 U_{k+1}(1) + U_k(1) - U_{k-1}(1) = 2(k+1) + k - (k-1) = 2k + 3
    for k in range(1, 10):
        assert sl.tail_poly_even(k, 1.0) == pytest.approx(2 * k + 3, abs=1e-10)
    assert sl.tail_poly_even(3, 1.0) == pytest.approx(9.0)


def test_tail_even_trig():
    beta, k = 0.3, 4
    direct = (2 * math.sin((k + 1) * beta) + math.sin(k * beta)
              - math.sin((k - 1) * beta))
    assert abs(sl.tail_poly_even(k, math.cos(beta)) * math.sin(beta) - direct) <= 1e-12


def test_tail_odd_trig():
    gamma, k = 1.1, 5
    direct = (2 * math.sin((k + 1) * gamma) - math.sin(k * gamma)
              - math.sin((k - 1) * gamma))
    assert abs(sl.tail_poly_odd(k, math.cos(gamma)) * math.sin(gamma) - direct) <= 1e-12


@pytest.mark.parametrize("odd", [False, True], ids=["pnk", "qnk"])
def test_single_pass_equals_three_call_formula(odd):
    # the single pass repeats the per-term recurrences' operations exactly
    fn = sl.roach_odd_charpoly if odd else sl.weighted_path_charpoly
    tail = sl.tail_poly_odd if odd else sl.tail_poly_even
    grid = 2.0 * np.arange(2001) / 2000  # the charpoly --roots grid
    lams = [-1.0 + 0.04 * i for i in range(101)]
    for k in range(1, 13):
        assert [tail(k, x - 1) for x in lams] == [slow_tail(k, x - 1, odd) for x in lams]
        assert np.array_equal(tail(k, grid - 1), slow_tail(k, grid - 1, odd))
    for n in range(3, 13):
        for k in range(3, 13):
            assert np.array_equal(fn(n, k, grid), slow_sector_charpoly(n, k, grid, odd))
            assert [fn(n, k, x) for x in lams] == [slow_sector_charpoly(n, k, x, odd)
                                                   for x in lams]


def test_tail_domain():
    with pytest.raises(DomainError):
        sl.tail_poly_even(0, 0.5)


def test_argument_refusals_name_the_argument():
    for call, message in [
        (lambda: sl.tridiag_det(-1, 2.0, 1.0), "matrix order must be nonnegative"),
        (lambda: sl.tail_poly_even(0, 0.5), "tail factor needs k >= 1"),
        (lambda: sl.tail_poly_odd(0, 0.5), "tail factor needs k >= 1"),
        (lambda: sl.normalized_path_charpoly(1, 0.5), "path characteristic polynomial needs n >= 2"),
        (lambda: sl.bracket_roots(lambda x: x - 1.0, 0), "grid needs at least one step"),
        (lambda: sl.bracket_roots(lambda x: x - 1.0, 4, 1.0, 1.0), "empty interval"),
    ]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()


# ---------------------------------------------------------------------------
# weighted-path polynomial
# ---------------------------------------------------------------------------

def test_pnk_vanishes_at_zero():
    for (n, k) in ((3, 3), (5, 4), (6, 3)):
        assert abs(sl.weighted_path_charpoly(n, k, 0.0)) <= 1e-12


def test_pnk_vanishes_at_spectrum():
    for lam in eigvals(FamilySpec("weighted_path", n=4, k=3)):
        assert abs(sl.weighted_path_charpoly(4, 3, float(lam))) <= 1e-8


def test_pnk_sign_changes_bracket_spectrum():
    vals = eigvals(FamilySpec("weighted_path", n=6, k=3))
    for lam in vals:
        lo, hi = float(lam) - 1e-6, float(lam) + 1e-6
        flo = sl.weighted_path_charpoly(6, 3, lo)
        fhi = sl.weighted_path_charpoly(6, 3, hi)
        assert flo * fhi < 0 or min(abs(flo), abs(fhi)) <= 1e-10


def test_pnk_domain():
    with pytest.raises(DomainError):
        sl.weighted_path_charpoly(2, 3, 0.5)
    with pytest.raises(DomainError):
        sl.weighted_path_charpoly(3, 2, 0.5)


@pytest.mark.parametrize("nk", [(3, 3), (4, 3), (5, 4)])
def test_pnk_matches_dense_determinant(nk):
    n, k = nk
    m = norm_lap(FamilySpec("weighted_path", n=n, k=k))
    rng = random.Random(17)
    for _ in range(20):
        lam = rng.uniform(-1.0, 3.0)
        dd = lu_det(lam * np.eye(n + k) - m)
        pp = sl.weighted_path_charpoly(n, k, lam)
        assert abs(dd - pp) <= 1e-8 * max(1.0, abs(dd))


# ---------------------------------------------------------------------------
# ladder polynomial factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nk", [(3, 3), (4, 3), (5, 5)])
def test_product_vanishes_on_ladder_spectrum(nk):
    n, k = nk
    for lam in eigvals(FamilySpec("roach", n=n, k=k)):
        assert abs(sl.roach_charpoly(n, k, float(lam))) <= 1e-8


def test_odd_factor_at_two_and_zero():
    # 2 sits in the odd block, 0 in the even block
    for (n, k) in ((3, 3), (5, 4), (4, 5)):
        assert abs(sl.roach_odd_charpoly(n, k, 2.0)) <= 1e-12
        assert abs(sl.roach_odd_charpoly(n, k, 0.0)) > 1e-6
        assert abs(sl.weighted_path_charpoly(n, k, 2.0)) > 1e-6


@pytest.mark.parametrize("nk", [(3, 3), (4, 3), (5, 4)])
def test_factorization_matches_dense_determinant(nk):
    n, k = nk
    m = norm_lap(FamilySpec("roach", n=n, k=k))
    rng = random.Random(23)
    for _ in range(20):
        lam = rng.uniform(-1.0, 3.0)
        dd = lu_det(lam * np.eye(2 * (n + k)) - m)
        pq = sl.roach_charpoly(n, k, lam)
        assert abs(dd - pq) <= 1e-8 * max(1.0, abs(dd))


def test_path_charpoly_closed_form():
    rng = random.Random(29)
    for n in range(4, 11):
        m = norm_lap(FamilySpec("path", n=n))
        for _ in range(10):
            lam = rng.uniform(-1.0, 3.0)
            dd = lu_det(lam * np.eye(n) - m)
            got = sl.normalized_path_charpoly(n, lam)
            assert abs(dd - got) <= 1e-9 * max(1.0, abs(dd))


# ---------------------------------------------------------------------------
# lambda2 lower bound
# ---------------------------------------------------------------------------

def test_lambda2_bound_digits():
    # published leading digits: 0.0405... and 0.02185...
    b3 = sl.weighted_path_lambda2_bound(3)
    b4 = sl.weighted_path_lambda2_bound(4)
    assert 0.0405 <= b3 < 0.0406
    assert 0.02185 <= b4 < 0.02186


def test_lambda2_bound_holds():
    for k in (3, 4, 5):
        lam2 = eigvals(FamilySpec("weighted_path", n=2 * k, k=k))[1]
        assert lam2 >= sl.weighted_path_lambda2_bound(k) - 1e-12


def test_lambda2_bound_domain():
    with pytest.raises(DomainError):
        sl.weighted_path_lambda2_bound(2)


# ---------------------------------------------------------------------------
# root bracketing
# ---------------------------------------------------------------------------

def test_bracket_p43_roots():
    vals = eigvals(FamilySpec("weighted_path", n=4, k=3))
    brackets = sl.bracket_roots(lambda x: sl.weighted_path_charpoly(4, 3, x), 2000)
    assert len(brackets) == 7
    mids = [0.5 * (a + b) for a, b in brackets]
    for mid, lam in zip(mids, vals):
        assert abs(mid - lam) <= 1e-8


def test_bracket_constant_sign():
    assert sl.bracket_roots(lambda x: x * x + 1.0, 100) == []


SECTORS = {"pnk": sl.weighted_path_charpoly, "qnk": sl.roach_odd_charpoly,
           "product": sl.roach_charpoly}


@pytest.mark.parametrize("which", sorted(SECTORS))
def test_bracket_grid_matches_scalar_scan(which):
    # the fault pairs (3,9), (4,8), (9,3), (8,8) among them
    fn = SECTORS[which]
    for n, k in [(3, 3), (3, 9), (4, 8), (9, 3), (8, 8), (5, 7), (6, 3),
                 (7, 12), (10, 4), (12, 11), (11, 5), (4, 10)]:
        steps = max(2000, 4 * (n + k))
        def poly(x):
            return fn(n, k, x)
        assert sl.bracket_roots(poly, steps) == slow_bracket_roots(poly, steps)


@pytest.mark.parametrize("fn, steps, expected", [
    (lambda x: x - 1.0, 1000, [(1.0, 1.0)]),   # root on an interior grid point
    (lambda x: x - 2.0, 7, [(2.0, 2.0)]),      # root at hi
])
def test_bracket_root_on_grid_point(fn, steps, expected):
    assert sl.bracket_roots(fn, steps) == slow_bracket_roots(fn, steps) == expected


def test_bracket_stops_at_a_midpoint_where_fn_is_zero():
    # the grid 0, 2/3, 4/3, 2 brackets 1/2 in its first cell; the second midpoint is 1/2
    assert sl.bracket_roots(lambda x: x - 0.5, 3) == [(0.5, 0.5)]


def test_bracket_steps_capped_before_allocating():
    calls = []
    with pytest.raises(DomainError, match="capped"):
        sl.bracket_roots(calls.append, sl.charpoly.MAX_STEPS + 1)
    assert calls == []
    assert len(sl.bracket_roots(lambda x: x - 1.0, sl.charpoly.MAX_STEPS)) == 1


def test_bracket_non_finite_grid_raises():
    with pytest.raises(sl.NumericError):
        sl.bracket_roots(lambda x: 1.0 / (x - 1.0), 10)


def test_normalization_out_of_range_raises_numeric_error():
    for n, k in [(2000, 3), (600, 600), (10 ** 9, 3), (3, 10 ** 9)]:
        with pytest.raises(sl.NumericError):
            sl.weighted_path_charpoly(n, k, 0.5)
    assert sl.charpoly.normalization(5, 4) == 2.0 ** 5 * 3.0 ** 4


def test_bracket_ladder_product_roots():
    n, k = 6, 3
    vals = eigvals(FamilySpec("roach", n=n, k=k))
    brackets = sl.bracket_roots(lambda x: sl.roach_charpoly(n, k, x), 4000)
    mids = [0.5 * (a + b) for a, b in brackets]
    # every located root is an eigenvalue
    for mid in mids:
        assert min(abs(mid - lam) for lam in vals) <= 1e-8
    # every simple eigenvalue is located
    for i, lam in enumerate(vals):
        gap = min(abs(lam - vals[j]) for j in range(len(vals)) if j != i)
        if gap > 1e-6:
            assert min(abs(mid - lam) for mid in mids) <= 1e-8
