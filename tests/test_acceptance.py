"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here, straight from the contract:
exact rational equality for cut values, 1e-9 for closed-form spectra,
1e-5 for the published eigenvalue lists, 1e-8 for characteristic
polynomials, 1e-9 slack for the bound suite and indicator identities.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

import speclab as sl
from speclab import FamilySpec, MatrixKind
from speclab.bisection import EVEN, ODD


def suite_specs():
    """The oracle suite: every family instance named by the contract."""
    out = []
    out += [FamilySpec("cycle", n=n) for n in range(3, 17)]
    out += [FamilySpec("path", n=n) for n in range(2, 17)]
    out += [FamilySpec("complete", n=n) for n in range(2, 11)]
    out += [FamilySpec("double_tree", depth=d) for d in (2, 3)]
    out += [FamilySpec("cycle_cross_path", m=m, n=n) for m in range(3, 11)
            for n in range(2, 7) if m * n <= 20]
    out += [FamilySpec("roach", n=n, k=k) for n in range(1, 11) for k in range(2, 11)
            if n + k <= 11]
    out += [FamilySpec("weighted_path", n=n, k=k) for n in range(1, 20) for k in range(1, 20)
            if n + k <= 20 and 3 * k + 2 * n >= 11]
    out += [FamilySpec("lollipop", n=n, m=m) for n in range(3, 18) for m in range(1, 16)
            if n + m <= 18]
    return out


def order_of(spec):
    g = sl.generate(spec)
    return g.n


def norm_lambda2(g):
    return sl.eig_sym(sl.build_matrix(g, MatrixKind.NORMALIZED)).lambda2


def test_criterion_1_formula_equals_oracle():
    started = time.monotonic()
    specs = suite_specs()
    for spec in specs:
        formula = sl.min_ncut_formula(spec)
        brute = sl.min_ncut_brute(sl.generate(spec))
        assert formula.value == brute.value, \
            f"{spec.label()}: formula {formula.value} != oracle {brute.value}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 120s"
    print(f"PASS criterion 1: closed form == exhaustive oracle on "
          f"{len(specs)} instances, exact, in {elapsed:.1f}s")


def test_criterion_2_published_cut_values():
    for n in range(3, 17):
        expected = Fraction(4, n) if n % 2 == 0 else Fraction(4 * n, n * n - 1)
        assert sl.min_ncut_formula(FamilySpec("cycle", n=n)).value == expected
    for n in range(2, 11):
        assert sl.min_ncut_formula(FamilySpec("complete", n=n)).value == Fraction(n, n - 1)
    for n in range(2, 17):
        expected = Fraction(2, n - 1) if n % 2 == 0 else Fraction(2 * (n - 1), n * (n - 2))
        assert sl.min_ncut_formula(FamilySpec("path", n=n)).value == expected
    assert sl.min_ncut_formula(FamilySpec("double_tree", depth=3)).value == Fraction(2, 13)
    example = sl.Graph(7, ((0, 1), (1, 2), (2, 0), (2, 3), (0, 3),
                           (0, 4), (2, 5), (5, 4), (6, 4), (6, 5)))
    report = sl.min_ncut_brute(example)
    assert report.value == Fraction(5, 12)  # printed as 0.417
    assert report.witness.vertices() == (0, 1, 2, 3)
    print("PASS criterion 2: published cycle/complete/path/double-tree/example "
          "cut values reproduced exactly")


def test_criterion_3_closed_form_spectra_to_64():
    worst = 0.0
    count = 0
    for kind in MatrixKind:
        for spec in ([FamilySpec("path", n=n) for n in range(2, 65)]
                     + [FamilySpec("cycle", n=n) for n in range(3, 65)]):
            cf = sl.closed_form_spectrum(spec, kind)
            sp = sl.eig_sym(sl.build_matrix(sl.generate(spec), kind))
            diff = float(np.max(np.abs(cf.eigenvalues - sp.eigenvalues)))
            worst = max(worst, diff)
            count += 1
            assert diff <= 1e-9, f"{spec.label()} {kind.value}: diff {diff:.2e}"
    print(f"PASS criterion 3: closed-form vs numeric spectra on {count} "
          f"matrices, worst |diff| = {worst:.2e} <= 1e-9")


def test_criterion_4_published_ladder_spectra():
    full = sl.eig_sym(sl.build_matrix(sl.generate(FamilySpec("roach", n=2, k=2)),
                                      MatrixKind.NORMALIZED)).eigenvalues
    expected = [0.0, 0.204666, 0.371333, 1.0, 1.0, 1.62867, 1.79533, 2.0]
    assert float(np.max(np.abs(full - expected))) < 1e-5
    even, odd = (sl.SymmetricMatrix(sl.sector_block(2, 2, s)) for s in (EVEN, ODD))
    assert float(np.max(np.abs(sl.eig_sym(even).eigenvalues
                               - [0.0, 0.371333, 1.0, 1.79533]))) < 1e-5
    assert float(np.max(np.abs(sl.eig_sym(odd).eigenvalues
                               - [0.204666, 1.0, 1.62867, 2.0]))) < 1e-5
    print("PASS criterion 4: published 8-vertex ladder spectrum and sector "
          "block spectra match within 1e-5")


def test_criterion_5_characteristic_polynomials():
    rng = random.Random(2024)
    for (n, k) in ((3, 3), (4, 3), (5, 4), (5, 5)):
        wp = sl.build_matrix(sl.generate(FamilySpec("weighted_path", n=n, k=k)),
                             MatrixKind.NORMALIZED)
        for lam in sl.eig_sym(wp).eigenvalues:
            assert abs(sl.weighted_path_charpoly(n, k, float(lam))) <= 1e-8
        ladder = sl.build_matrix(sl.generate(FamilySpec("roach", n=n, k=k)),
                                 MatrixKind.NORMALIZED)
        for lam in sl.eig_sym(ladder).eigenvalues:
            assert abs(sl.roach_charpoly(n, k, float(lam))) <= 1e-8
        for _ in range(20):
            lam = rng.uniform(-1.0, 3.0)
            dp = float(np.linalg.det(lam * np.eye(n + k) - wp.values))
            assert abs(dp - sl.weighted_path_charpoly(n, k, lam)) \
                <= 1e-8 * max(1.0, abs(dp))
            dr = float(np.linalg.det(lam * np.eye(2 * (n + k)) - ladder.values))
            assert abs(dr - sl.roach_charpoly(n, k, lam)) <= 1e-8 * max(1.0, abs(dr))
    print("PASS criterion 5: p and p*q vanish on the numeric spectra and match "
          "LU determinants at random points, tol 1e-8")


def test_criterion_6_lambda2_lower_bound():
    b3 = sl.weighted_path_lambda2_bound(3)
    b4 = sl.weighted_path_lambda2_bound(4)
    assert 0.0405 <= b3 < 0.0406
    assert 0.02185 <= b4 < 0.02186
    for k in (3, 4, 5):
        lam2 = norm_lambda2(sl.generate(FamilySpec("weighted_path", n=2 * k, k=k)))
        assert lam2 >= sl.weighted_path_lambda2_bound(k) - 1e-12
    print(f"PASS criterion 6: lambda2 lower bound holds for k=3,4,5; "
          f"k=3 -> {b3:.6f}, k=4 -> {b4:.7f} (published digits)")


def test_criterion_7_counterexample_family():
    for k in (3, 4):
        report = sl.counterexample_check(k)
        assert report.mcut_method == "brute_force"
        assert report.parity == "odd" and report.top_row_cut and report.strictly_less
    for k in (5, 6, 7, 8):
        report = sl.counterexample_check(k)
        assert report.mcut_method == "formula"
        assert report.parity == "odd" and report.top_row_cut and report.strictly_less
    equal_case = sl.spectral_cut(sl.generate(FamilySpec("roach", n=4, k=7)))
    assert equal_case.value == sl.min_ncut_formula(FamilySpec("roach", n=4, k=7)).value
    differing = sl.spectral_cut(sl.generate(FamilySpec("roach", n=6, k=4)))
    assert differing.value != sl.min_ncut_formula(FamilySpec("roach", n=6, k=4)).value
    print("PASS criterion 7: spectral cut strictly exceeds the minimum on the "
          "balanced ladders k=3..8 (odd, top-row); figure regressions hold")


def test_criterion_8_bound_suite():
    """Eigenvalue bounds across the suite.

    The upper isoperimetric bound holds for graphs on at least four
    vertices; the two- and three-vertex complete graphs are genuine
    counterexamples to the unrestricted statement (checked below), so it is
    asserted only on |V| >= 4.
    """
    small = [spec for spec in suite_specs() if order_of(spec) <= 20]
    naive_upper_violations = set()
    for spec in small:
        g = sl.generate(spec)
        mcut = float(sl.min_ncut_brute(g).value)
        lam2_n = norm_lambda2(g)
        assert lam2_n <= mcut + 1e-9, f"{spec.label()}: lambda2 > mcut"
        lam2_d = sl.eig_sym(sl.build_matrix(g, MatrixKind.DIFFERENCE)).lambda2
        iso = float(sl.isoperimetric_number(g))
        assert lam2_d / 2 <= iso + 1e-9, f"{spec.label()}: isoperimetric lower bound"
        upper = math.sqrt(max(0.0, (2 * max(g.degrees) - lam2_d) * lam2_d))
        if iso > upper + 1e-9:
            naive_upper_violations.add(spec.label())
        if g.n >= 4:
            assert iso <= upper + 1e-9, f"{spec.label()}: isoperimetric upper bound"
        h = float(sl.cheeger_edge(g))
        assert h * h / 2 < lam2_n + 1e-9, f"{spec.label()}: Cheeger lower bound"
        assert lam2_n <= 2 * h + 1e-9, f"{spec.label()}: Cheeger upper bound"
    assert naive_upper_violations == {"path(2)", "cycle(3)", "complete(2)",
                                      "complete(3)"}
    print(f"PASS criterion 8: lambda2 <= mcut, isoperimetric and Cheeger bounds "
          f"on {len(small)} graphs (upper isoperimetric bound on |V| >= 4; the "
          f"2- and 3-vertex complete graphs violate the unrestricted form)")


def test_criterion_9_indicator_identity():
    rng = random.Random(99)
    pool = [spec for spec in suite_specs() if order_of(spec) <= 16]
    checked = 0
    while checked < 200:
        spec = rng.choice(pool)
        g = sl.generate(spec)
        mask = rng.randrange(1, 2 ** g.n - 1)
        check = sl.indicator_identity_check(g, sl.subset_from_mask(g, mask))
        assert abs(check.lhs - check.rhs) <= 1e-9 * g.volume
        assert abs(check.quadratic_degree - g.volume) <= 1e-9 * g.volume
        assert abs(check.dy_dot_one) <= 1e-9 * g.volume
        checked += 1
    print("PASS criterion 9: indicator identity (quadratic form, degree "
          "normalization, orthogonality) on 200 random graph/subset pairs")


GOLDEN_ROACH_BRANCHES = [
    (1, 2, "c1:(n,k)=(1,2)", "2/3"),
    (1, 12, "c4:3!|n&2|k&n<K3", "36/323"),
    (2, 3, "c4:(n,k)=(2,3)", "11/30"),
    (3, 4, "c2:3|n&2|k&K1<=n", "32/135"),
    (3, 12, "c4:3|n&2|k&n<K1", "1/10"),
    (4, 7, "c4:3!|n&2!|k&n<K2", "27/182"),
    (6, 4, "c2:3|n&2|k&K1<=n", "4/33"),
    (6, 9, "c2:3|n&2!|k&K4<=n", "74/693"),
    (9, 6, "c2:3|n&2|k&K1<=n", "4/51"),
    (10, 5, "c2:3!|n&2!|k&K2<=n", "66/893"),
    (12, 2, "c2:k=2&n>=2", "56/759"),
    (12, 12, "c2:3|n&2|k&K1<=n", "116/2139"),
    (1, 3, "c4:(n,k)=(1,3)", "9/20"),
    (3, 5, "c4:3|n&2!|k&n<K4", "19/88"),
    (30, 61, "c4:3|n&2!|k&n<K4", "241/14518"),
    (4, 4, "c2:3!|n&2|k&K3<=n", "36/203"),
    (40, 30, "c2:3!|n&2|k&K3<=n", "336/20303"),
    (3, 3, "c2:k=3&n>=3", "26/105"),
    (50, 3, "c2:k=3&n>=3", "214/11385"),
]

GOLDEN_WEIGHTED_PATH_BRANCHES = [
    (3, 3, "R1<k<=R2", "13/40"),
    (3, 12, "3|n&2|k&R3<k", "1/10"),
    (4, 3, "R1<k<=R2", "15/56"),
    (6, 3, "2!|k&k<=R1", "19/90"),
    (6, 4, "o1&k<=R1", "2/11"),
    (8, 4, "o1&k<=R1", "2/13"),
    (9, 7, "R1<k<=R2", "37/340"),
    (10, 8, "R2<k<=R3", "21/220"),
    (12, 3, "2!|k&k<=R1", "31/240"),
    (12, 12, "3|n&2|k&R3<k", "2/29"),
    (4, 2, "o2&2|k&k<=R1", "12/35"),
    (40, 22, "o2&2|k&k<=R1", "144/5183"),
    (3, 5, "3|n&2!|k&R3<k", "19/88"),
    (1, 4, "3!|n&2|k&R3<k", "12/35"),
    (41, 60, "3!|n&2|k&R3<k", "260/16899"),
    (1, 3, "3!|n&2!|k&R3<k", "9/20"),
    (40, 61, "3!|n&2!|k&R3<k", "261/17030"),
]

GOLDEN_OTHER_BRANCHES = [
    (FamilySpec("lollipop", n=3, m=1), "m=1", "1"),
    (FamilySpec("lollipop", n=9, m=1), "m=1", "37/40"),
    (FamilySpec("lollipop", n=3, m=2), "2<=m<=(n^2-n+4)/2", "10/21"),
    (FamilySpec("lollipop", n=3, m=6), "o1&m>(n^2-n+4)/2", "2/9"),
    (FamilySpec("lollipop", n=8, m=41), "o1&m>(n^2-n+4)/2", "2/69"),
    (FamilySpec("lollipop", n=3, m=7), "o2&m>(n^2-n+4)/2", "20/99"),
    (FamilySpec("lollipop", n=8, m=40), "o2&m>(n^2-n+4)/2", "136/4623"),
    (FamilySpec("cycle_cross_path", m=3, n=2), "2n>m", "2/3"),
    (FamilySpec("cycle_cross_path", m=5, n=9), "2n>m", "34/285"),
    (FamilySpec("cycle_cross_path", m=4, n=2), "2n<=m", "2/3"),
    (FamilySpec("cycle_cross_path", m=20, n=3), "2n<=m", "3/25"),
]


def test_branch_labels_stable():
    # region-figure reproduction: the sweep rows must not flip branches
    for n, k, branch, value in GOLDEN_ROACH_BRANCHES:
        report = sl.min_ncut_formula(FamilySpec("roach", n=n, k=k))
        assert (report.branch, str(report.value)) == (branch, value), (n, k)
    for n, k, branch, value in GOLDEN_WEIGHTED_PATH_BRANCHES:
        report = sl.min_ncut_formula(FamilySpec("weighted_path", n=n, k=k))
        assert (report.branch, str(report.value)) == (branch, value), (n, k)
    for spec, branch, value in GOLDEN_OTHER_BRANCHES:
        report = sl.min_ncut_formula(spec)
        assert (report.branch, str(report.value)) == (branch, value), spec.label()
    rows = sl.formula_sweep("roach", range(1, 13), range(2, 13))
    assert len(rows) == 132
    print("PASS region sweep: branch labels and values stable against the "
          "frozen golden sample")
