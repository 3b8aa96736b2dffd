"""Spectral bisection, parity classification, sector blocks, counterexamples."""

import dataclasses
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import speclab as sl
from speclab import (DomainError, FamilySpec, MatrixKind, MultiplicityError, NumericError,
                     SizeError, SymmetricMatrix, bisection, cli)
from speclab.bisection import EVEN, ODD

from conftest import slow_parity


def norm_spectrum(spec):
    return sl.eig_sym(sl.build_matrix(sl.generate(spec), MatrixKind.NORMALIZED))


# ---------------------------------------------------------------------------
# spectral cut basics
# ---------------------------------------------------------------------------

def test_p4_splits_in_the_middle():
    g = sl.generate(FamilySpec("path", n=4))
    report = sl.spectral_cut(g)
    assert set(report.positive_side.vertices()) in ({0, 1}, {2, 3})
    assert report.value == Fraction(2, 3)
    assert report.value == sl.min_ncut_formula(FamilySpec("path", n=4)).value
    assert report.parity == "odd"


def test_path_second_eigenvectors_are_odd():
    # checked empirically: reversal flips the sign of the second eigenvector
    for n in range(2, 13):
        report = sl.spectral_cut(sl.generate(FamilySpec("path", n=n)))
        assert report.parity == "odd"


def test_multiplicity_refusal():
    for n in (4, 6):  # normalized cycle spectra have a double second eigenvalue
        with pytest.raises(MultiplicityError):
            sl.spectral_cut(sl.generate(FamilySpec("cycle", n=n)))


def test_p3_zero_entry_grouped_with_positive_side():
    # second eigenvector of the 3-path is (+, 0, -) up to sign
    report = sl.spectral_cut(sl.generate(FamilySpec("path", n=3)))
    assert report.zero_count == 1
    assert report.positive_side.mask.bit_count() == 2
    assert report.value == Fraction(4, 3)
    assert report.alt_value == Fraction(4, 3)  # symmetric here


def test_disconnected_rejected():
    g = sl.Graph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(sl.ConnectivityError):
        sl.spectral_cut(g)


# ladders whose second eigenvector has entries below 1e-9 in size that the
# residual bound still certifies: their spectral cut is the row cut
RESIDUAL_CERTIFIED_ROWS = {(16, 14): Fraction(7, 18), (17, 14): Fraction(14, 37),
                           (17, 15): Fraction(30, 77), (18, 14): Fraction(7, 19)}


@pytest.mark.parametrize("nk", sorted(RESIDUAL_CERTIFIED_ROWS))
def test_lcut_prints_the_row_cut_when_the_residual_certifies_every_sign(nk):
    n, k = nk
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["lcut", "--family", "roach", "--n", str(n), "--k", str(k)], out, err) == 0
    doc = json.loads(out.getvalue())
    value = RESIDUAL_CERTIFIED_ROWS[nk]
    assert doc["lcut"] == {"num": value.numerator, "den": value.denominator,
                           "float": pytest.approx(float(value))}
    assert doc["positive_side"] == list(range(1, n + k + 1))
    assert doc["zero_count"] == 0 and "alt_orientation_lcut" not in doc


def _roach_specs_within_cap():
    return [FamilySpec("roach", n=n, k=k) for n in range(1, 31) for k in range(2, 33 - n)]


def test_odd_ladder_vectors_split_the_rows_with_every_sign_certified():
    # an odd second eigenvector is (v, -v) on the two rows, for v the lowest
    # eigenvector of the odd sector block (lambda1 = 0 is even); that block is
    # irreducible with nonpositive off-diagonals, so by Perron-Frobenius v > 0
    checked = 0
    for spec in _roach_specs_within_cap():
        try:
            report = sl.spectral_cut(sl.generate(spec))
        except MultiplicityError:
            continue
        if report.parity != "odd":
            continue
        row = (1 << spec.n + spec.k) - 1
        assert report.positive_side.mask in (row, row << spec.n + spec.k), spec.label()
        assert report.zero_count == 0, spec.label()
        checked += 1
    assert checked >= 200


def test_sign_certificate_is_tighter_than_1e9_within_the_cap():
    specs = _roach_specs_within_cap()
    specs += [FamilySpec("weighted_path", n=n, k=k) for n in range(1, 64)
              for k in range(1, 65 - n)]
    for spec in specs:
        sp = norm_spectrum(spec)
        if sp.lambda2_is_simple():
            lam = sp.eigenvalues
            bound = math.sqrt(2.0) * sp.residual / min(lam[1] - lam[0], sp.gap)
            assert bound <= 1e-9, spec.label()


def test_oversized_graphs_are_refused_before_the_dense_solve(monkeypatch):
    def build_matrix(*_args):
        raise AssertionError("build_matrix called on an oversized graph")

    monkeypatch.setattr(bisection, "build_matrix", build_matrix)
    with pytest.raises(SizeError):
        sl.spectral_cut(sl.generate(FamilySpec("path", n=65)))
    with pytest.raises(SizeError):
        sl.counterexample_check(11)  # roach(22, 11) has 66 vertices


def test_spectral_cut_never_below_minimum():
    specs = [FamilySpec("path", n=n) for n in range(2, 13)]
    specs += [FamilySpec("cycle", n=n) for n in range(3, 13)]
    specs += [FamilySpec("complete", n=n) for n in (2, 4, 6)]
    specs += [FamilySpec("roach", n=n, k=k) for n in range(1, 6) for k in range(2, 6)
              if n + k <= 7]
    specs += [FamilySpec("weighted_path", n=n, k=k) for (n, k) in ((4, 3), (5, 4), (6, 3))]
    specs += [FamilySpec("lollipop", n=4, m=3), FamilySpec("double_tree", depth=3),
              FamilySpec("cycle_cross_path", m=3, n=3)]
    checked = 0
    for spec in specs:
        g = sl.generate(spec)
        try:
            report = sl.spectral_cut(g)
        except MultiplicityError:
            continue
        assert report.value >= sl.min_ncut_brute(g).value, spec.label()
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# parity classification
# ---------------------------------------------------------------------------

def test_first_eigenvector_is_even():
    g = sl.generate(FamilySpec("roach", n=3, k=3))
    sp = norm_spectrum(FamilySpec("roach", n=3, k=3))
    assert slow_parity(g, g.spec.mirror(), sp.eigenvectors[:, 0]) == "even"


def test_r63_second_eigenvector_is_odd():
    assert sl.spectral_cut(sl.generate(FamilySpec("roach", n=6, k=3))).parity == "odd"


def test_a_copy_of_a_generated_graph_has_no_automorphism():
    g = sl.generate(FamilySpec("roach", n=3, k=4))
    assert sl.spectral_cut(g).parity == "even"
    assert sl.spectral_cut(dataclasses.replace(g)).parity == "no_automorphism"


def test_published_r22_eigenvector_rows():
    g = sl.generate(FamilySpec("roach", n=2, k=2))
    even_row = [-6.90985, 7.772, -3.17291, 1.0, -6.90985, 7.772, -3.17291, 1.0]
    odd_row = [0.707107, -1.0, 1.22474, -1.0, -0.707107, 1.0, -1.22474, 1.0]
    assert slow_parity(g, g.spec.mirror(), even_row) == "even"
    assert slow_parity(g, g.spec.mirror(), odd_row) == "odd"


def _mirrored_specs_within_cap():
    specs = [FamilySpec("path", n=n) for n in range(2, 65)]
    specs += [FamilySpec("double_tree", depth=d) for d in range(1, 6)]
    return specs + _roach_specs_within_cap()


def test_parity_is_the_slow_rule_on_every_mirrored_instance_within_the_cap():
    specs = _mirrored_specs_within_cap()
    assert len(specs) == 533
    for spec in specs:
        g = sl.generate(spec)
        vector = norm_spectrum(spec).eigenvectors[:, 1]
        assert sl.spectral_cut(g).parity == slow_parity(g, spec.mirror(), vector), spec.label()


def _cycle_file(tmp_path, n, weight, heavy):
    edges = [[1, 2, weight + heavy]] + [[i, i + 1, weight] for i in range(2, n)] + [[1, n, weight]]
    path = tmp_path / f"c{n}.json"
    path.write_text(json.dumps({"name": f"c{n}", "n": n, "edges": edges, "loops": []}))
    return str(path)


@pytest.mark.parametrize("n", [8, 9])
def test_lcut_certifies_a_cycle_gap_of_about_1e10(tmp_path, n):
    # one edge heavier by 1 in 2**30 splits the cycle's double lambda2 by about 1e-10
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["lcut", "--graph", _cycle_file(tmp_path, n, 1 << 30, 1)], out, err) == 0
    doc = json.loads(out.getvalue())
    assert doc["gap"] < 2e-10
    assert doc["positive_side"] == [1, 2, 3, n] and doc["zero_count"] == 0


@pytest.mark.parametrize("weight", [1, 1 << 30])
def test_uniform_c8_has_no_spectral_cut(tmp_path, weight):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["lcut", "--graph", _cycle_file(tmp_path, 8, weight, 0)], out, err) == 2
    assert json.loads(err.getvalue())["error"] == "MultiplicityError"


def test_uncertified_lambda2_minus_lambda1_exits_70(tmp_path):
    # two triangles of weight 2**52 joined by a weight-1 edge: lambda2 is about
    # 1e-16, so lambda2 - lambda1 does not clear twice the radius
    w = 1 << 52
    edges = [[1, 2, w], [2, 3, w], [1, 3, w], [4, 5, w], [5, 6, w], [4, 6, w], [3, 4, 1]]
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({"name": "weak", "n": 6, "edges": edges, "loops": []}))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["lcut", "--graph", str(path)], out, err) == 70
    assert json.loads(err.getvalue())["error"] == "NumericError"


# ---------------------------------------------------------------------------
# sector blocks
# ---------------------------------------------------------------------------

def test_blocks_2_2_match_published_matrices():
    even, odd = (sl.sector_block(2, 2, s) for s in (EVEN, ODD))
    s2, s6 = 1 / math.sqrt(2), 1 / math.sqrt(6)
    p_expected = np.array([
        [1, -s2, 0, 0],
        [-s2, 1, -s6, 0],
        [0, -s6, 2 / 3, -s6],
        [0, 0, -s6, 1 / 2]])
    q_expected = np.array([
        [1, -s2, 0, 0],
        [-s2, 1, -s6, 0],
        [0, -s6, 4 / 3, -s6],
        [0, 0, -s6, 3 / 2]])
    assert np.max(np.abs(even - p_expected)) <= 1e-15
    assert np.max(np.abs(odd - q_expected)) <= 1e-15


def test_block_eigenvalues_2_2():
    even, odd = (SymmetricMatrix(sl.sector_block(2, 2, s)) for s in (EVEN, ODD))
    assert np.max(np.abs(sl.eig_sym(even).eigenvalues
                         - [0.0, 0.371333, 1.0, 1.79533])) < 1e-5
    assert np.max(np.abs(sl.eig_sym(odd).eigenvalues
                         - [0.204666, 1.0, 1.62867, 2.0])) < 1e-5


@pytest.mark.parametrize("nk", [(2, 2), (3, 3), (5, 4)])
def test_block_spectra_union_is_ladder_spectrum(nk):
    n, k = nk
    even, odd = (SymmetricMatrix(sl.sector_block(n, k, s)) for s in (EVEN, ODD))
    union = np.sort(np.concatenate([sl.eig_sym(even).eigenvalues,
                                    sl.eig_sym(odd).eigenvalues]))
    full = norm_spectrum(FamilySpec("roach", n=n, k=k)).eigenvalues
    assert np.max(np.abs(union - full)) <= 1e-8


def test_block_reflection_relation():
    # odd block = F^{-1} (2I - even block) F with F the alternating-sign diagonal
    for (n, k) in ((2, 2), (4, 3)):
        even, odd = (sl.sector_block(n, k, s) for s in (EVEN, ODD))
        f = np.diag([(-1.0) ** i for i in range(n + k)])
        assert np.max(np.abs(odd - f @ (2 * np.eye(n + k) - even) @ f)) <= 1e-12


def test_even_block_is_weighted_path_laplacian():
    even = sl.sector_block(4, 3, EVEN)
    wp = sl.build_matrix(sl.generate(FamilySpec("weighted_path", n=4, k=3)),
                         MatrixKind.NORMALIZED)
    assert np.array_equal(even, wp.values)


def test_blocks_domain():
    for sector in (EVEN, ODD):
        with pytest.raises(DomainError):
            sl.sector_block(0, 2, sector)
        with pytest.raises(DomainError):
            sl.sector_block(1, 1, sector)


def test_sector_routines_refuse_bad_parameters_and_unknown_sectors():
    for fn in (bisection.sector_pencil, sl.sector_block, sl.sector_eigenvalues):
        for args in ((0, 2, EVEN), (1, 1, ODD), (3, 3, "mixed"), (3, 3, 1)):
            with pytest.raises(DomainError):
                fn(*args)


def test_sector_routines_refuse_a_block_above_the_dense_cap():
    cap = sl.matrices.MAX_DENSE_ORDER
    message = f"^dense matrices are capped at order {cap}, got {cap + 1}$"
    for fn in (bisection.sector_pencil, sl.sector_block, sl.sector_eigenvalues):
        with pytest.raises(SizeError, match=message):
            fn(cap - 1, 2, ODD)


def test_even_spectrum_is_two_minus_the_odd_spectrum_within_the_cap():
    # the ladder is bipartite: blockwise, odd = F (2I - even) F
    for spec in _roach_specs_within_cap():
        even = sl.sector_eigenvalues(spec.n, spec.k, EVEN)
        odd = sl.sector_eigenvalues(spec.n, spec.k, ODD)
        assert np.max(np.abs(even - (2.0 - odd[::-1]))) <= 1e-12, spec.label()


def test_blocks_are_bitwise_the_dense_weighted_path_and_its_loop_tail_rule():
    # the even block is the weighted path's normalized Laplacian; the odd block
    # replaces each loop vertex's diagonal 1 - w/d by 1 + w/d
    for n in range(1, 63):
        for k in range(2, 65 - n):
            wp = sl.generate(FamilySpec("weighted_path", n=n, k=k))
            even = sl.build_matrix(wp, MatrixKind.NORMALIZED).values
            odd = even.copy()
            for v, w in wp.loops:
                odd[v, v] = 1.0 + w / wp.degrees[v]
            assert sl.sector_block(n, k, EVEN).tobytes() == even.tobytes(), (n, k)
            assert sl.sector_block(n, k, ODD).tobytes() == odd.tobytes(), (n, k)


def test_sector_block_holds_no_dense_temporary():
    # order 1,024: the block itself is one 8 MiB array
    tracemalloc.start()
    try:
        block = sl.sector_block(683, 341, ODD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.nbytes == 8 << 20
    assert peak <= 1.5 * block.nbytes


def _block_counts(n, k, sigma):
    """Dense eigenvalues below sigma of the even and odd blocks of roach(n, k)."""
    return tuple(int(np.count_nonzero(np.linalg.eigvalsh(sl.sector_block(n, k, s)) < sigma))
                 for s in (EVEN, ODD))


def test_sturm_counts_equal_dense_counts_within_the_cap():
    rng = random.Random(20)
    checked = 0
    for spec in _roach_specs_within_cap():
        deg = bisection.sector_pencil(spec.n, spec.k, EVEN)[0]
        diags = [bisection.sector_pencil(spec.n, spec.k, s)[1] for s in (EVEN, ODD)]
        vals = np.concatenate([np.linalg.eigvalsh(sl.sector_block(spec.n, spec.k, s))
                               for s in (EVEN, ODD)])
        for _ in range(3):
            p, q = rng.randrange(-(1 << 16), 9 << 16), 1 << 22  # sigma in (-1/64, 9/4)
            if np.min(np.abs(vals - p / q)) < 1e-6:
                continue
            assert tuple(bisection.sturm_count(deg, diag, p, q) for diag in diags) \
                == _block_counts(spec.n, spec.k, p / q), (spec.label(), p)
            checked += 1
    assert checked >= 1300


def test_a_zero_leading_minor_moves_the_separator():
    # sigma = 1/2 is an eigenvalue of a leading block: of the odd block of
    # roach(10, 5) and of the even block of roach(6, 3)
    for (n, k), sector in (((10, 5), ODD), ((6, 3), EVEN)):
        deg, diag = bisection.sector_pencil(n, k, sector)
        assert bisection.sturm_count(deg, diag, 1, 2) is None
        # the grid of (0.45, 0.55) has spacing 1/128 and starts at 64/128 = 1/2
        (count,) = bisection._separate(0.45, 0.55, [(deg, diag)])
        assert count == bisection.sturm_count(deg, diag, 65, 128)
        assert count == _block_counts(n, k, 65 / 128)[(EVEN, ODD).index(sector)]
    for k in range(3, 11):  # sigma = 1 hits both blocks of every R(2k, k)
        (deg, even), (_, odd) = (bisection.sector_pencil(2 * k, k, s) for s in (EVEN, ODD))
        assert bisection.sturm_count(deg, even, 1, 1) is None
        assert bisection.sturm_count(deg, odd, 1, 1) is None


def _first_grid_point(monkeypatch, lo, hi):
    """(p, q) of the first separator _separate tries in (lo, hi)."""
    points = []
    monkeypatch.setattr(bisection, "sturm_count", lambda deg, diag, p, q: points.append((p, q)))
    with pytest.raises(NumericError):
        bisection._separate(lo, hi, [([1], [1])])
    return points[0]


def test_separator_midpoint_is_the_exact_rounding_of_the_float_midpoint(monkeypatch):
    def check(lo, hi):
        p, q = _first_grid_point(monkeypatch, lo, hi)
        assert p == round(Fraction(0.5 * (lo + hi)) * q), (lo, hi)
        return p, q

    for e in range(0, 60, 3):  # half-way ties round to even
        for j in range(4, 24):  # (j + 1/2) / q, with lo = t - 4 / q >= 0
            t = (2 * j + 1) / 2.0 ** (e + 1)
            assert check(t - 2.0 ** (2 - e), t + 2.0 ** (2 - e)) == (j + j % 2, 1 << e)
    rng, checked = random.Random(10), 0
    while checked < 10 ** 4:
        lo = rng.choice((0.0, rng.random(), rng.uniform(0, 2), 2.0 ** rng.randint(-1074, 8)))
        hi = lo + rng.choice((rng.random(), 2.0 ** rng.randint(-1074, 2))) * (1 + lo)
        if lo < hi:
            check(lo, hi)
            checked += 1
    assert check(0.0, 5e-324) == (0, 1 << 1077)  # subnormal widths: q is not a float
    assert check(0.0, 1e-310)[1] == 1 << 1033


def test_doubled_eigenvectors_transfer():
    # (u, u) of a weighted-path eigenpair solves the ladder eigenproblem
    for (n, k) in ((3, 3), (4, 5)):
        sp = norm_spectrum(FamilySpec("weighted_path", n=n, k=k))
        ladder = sl.build_matrix(sl.generate(FamilySpec("roach", n=n, k=k)),
                                 MatrixKind.NORMALIZED).values
        for j in range(n + k):
            doubled = np.concatenate([sp.eigenvectors[:, j], sp.eigenvectors[:, j]])
            assert np.linalg.norm(ladder @ doubled - sp.eigenvalues[j] * doubled) <= 1e-8


def test_even_second_eigenvector_shares_lambda2():
    # R_{4,7} bisects evenly; its lambda2 equals the weighted path's
    g = sl.generate(FamilySpec("roach", n=4, k=7))
    report = sl.spectral_cut(g)
    assert report.parity == "even"
    lam2_path = norm_spectrum(FamilySpec("weighted_path", n=4, k=7)).lambda2
    assert abs(report.lambda2 - lam2_path) <= 1e-8


def test_weighted_path_fiedler_sign_pattern_contiguous():
    for (n, k) in ((3, 3), (4, 3), (5, 4), (6, 3), (4, 7)):
        report = sl.spectral_cut(sl.generate(FamilySpec("weighted_path", n=n, k=k)))
        verts = sorted(report.positive_side.vertices())
        is_prefix = verts == list(range(len(verts)))
        is_suffix = verts == list(range(n + k - len(verts), n + k))
        assert is_prefix or is_suffix


def test_path_spectra_all_simple():
    for n in range(2, 41):
        vals = sl.eig_sym(sl.build_matrix(sl.generate(FamilySpec("path", n=n)),
                                          MatrixKind.NORMALIZED)).eigenvalues
        assert np.min(np.diff(vals)) > 1e-8


# ---------------------------------------------------------------------------
# indicator identity
# ---------------------------------------------------------------------------

def test_indicator_identity_suite():
    rng = random.Random(41)
    for spec in (FamilySpec("path", n=6), FamilySpec("roach", n=2, k=3),
                 FamilySpec("lollipop", n=4, m=2)):
        g = sl.generate(spec)
        for _ in range(20):
            mask = rng.randrange(1, 2 ** g.n - 1)
            check = sl.indicator_identity_check(g, sl.subset_from_mask(g, mask))
            assert abs(check.lhs - check.rhs) <= 1e-9 * g.volume
            assert abs(check.quadratic_degree - g.volume) <= 1e-9 * g.volume
            assert abs(check.dy_dot_one) <= 1e-10 * g.volume


def test_indicator_identity_refuses_an_improper_subset():
    g = sl.generate(FamilySpec("cycle", n=6))
    for side in ([], range(6), sl.subset_from_mask(g, 0), sl.subset_from_mask(g, 2 ** 6 - 1)):
        with pytest.raises(DomainError, match="^identity needs a nonempty proper subset$"):
            sl.indicator_identity_check(g, side)


def test_indicator_balanced_subset_is_sign_vector():
    g = sl.generate(FamilySpec("cycle", n=6))
    check = sl.indicator_identity_check(g, [0, 1, 2])
    assert check.ncut == sl.normalized_cut(g, [0, 1, 2])
    # equal volumes force the (1,...,1,-1,...,-1) pattern
    assert sl.vertex_subset(g, [0, 1, 2]).volume * 2 == g.volume
    assert np.array_equal(check.indicator, np.array([1.0] * 3 + [-1.0] * 3))


def test_indicator_identity_r33_random_orthogonality():
    rng = random.Random(47)
    g = sl.generate(FamilySpec("roach", n=3, k=3))
    for _ in range(50):
        mask = rng.randrange(1, 2 ** g.n - 1)
        check = sl.indicator_identity_check(g, sl.subset_from_mask(g, mask))
        assert abs(check.dy_dot_one) <= 1e-10 * g.volume


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def test_counterexample_k3():
    report = sl.counterexample_check(3)
    assert report.parity == "odd"
    assert report.top_row_cut
    assert report.strictly_less
    assert report.mcut_method == "brute_force"
    assert report.mcut == Fraction(38, 297)
    assert report.lcut == Fraction(6, 19)


def test_counterexample_k4_brute():
    report = sl.counterexample_check(4)
    assert report.mcut_method == "brute_force"
    assert report.strictly_less and report.parity == "odd" and report.top_row_cut


def test_counterexample_k5_formula():
    report = sl.counterexample_check(5)
    assert report.mcut_method == "formula"
    assert report.strictly_less and report.parity == "odd" and report.top_row_cut
    assert report.lcut == Fraction(10, 33)  # 2k / (7k - 2)


def test_counterexample_domain():
    with pytest.raises(DomainError):
        sl.counterexample_check(2)


def test_counterexample_verdict_equals_the_dense_spectral_cut():
    for k in range(3, 11):
        report = sl.counterexample_check(k)
        dense = sl.spectral_cut(sl.generate(FamilySpec("roach", n=2 * k, k=k)))
        assert report.lcut == dense.value and report.parity == dense.parity == "odd"
        assert report.top_row_cut and dense.positive_side.mask == (1 << 3 * k) - 1
        assert dense.zero_count == 0
        assert abs(report.lambda2 - dense.lambda2) <= 1e-12


def test_counterexample_check_needs_no_dense_spectral_cut(monkeypatch):
    def refuse(*_args):
        raise AssertionError("dense spectral path called")

    for name in ("spectral_cut", "build_matrix", "eig_sym"):
        monkeypatch.setattr(bisection, name, refuse)
    for k in range(3, 11):
        assert sl.counterexample_check(k).top_row_cut


def test_a_wrong_float_lambda1_is_refused_not_certified(monkeypatch):
    # lambda-hat becomes the odd block's second eigenvalue (the odd block is the
    # one whose last diagonal entry is 1 + 1/2)
    eigvalsh = np.linalg.eigvalsh

    def second_first(a):
        vals = eigvalsh(a)
        return np.roll(vals, -1) if a[-1, -1] > 1.0 else vals

    monkeypatch.setattr(np.linalg, "eigvalsh", second_first)
    for k in range(3, 11):
        with pytest.raises(NumericError, match="not certified"):
            sl.counterexample_check(k)


def test_counterexample_check_solves_one_block_per_k(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for k in range(3, 11):
        calls.clear()
        sl.counterexample_check(k)
        assert calls == [(3 * k, 3 * k)], k


def test_counterexample_check_builds_each_sector_pencil_once(monkeypatch):
    pencil, calls = bisection.sector_pencil, []

    def counted(n, k, sector):
        calls.append(sector)
        return pencil(n, k, sector)

    monkeypatch.setattr(bisection, "sector_pencil", counted)
    for k in range(3, 11):
        calls.clear()
        sl.counterexample_check(k)
        assert sorted(calls) == [EVEN, ODD], k


def test_a_wrong_float_upper_end_is_refused_not_certified(monkeypatch):
    # lambda2(even) is read as 2 minus the odd block's vals[-2]; reading vals[-3]
    # instead moves the upper end past lambda2(even), and the counts refuse it
    eigvalsh = np.linalg.eigvalsh

    def third_for_second(a):
        vals = eigvalsh(a)
        if a[-1, -1] > 1.0:
            vals = vals.copy()
            vals[-2] = vals[-3]
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", third_for_second)
    for k in range(3, 11):
        with pytest.raises(NumericError, match="not certified"):
            sl.counterexample_check(k)


def test_figure_regressions():
    r47 = sl.spectral_cut(sl.generate(FamilySpec("roach", n=4, k=7)))
    assert r47.value == sl.min_ncut_formula(FamilySpec("roach", n=4, k=7)).value
    r64 = sl.spectral_cut(sl.generate(FamilySpec("roach", n=6, k=4)))
    assert r64.value != sl.min_ncut_formula(FamilySpec("roach", n=6, k=4)).value


def test_lambda2_ordering_for_balanced_ladders():
    for k in (3, 4):
        ladder = norm_spectrum(FamilySpec("roach", n=2 * k, k=k)).lambda2
        plain = norm_spectrum(FamilySpec("path", n=4 * k)).lambda2
        weighted = norm_spectrum(FamilySpec("weighted_path", n=2 * k, k=k)).lambda2
        assert ladder < plain - 1e-10
        assert plain < weighted - 1e-10


def test_region_membership():
    assert sl.in_disagreement_region(2, 2)
    assert sl.in_disagreement_region(6, 4)
    assert not sl.in_disagreement_region(1, 2)
    assert not sl.in_disagreement_region(2, 4)  # K1 ~ 2.78 > 2
    assert not sl.in_disagreement_region(4, 4)  # 3 does not divide 4
    for n, k in ((2.5, 3), (True, 2), (0, 2), (1, 1)):  # no roach(n, k) exists
        with pytest.raises(DomainError):
            sl.in_disagreement_region(n, k)


def test_region_is_the_antenna_cut_branches():
    region = {"c2:k=2&n>=2", "c2:k=3&n>=3", "c2:3|n&2|k&K1<=n"}
    for n in range(1, 200):
        for k in range(2, 200):
            branch = sl.min_ncut_formula(FamilySpec("roach", n=n, k=k)).branch
            assert sl.in_disagreement_region(n, k) == (branch in region), (n, k)


def _cuts_differ(n, k):
    spec = FamilySpec("roach", n=n, k=k)
    return sl.min_ncut_formula(spec).value < sl.spectral_cut(sl.generate(spec)).value


def test_region_check_holds():
    for (n, k) in ((2, 2), (6, 4), (3, 3), (9, 2)):
        assert sl.in_disagreement_region(n, k) and _cuts_differ(n, k)


def test_region_check_non_member():
    # roach(1, 2) lies outside the region, and there the two cuts agree
    assert not sl.in_disagreement_region(1, 2) and not _cuts_differ(1, 2)


def test_region_claim_over_the_whole_subset_cap():
    # the closed form is never above the spectral cut, and strictly below it on
    # every member of the region; outside it the cuts may still differ
    members = 0
    for spec in _roach_specs_within_cap():
        mcut = sl.min_ncut_formula(spec).value
        lcut = sl.spectral_cut(sl.generate(spec)).value
        assert mcut <= lcut, spec.label()
        if sl.in_disagreement_region(spec.n, spec.k):
            assert mcut < lcut, spec.label()
            members += 1
    assert members == 95
