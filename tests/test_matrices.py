"""Matrix assembly, the eigensolver contract, and closed-form spectra."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import speclab as sl
from speclab import DomainError, FamilySpec, Graph, MatrixKind, SymmetricMatrix

from conftest import ALL_SPECS, is_automorphism

KINDS = list(MatrixKind)
S2 = 1.0 / math.sqrt(2.0)


def spectrum_of(spec, kind):
    return sl.eig_sym(sl.build_matrix(sl.generate(spec), kind))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_p4_matrix_table():
    g = sl.generate(FamilySpec("path", n=4))
    adj = sl.build_matrix(g, MatrixKind.ADJACENCY).values
    assert np.array_equal(adj, np.array([[0, 1, 0, 0], [1, 0, 1, 0],
                                         [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float))
    lap = sl.build_matrix(g, MatrixKind.DIFFERENCE).values
    assert np.array_equal(lap, np.array([[1, -1, 0, 0], [-1, 2, -1, 0],
                                         [0, -1, 2, -1], [0, 0, -1, 1]], dtype=float))
    sless = sl.build_matrix(g, MatrixKind.SIGNLESS).values
    assert np.array_equal(sless[1], np.array([1.0, 2.0, 1.0, 0.0]))
    norm = sl.build_matrix(g, MatrixKind.NORMALIZED).values
    assert norm[0] == pytest.approx([1.0, -S2, 0.0, 0.0], abs=1e-15)
    assert norm[1] == pytest.approx([-S2, 1.0, -0.5, 0.0], abs=1e-15)


def test_weighted_path_normalized_diagonal():
    g = sl.generate(FamilySpec("weighted_path", n=4, k=3))
    m = sl.build_matrix(g, MatrixKind.NORMALIZED).values
    assert np.diag(m) == pytest.approx([1, 1, 1, 1, 2 / 3, 2 / 3, 1 / 2], abs=1e-15)
    assert m[3, 4] == pytest.approx(-1.0 / math.sqrt(6.0), abs=1e-16)


def test_difference_rows_sum_to_zero_without_loops():
    for spec in (FamilySpec("cycle", n=5), FamilySpec("lollipop", n=4, m=3)):
        m = sl.build_matrix(sl.generate(spec), MatrixKind.DIFFERENCE).values
        assert np.max(np.abs(m.sum(axis=1))) == 0.0


def _random_weighted_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(2, 16)  # connected, so every degree is positive
    edges = {(rng.randrange(v), v): rng.randint(1, 50) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = rng.randint(1, 50)
    loops = tuple((v, rng.randint(1, 9)) for v in range(n) if rng.random() < 0.4)
    return Graph(n, tuple((u, v, w) for (u, v), w in edges.items()), loops)


def test_matrices_exactly_symmetric():
    graphs = [sl.generate(spec) for spec in [*ALL_SPECS, FamilySpec("roach", n=3, k=3)]]
    for g in graphs + [_random_weighted_graph(seed) for seed in range(60)]:
        for kind in KINDS:
            m = sl.build_matrix(g, kind).values
            assert np.array_equal(m, m.T), (g, kind)
            assert not np.any(np.signbit(m) & (m == 0.0)), (g, kind)  # every zero is +0.0


def _dense_matrices(g: Graph) -> dict:
    """Oracle: the four matrices from the dense weight matrix, the normalized
    Laplacian in the rounding order the edge-list builder must reproduce bitwise,
    and the difference Laplacian's diagonal the loopless degree rounded once."""
    w = np.zeros((g.n, g.n))
    for u, v, wt in g.edges:
        w[u, v] = w[v, u] = wt
    for v, wt in g.loops:
        w[v, v] = wt
    deg = np.array(g.degrees, dtype=float)
    s = 1.0 / np.sqrt(deg)
    m = 0.0 - w * np.outer(s, s)
    np.fill_diagonal(m, 1.0 - np.diag(w) / deg)
    lap, loops = 0.0 - w, dict(g.loops)
    np.fill_diagonal(lap, [float(d - loops.get(v, 0)) for v, d in enumerate(g.degrees)])
    return {MatrixKind.ADJACENCY: w, MatrixKind.DIFFERENCE: lap,
            MatrixKind.SIGNLESS: np.diag(deg) + w, MatrixKind.NORMALIZED: m}


def _family_specs(max_order: int):
    """Every family instance with at most max_order vertices and no isolated vertex."""
    for n in range(2, max_order + 1):
        yield from (FamilySpec("path", n=n), FamilySpec("complete", n=n))
        if n >= 3:
            yield FamilySpec("cycle", n=n)
    for depth in range(2, max_order.bit_length()):
        yield FamilySpec("tree", depth=depth)
        if 2 ** (depth + 1) - 2 <= max_order:
            yield FamilySpec("double_tree", depth=depth)
    for m in range(3, max_order + 1):
        yield from (FamilySpec("cycle_cross_path", m=m, n=n) for n in range(1, max_order // m + 1))
    for n in range(1, max_order):
        yield from (FamilySpec("weighted_path", n=n, k=k) for k in range(1, max_order - n + 1))
        yield from (FamilySpec("roach", n=n, k=k) for k in range(2, max_order // 2 - n + 1))
        if n >= 3:
            yield from (FamilySpec("lollipop", n=n, m=m) for m in range(1, max_order - n + 1))


def _assert_bitwise_dense(g: Graph, label) -> None:
    for kind, dense in _dense_matrices(g).items():
        assert sl.build_matrix(g, kind).values.tobytes() == dense.tobytes(), (label, kind)


def _random_heavy_graph(rng: random.Random) -> Graph:
    """Connected, with loops and weights up to MAX_WEIGHT = 2**53."""
    def weight():
        return rng.choice((rng.randint(1, 50), rng.randint(1, 1 << 53), 1 << 53))

    n = rng.randint(1, 40)
    edges = {(rng.randrange(v), v): weight() for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        edges[tuple(sorted(rng.sample(range(n), 2)))] = weight()
    loops = [(v, weight()) for v in range(n) if rng.random() < 0.4 or n == 1]
    return Graph(n, tuple((u, v, w) for (u, v), w in edges.items()), tuple(loops))


def test_matrices_are_bitwise_the_dense_formulas():
    specs = list(_family_specs(64))
    assert len(specs) > 4000
    for spec in specs:
        _assert_bitwise_dense(sl.generate(spec), spec.label())
    rng = random.Random(53)
    for i in range(300):
        _assert_bitwise_dense(_random_heavy_graph(rng), i)


def test_generate_records_its_spec():
    for spec in _family_specs(64):
        assert sl.generate(spec).spec is spec


def test_mirror_is_an_involutive_automorphism_of_every_mirrored_instance():
    specs = [*_family_specs(64), FamilySpec("path", n=4096), FamilySpec("roach", n=2000, k=1000)]
    mirrored = 0
    for spec in specs:
        mirror = spec.mirror()
        if spec.family not in ("path", "double_tree", "roach"):
            assert mirror is None, spec.label()
            continue
        g = sl.generate(spec)
        assert is_automorphism(g, mirror), spec.label()
        assert all(mirror[mirror[i]] == i for i in range(g.n)), spec.label()
        mirrored += 1
    assert mirrored == 63 + 4 + 465 + 2
    for spec in (FamilySpec("path", n=sl.graph.MAX_ORDER + 1), FamilySpec("double_tree", depth=17)):
        with pytest.raises(sl.SizeError):  # refused before the tuple is built, as generate is
            spec.mirror()


def test_mirror_refuses_a_deep_double_tree_before_building_its_order():
    def mirror():  # 2**(depth + 1) alone would take about 125 KB at this depth
        with pytest.raises(sl.SizeError, match="above the generation budget"):
            FamilySpec("double_tree", depth=10 ** 6).mirror()

    assert _traced_peak(mirror)[1] < 64 << 10
    # a depth is read only for the tree families: a path's depth is ignored, as generate ignores it
    assert FamilySpec("path", n=3, depth=100).mirror() == (2, 1, 0)
    assert sl.generate(FamilySpec("path", n=3, depth=100)).n == 3


def test_difference_diagonal_is_the_loopless_degree_rounded_once():
    # vertex 1's degree 2**53 + 3 rounds to 2**53 + 4, so d - l would read 4 for its 3
    g = Graph(2, ((0, 1, 3),), ((0, 1 << 53),))
    m = sl.build_matrix(g, MatrixKind.DIFFERENCE)
    assert m.values.tolist() == [[3.0, -3.0], [-3.0, 3.0]]
    spectrum = sl.eig_sym(m)  # the exact D - W has eigenvalues 0 and 6
    assert np.all(np.abs(spectrum.eigenvalues - [0.0, 6.0]) <= spectrum.radius)


def _traced_peak(fn):
    """fn() and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normalized_needs_positive_degrees():
    isolated = Graph(2, ())
    with pytest.raises(DomainError):
        sl.build_matrix(isolated, MatrixKind.NORMALIZED)
    sl.build_matrix(isolated, MatrixKind.DIFFERENCE)  # other kinds still fine
    # refused before the 128 MB matrix is allocated: a star with one isolated
    # vertex at the dense cap, and the edgeless graph of the same order
    n = sl.matrices.MAX_DENSE_ORDER
    star = Graph(n, tuple((0, v, 1) for v in range(1, n - 1)))
    for g, bad in ((star, n), (Graph(n, ()), 1)):
        def build():
            with pytest.raises(DomainError, match=f"^vertex {bad} has degree 0; normalized "
                                                  "Laplacian undefined$"):
                sl.build_matrix(g, MatrixKind.NORMALIZED)

        assert _traced_peak(build)[1] < 1 << 20


@pytest.mark.parametrize("kind", KINDS)
def test_build_matrix_holds_no_dense_temporary(kind):
    # order 1,024: the matrix itself is one 8 MiB array, built from the edge list
    g = sl.generate(FamilySpec("path", n=1024))
    m, peak = _traced_peak(lambda: sl.build_matrix(g, kind))
    assert m.values.nbytes == 8 << 20
    assert peak <= 1.5 * m.values.nbytes


def test_unknown_kind_is_refused_before_allocating():
    # a str is not a MatrixKind; at the dense cap its matrix would be 128 MiB
    g = sl.generate(FamilySpec("path", n=sl.matrices.MAX_DENSE_ORDER))

    def build():
        with pytest.raises(DomainError, match="^unknown matrix kind 'difference'$"):
            sl.build_matrix(g, "difference")

    assert _traced_peak(build)[1] < 1 << 20


def test_symmetric_matrix_rejects_asymmetry():
    for values in ([[0.0, 1.0], [0.0, 0.0]], [[np.inf]], [[0.0, -np.inf], [-np.inf, 0.0]],
                   np.zeros((0, 0))):  # eig_sym would pass inf's NaN residual or fail on 0x0
        with pytest.raises(DomainError):
            SymmetricMatrix(np.array(values))


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eig_p2_difference():
    sp = spectrum_of(FamilySpec("path", n=2), MatrixKind.DIFFERENCE)
    assert sp.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_eig_identity():
    sp = sl.eig_sym(SymmetricMatrix(np.eye(5)))
    assert sp.eigenvalues == pytest.approx([1.0] * 5)


def test_roach22_eigenvalues_match_published_list():
    sp = spectrum_of(FamilySpec("roach", n=2, k=2), MatrixKind.NORMALIZED)
    expected = [0.0, 0.204666, 0.371333, 1.0, 1.0, 1.62867, 1.79533, 2.0]
    assert np.max(np.abs(sp.eigenvalues - np.array(expected))) < 1e-5


def test_spectrum_invariants():
    for spec in (FamilySpec("roach", n=3, k=4), FamilySpec("lollipop", n=5, m=3)):
        for kind in KINDS:
            g = sl.generate(spec)
            m = sl.build_matrix(g, kind)
            sp = sl.eig_sym(m)
            assert np.all(np.diff(sp.eigenvalues) >= 0)
            q = sp.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(m.order))) <= 1e-9
            assert sp.residual <= 1e-9 * max(1.0, np.max(np.abs(m.values))) * m.order


def test_eig_deterministic():
    m = sl.build_matrix(sl.generate(FamilySpec("roach", n=4, k=3)), MatrixKind.NORMALIZED)
    a, b = sl.eig_sym(m), sl.eig_sym(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _no_convergence(solve, values):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("fault, message", [
    (_no_convergence, "^eigensolver failed to converge: Eigenvalues did not converge$"),
    (lambda solve, values: (solve(values)[0] + 1e-3, solve(values)[1]),
     "^eigendecomposition residual above tolerance$"),
    (lambda solve, values: (solve(values)[0], 1.1 * solve(values)[1]),
     "^eigenvectors are not orthonormal$"),
], ids=["no_convergence", "shifted_eigenvalues", "scaled_eigenvectors"])
def test_eig_sym_refuses_a_failed_or_inaccurate_solve(monkeypatch, fault, message):
    m = sl.build_matrix(sl.generate(FamilySpec("roach", n=4, k=3)), MatrixKind.NORMALIZED)
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda values: fault(solve, values))
    with pytest.raises(sl.NumericError, match=message):
        sl.eig_sym(m)


def test_lambda2_simplicity_gap():
    assert spectrum_of(FamilySpec("path", n=5), MatrixKind.NORMALIZED).lambda2_is_simple()
    # 1 - cos(2 pi k / 4) hits 1 twice on the 4-cycle
    assert not spectrum_of(FamilySpec("cycle", n=4), MatrixKind.NORMALIZED).lambda2_is_simple()
    single = sl.eig_sym(SymmetricMatrix(np.ones((1, 1))))
    assert not single.lambda2_is_simple()
    with pytest.raises(DomainError, match="^lambda2 needs at least two eigenvalues$"):
        single.lambda2


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_cycle4_adjacency_closed_form():
    cf = sl.closed_form_spectrum(FamilySpec("cycle", n=4), MatrixKind.ADJACENCY)
    assert cf.eigenvalues == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-12)


def test_path4_normalized_closed_form():
    cf = sl.closed_form_spectrum(FamilySpec("path", n=4), MatrixKind.NORMALIZED)
    assert cf.eigenvalues == pytest.approx([0.0, 0.5, 1.5, 2.0], abs=1e-12)


def test_path2_signless_closed_form():
    cf = sl.closed_form_spectrum(FamilySpec("path", n=2), MatrixKind.SIGNLESS)
    assert cf.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_closed_forms_match_numeric(kind):
    for n in range(2, 22):
        cf = sl.closed_form_spectrum(FamilySpec("path", n=n), kind)
        sp = spectrum_of(FamilySpec("path", n=n), kind)
        assert np.max(np.abs(cf.eigenvalues - sp.eigenvalues)) <= sp.radius <= 1e-11
    for n in range(3, 22):
        cf = sl.closed_form_spectrum(FamilySpec("cycle", n=n), kind)
        sp = spectrum_of(FamilySpec("cycle", n=n), kind)
        assert np.max(np.abs(cf.eigenvalues - sp.eigenvalues)) <= sp.radius <= 1e-11


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_path_closed_form_eigenvectors(kind):
    for n in range(2, 16):
        m = sl.build_matrix(sl.generate(FamilySpec("path", n=n)), kind).values
        cf = sl.closed_form_spectrum(FamilySpec("path", n=n), kind)
        for j in range(n):
            u = cf.eigenvectors[:, j]
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(m @ u - cf.eigenvalues[j] * u) <= 1e-10


def test_path_eigenvectors_are_built_on_first_read():
    cf = sl.closed_form_spectrum(FamilySpec("path", n=30000), MatrixKind.NORMALIZED)
    assert cf.eigenvalues.shape == (30000,) and "eigenvectors" not in vars(cf)
    small = sl.closed_form_spectrum(FamilySpec("path", n=5), MatrixKind.NORMALIZED)
    assert small.eigenvectors is small.eigenvectors and small.eigenvectors.shape == (5, 5)
    cycle = sl.closed_form_spectrum(FamilySpec("cycle", n=5), MatrixKind.NORMALIZED)
    assert cycle.eigenvectors is None


def test_dense_matrices_capped_before_allocating(monkeypatch):
    big = sl.matrices.MAX_DENSE_ORDER + 1
    g = sl.generate(FamilySpec("path", n=big))
    cf = sl.closed_form_spectrum(FamilySpec("path", n=big), MatrixKind.NORMALIZED)
    monkeypatch.setattr(sl.matrices, "np", None)  # any array work would raise
    with pytest.raises(sl.SizeError):
        sl.build_matrix(g, MatrixKind.ADJACENCY)
    with pytest.raises(sl.SizeError):
        cf.eigenvectors


def test_closed_form_spectra_capped_at_generation_budget():
    with pytest.raises(sl.SizeError):
        sl.closed_form_spectrum(FamilySpec("cycle", n=sl.graph.MAX_ORDER + 1), MatrixKind.ADJACENCY)
    assert sl.closed_form_spectrum(FamilySpec("cycle", n=sl.graph.MAX_ORDER),
                                   MatrixKind.ADJACENCY).eigenvalues.shape == (sl.graph.MAX_ORDER,)


def test_closed_form_domain_errors():
    # trees have no n: the family is refused before any size check reads it
    for spec in (FamilySpec("complete", n=4), FamilySpec("tree", depth=3),
                 FamilySpec("double_tree", depth=3)):
        with pytest.raises(DomainError, match="no closed-form spectrum"):
            sl.closed_form_spectrum(spec, MatrixKind.ADJACENCY)
    with pytest.raises(DomainError):
        sl.closed_form_spectrum(FamilySpec("path", n=1), MatrixKind.ADJACENCY)


def test_cycle_adjacency_pairing():
    # eigenvalue k pairs with eigenvalue n-k
    for n in (5, 8, 9):
        c = 2 * np.cos(2 * np.arange(n) * np.pi / n)
        for k in range(1, n):
            assert c[k] == pytest.approx(c[n - k], abs=1e-12)


def test_regular_graph_rescaling():
    # normalized eigenvalues are difference eigenvalues divided by the degree
    for spec, r in ((FamilySpec("cycle", n=7), 2), (FamilySpec("complete", n=6), 5)):
        diff = spectrum_of(spec, MatrixKind.DIFFERENCE).eigenvalues
        norm = spectrum_of(spec, MatrixKind.NORMALIZED).eigenvalues
        assert np.max(np.abs(diff / r - norm)) <= 1e-10


def test_rayleigh_identity():
    for spec in (FamilySpec("roach", n=2, k=3), FamilySpec("lollipop", n=4, m=2),
                 FamilySpec("weighted_path", n=3, k=3)):
        g = sl.generate(spec)
        sp = spectrum_of(spec, MatrixKind.NORMALIZED)
        d = np.array(g.degrees, dtype=float)
        w = sl.build_matrix(g, MatrixKind.ADJACENCY).values
        for j in range(g.n):
            x = sp.eigenvectors[:, j]
            y = x / np.sqrt(d)
            quad = 0.5 * np.sum(w * (y[:, None] - y[None, :]) ** 2)
            assert quad == pytest.approx(sp.eigenvalues[j], abs=1e-8)


def test_automorphism_transfer():
    g = sl.generate(FamilySpec("roach", n=3, k=3))
    m = sl.build_matrix(g, MatrixKind.NORMALIZED).values
    sp = sl.eig_sym(sl.build_matrix(g, MatrixKind.NORMALIZED))
    perm = list(g.spec.mirror())
    for j in range(g.n):
        pu = sp.eigenvectors[:, j][perm]
        assert np.linalg.norm(m @ pu - sp.eigenvalues[j] * pu) <= 1e-8


# ---------------------------------------------------------------------------
# circulants
# ---------------------------------------------------------------------------

def test_circulant_cycle_row():
    vals, _ = sl.circulant_eigenpairs([0, 1, 0, 1])
    assert np.real(vals) == pytest.approx([2.0, 0.0, -2.0, 0.0], abs=1e-12)
    assert np.max(np.abs(np.imag(vals))) <= 1e-12


def test_circulant_scalar_row():
    vals, _ = sl.circulant_eigenpairs([3.5, 0.0, 0.0])
    assert vals == pytest.approx([3.5] * 3)


def test_circulant_residual_random_rows():
    rng = np.random.default_rng(11)
    for _ in range(5):
        row = rng.normal(size=8)
        vals, vecs = sl.circulant_eigenpairs(row)
        c = sl.circulant_matrix(row)
        for k in range(8):
            r = np.linalg.norm(c @ vecs[:, k] - vals[k] * vecs[:, k])
            assert r <= 1e-10


def test_random_walk_form_shares_spectrum():
    # D^{-1} (D - W) is similar to the degree-normalized Laplacian
    for spec in (FamilySpec("weighted_path", n=3, k=3), FamilySpec("lollipop", n=4, m=2)):
        g = sl.generate(spec)
        lap = sl.build_matrix(g, MatrixKind.DIFFERENCE).values
        walk = lap / np.array(g.degrees, dtype=float)[:, None]
        walk_vals = np.sort(np.real(np.linalg.eigvals(walk)))
        norm_vals = spectrum_of(spec, MatrixKind.NORMALIZED).eigenvalues
        assert np.max(np.abs(walk_vals - norm_vals)) <= 1e-10

