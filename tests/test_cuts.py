"""Exhaustive minimum cuts, pruning, closed-form branches, and expansion constants."""

import dataclasses
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab as sl
from speclab import (ConnectivityError, DomainError, FamilySpec, Graph,
                     MatrixKind, SizeError)
from speclab import _enumeration as en, cli, cuts

from conftest import slow_cheeger_vertex, slow_edge_connectivity, slow_min_ncut


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_c4():
    report = sl.min_ncut_brute(sl.generate(FamilySpec("cycle", n=4)))
    assert report.value == 1
    assert report.witness.vertices() == (0, 1)  # adjacent pair, lowest mask


def test_brute_k3():
    assert sl.min_ncut_brute(sl.generate(FamilySpec("complete", n=3))).value == Fraction(3, 2)


def test_brute_example_graph(ncut_example_graph):
    report = sl.min_ncut_brute(ncut_example_graph)
    assert report.value == Fraction(5, 12)
    assert report.witness.vertices() == (0, 1, 2, 3)
    assert report.cut_weight == 2


def test_brute_matches_slow_reference():
    rng = random.Random(13)
    specs = [FamilySpec("roach", n=2, k=3), FamilySpec("lollipop", n=4, m=3),
             FamilySpec("weighted_path", n=4, k=4), FamilySpec("double_tree", depth=3),
             FamilySpec("cycle_cross_path", m=3, n=3)]
    for spec in specs:
        g = sl.generate(spec)
        value, mask, cut = slow_min_ncut(g)
        report = sl.min_ncut_brute(g)
        assert report.value == value
        assert report.witness.mask == mask
        assert report.cut_weight == cut
    for _ in range(8):  # random connected weighted graphs
        n = rng.randrange(4, 9)
        edges = [(i, i + 1, rng.randrange(1, 4)) for i in range(n - 1)]
        extra = [(u, v) for u in range(n) for v in range(u + 2, n)]
        for u, v in rng.sample(extra, min(3, len(extra))):
            edges.append((u, v, rng.randrange(1, 4)))
        g = Graph(n, tuple(edges), name="random")
        value, mask, cut = slow_min_ncut(g)
        report = sl.min_ncut_brute(g)
        assert (report.value, report.witness.mask, report.cut_weight) == (value, mask, cut)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_brute_matches_slow_reference_property(data):
    n = data.draw(st.integers(min_value=3, max_value=7), label="n")
    spine = [(i, i + 1, data.draw(st.integers(1, 3))) for i in range(n - 1)]
    pool = [(u, v) for u in range(n) for v in range(u + 2, n)]
    chords = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=3),
                       label="chords") if pool else []
    g = Graph(n, tuple(spine + [(u, v, data.draw(st.integers(1, 3)))
                                for u, v in chords]))
    value, mask, cut = slow_min_ncut(g)
    report = sl.min_ncut_brute(g)
    assert (report.value, report.witness.mask, report.cut_weight) == (value, mask, cut)


def test_brute_tie_break_is_lowest_mask():
    # every complete-graph bipartition of the same sizes ties; the witness
    # must be the lexicographically smallest set containing vertex 1
    report = sl.min_ncut_brute(sl.generate(FamilySpec("complete", n=6)))
    assert report.witness.vertices() == (0,)


def test_brute_rejects_disconnected():
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(ConnectivityError):
        sl.min_ncut_brute(g)


def test_brute_size_cap():
    with pytest.raises(SizeError):
        sl.min_ncut_brute(sl.generate(FamilySpec("path", n=25)))


# ---------------------------------------------------------------------------
# pruned search
# ---------------------------------------------------------------------------

def test_pruned_p8_unit_cut():
    g = sl.generate(FamilySpec("path", n=8))
    report = sl.min_ncut_pruned(g, sl.vertex_subset(g, range(4)))
    assert report.value == Fraction(2, 7)
    assert report.branch == "cut<=1"
    assert report.value == sl.min_ncut_brute(g).value


def test_pruned_roach_cut_two():
    g = sl.generate(FamilySpec("roach", n=3, k=4))
    seed = sl.vertex_subset(g, [*range(4), *range(7, 11)])  # both rows up to rung 1
    assert seed.cut_weight == 2
    report = sl.min_ncut_pruned(g, seed)
    assert report.value == sl.min_ncut_brute(g).value
    assert report.branch == "cut<=2"


def test_pruned_rejects_unbalanced_seed():
    g = sl.generate(FamilySpec("path", n=8))
    with pytest.raises(DomainError):
        sl.min_ncut_pruned(g, sl.vertex_subset(g, [0]))  # vol 1 vs 13


def test_pruned_rejects_a_seed_of_another_graph():
    g, twin = sl.generate(FamilySpec("path", n=8)), sl.generate(FamilySpec("path", n=8))
    seed = sl.vertex_subset(twin, range(4))
    assert sl.min_ncut_pruned(twin, seed).value == sl.min_ncut_brute(g).value
    with pytest.raises(DomainError, match="^seed subset was built for a different graph$"):
        sl.min_ncut_pruned(g, seed)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_formula_path_examples():
    assert sl.min_ncut_formula(FamilySpec("path", n=5)).value == Fraction(8, 15)
    assert sl.min_ncut_formula(FamilySpec("path", n=8)).value == Fraction(2, 7)


def test_formula_roach_6_4():
    report = sl.min_ncut_formula(FamilySpec("roach", n=6, k=4))
    assert report.value == Fraction(4, 33) == Fraction(44, 363)
    assert report.branch == "c2:3|n&2|k&K1<=n"
    # threshold K1 = 1 - 1/sqrt(2) - 3k/2 + 3k/sqrt(2) ~ 2.778 <= 6
    assert (3 * 4 + 2 * 6 - 2) ** 2 >= 2 * (3 * 4 - 1) ** 2


def test_formula_double_tree():
    assert sl.min_ncut_formula(FamilySpec("double_tree", depth=3)).value == Fraction(2, 13)


def test_formula_double_tree_depth_cap():
    cap = sl.cuts.MAX_CLOSED_FORM_DEPTH
    report = sl.min_ncut_formula(FamilySpec("double_tree", depth=cap))
    assert report.value == Fraction(2, 2 ** (cap + 1) - 3) and report.witness is None
    with pytest.raises(SizeError):
        sl.min_ncut_formula(FamilySpec("double_tree", depth=cap + 1))


def test_ladder_split_wins_is_c4_below_c2():
    # the integer test against the published expanded forms of c4 and c2
    for n in range(1, 40):
        for k in range(2, 40):
            t = 3 * k + 2 * n
            c2 = Fraction(6 * k + 4 * n - 4, (2 * n - 1) * (6 * k + 2 * n - 3))
            c4 = [Fraction(4, t - 2), Fraction(4 * (t - 2), (t - 3) * (t - 1)),
                  Fraction(4 * (t - 2), (t - 4) * t), Fraction(4 * (t - 2), (t - 5) * (t + 1))]
            for d in range(4):
                assert sl.cuts.ladder_split_wins(n, k, d) == (c4[d] < c2), (n, k, d)


def test_formula_lollipop_10_2():
    report = sl.min_ncut_formula(FamilySpec("lollipop", n=10, m=2))
    assert report.value == Fraction(94, 273)
    assert report.branch == "2<=m<=(n^2-n+4)/2"


def test_formula_cycle_and_complete():
    assert sl.min_ncut_formula(FamilySpec("cycle", n=4)).value == 1
    assert sl.min_ncut_formula(FamilySpec("cycle", n=7)).value == Fraction(28, 48)
    assert sl.min_ncut_formula(FamilySpec("complete", n=3)).value == Fraction(3, 2)


def test_formula_witness_achieves_value():
    for spec in (FamilySpec("roach", n=4, k=7), FamilySpec("weighted_path", n=6, k=9),
                 FamilySpec("lollipop", n=4, m=12), FamilySpec("cycle_cross_path", m=6, n=2)):
        report = sl.min_ncut_formula(spec)
        g = sl.generate(spec)
        assert sl.normalized_cut(g, [v for v in report.witness.vertices()]) == report.value


def test_formula_domain_errors():
    for spec in (FamilySpec("weighted_path", n=1, k=1), FamilySpec("weighted_path", n=2, k=2),
                 FamilySpec("path", n=1), FamilySpec("complete", n=1),
                 FamilySpec("cycle_cross_path", m=3, n=1), FamilySpec("tree", depth=3)):
        with pytest.raises(DomainError):
            sl.min_ncut_formula(spec)


def oracle_specs():
    out = []
    out += [FamilySpec("cycle", n=n) for n in range(3, 13)]
    out += [FamilySpec("path", n=n) for n in range(2, 13)]
    out += [FamilySpec("complete", n=n) for n in range(2, 9)]
    out += [FamilySpec("double_tree", depth=d) for d in (2, 3)]
    out += [FamilySpec("cycle_cross_path", m=m, n=n) for m in range(3, 9)
            for n in range(2, 6) if m * n <= 18]
    out += [FamilySpec("roach", n=n, k=k) for n in range(1, 8) for k in range(2, 8)
            if n + k <= 9]
    out += [FamilySpec("weighted_path", n=n, k=k) for n in range(1, 14) for k in range(1, 14)
            if n + k <= 14 and 3 * k + 2 * n >= 11]
    out += [FamilySpec("lollipop", n=n, m=m) for n in range(3, 10) for m in range(1, 10)
            if n + m <= 12]
    return out


@pytest.mark.parametrize("spec", oracle_specs(), ids=lambda s: s.label())
def test_formula_equals_brute(spec):
    formula = sl.min_ncut_formula(spec)
    brute = sl.min_ncut_brute(sl.generate(spec))
    assert formula.value == brute.value


def test_sweep_roach_grid():
    rows = sl.formula_sweep("roach", range(1, 13), range(2, 13))
    assert len(rows) == 132
    by_key = {(r.n, r.k): r for r in rows}
    assert by_key[(6, 4)].value == Fraction(4, 33)
    # small instances cross-checked exhaustively
    for (n, k), row in by_key.items():
        if 2 * (n + k) <= 16:
            assert row.value == sl.min_ncut_brute(sl.generate(FamilySpec("roach", n=n, k=k))).value


def test_sweep_weighted_path_corollary():
    # balanced instances n = 2k collapse to three divisibility cases;
    # n >= 4 keeps every grid cell inside the closed form's domain
    rows = sl.formula_sweep("weighted_path", range(4, 21), range(1, 11))
    by_key = {(r.n, r.k): r for r in rows if r.n == 2 * r.k}
    for (n, k), row in by_key.items():
        if k % 4 == 0:
            assert row.value == Fraction(4, 7 * k - 2)
        elif k % 2 == 0:
            assert row.value == Fraction(4 * (7 * k - 2), (7 * k - 4) * 7 * k)
        else:
            assert row.value == Fraction(4 * (7 * k - 2), (7 * k - 3) * (7 * k - 1))


def _sweep_text(*format_args):
    out, err = io.StringIO(), io.StringIO()
    argv = ["sweep", "--family", "roach", "--n-range", "6:6", "--k-range", "4:4", *format_args]
    assert cli.run(argv, out, err) == 0, err.getvalue()
    return out.getvalue()


def test_sweep_empty_and_csv():
    assert sl.formula_sweep("roach", range(0), range(2, 5)) == []
    lines = _sweep_text().strip().split("\n")
    assert lines[0] == "n,k,branch,value_num,value_den,value_float"
    assert lines[1].startswith("6,4,") and lines[1].endswith("4,33,0.121212121212121")


def test_sweep_refused_before_any_row(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"computed a row for {spec.label()}")
    monkeypatch.setattr(sl.cuts, "min_ncut_formula", refuse)
    with pytest.raises(sl.SizeError):
        sl.formula_sweep("roach", range(1, sl.cuts.MAX_SWEEP_ROWS + 1), range(2, 4))
    with pytest.raises(sl.SizeError):  # longer than sys.maxsize, so len() overflows
        sl.formula_sweep("roach", range(1, 10 ** 30), [2])
    with pytest.raises(AssertionError):
        sl.formula_sweep("roach", range(1, sl.cuts.MAX_SWEEP_ROWS + 1), [2])


def test_sweep_rejects_other_families():
    with pytest.raises(DomainError):
        sl.formula_sweep("path", range(2, 4), range(2, 4))


def test_sweep_gnuplot_dump():
    lines = _sweep_text("--format", "gnuplot").strip().split("\n")
    assert lines[0] == "# n k value branch"
    assert lines[1].startswith("6 4 0.121212121212121 ")


# ---------------------------------------------------------------------------
# the closed form, else the exhaustive search
# ---------------------------------------------------------------------------

def test_min_ncut_takes_the_formula_inside_its_domain():
    for spec in (FamilySpec("roach", n=6, k=3), FamilySpec("path", n=9),
                 FamilySpec("weighted_path", n=4, k=3)):
        assert sl.min_ncut(sl.generate(spec)) == sl.min_ncut_formula(spec)


def test_min_ncut_falls_back_to_brute_force():
    spec = FamilySpec("weighted_path", n=1, k=1)  # 3k + 2n < 11: outside the closed form
    g = sl.generate(spec)
    report = sl.min_ncut(g)
    assert report == sl.min_ncut_brute(g) and report.method == "brute_force"


def test_closed_form_checks_its_witness_on_the_callers_graph(monkeypatch):
    specs = (FamilySpec("roach", n=6, k=3), FamilySpec("path", n=9),
             FamilySpec("cycle_cross_path", m=4, n=3), FamilySpec("lollipop", n=4, m=5),
             FamilySpec("double_tree", depth=3))
    graphs = {spec: sl.generate(spec) for spec in specs}
    expected = {spec: sl.min_ncut_formula(spec) for spec in specs}
    ladder = sl.min_ncut_formula(FamilySpec("roach", n=12, k=6)).value
    monkeypatch.setattr(cuts, "generate", None)  # the closed forms may build no graph
    for spec, g in graphs.items():
        report = sl.min_ncut(g)
        assert report == expected[spec] and report.witness.graph is g
        assert cuts.expansion_constants(g)[3] == report
        direct = sl.min_ncut_formula(g)
        assert direct == expected[spec] and direct.witness.graph is g
    check = sl.counterexample_check(6)  # 36 vertices: the closed form, checked on its graph
    assert check.mcut_method == "formula" and check.mcut == ladder


def test_only_generate_gives_a_graph_its_family(tmp_path):
    spec = FamilySpec("roach", n=6, k=3)
    g = sl.generate(spec)
    path = tmp_path / "g.json"
    path.write_text(sl.to_json(g))
    copies = (Graph(g.n, g.edges, g.loops, g.name), dataclasses.replace(g), sl.read_json(path),
              sl.from_json(sl.to_json(g)))
    for copy in copies:  # spec is not compared
        assert copy == g and hash(copy) == hash(g) and copy.spec is None
        report = sl.min_ncut(copy)
        assert report == sl.min_ncut_brute(copy) and report.method == "brute_force"
    assert sl.min_ncut(g).method == "formula"


def test_a_family_name_alone_gets_brute_force():
    # a 5-cycle that only carries the name of the path P_5, whose closed form is 8/15
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), name="path(5)")
    report = sl.min_ncut(g)
    assert (report.value, report.method) == (Fraction(5, 6), "brute_force")
    assert cuts.expansion_constants(g)[3] == report
    with pytest.raises(DomainError):  # the name is no spec
        sl.min_ncut_formula(g)


@pytest.mark.parametrize("spec, objectives", [(FamilySpec("roach", n=2, k=3), 3),
                                              (FamilySpec("weighted_path", n=1, k=2), 4),
                                              (None, 4)])
def test_expansion_constants_adds_the_ncut_only_without_a_closed_form(monkeypatch, spec,
                                                                        objectives):
    g = sl.generate(spec or FamilySpec("roach", n=2, k=3))
    g = g if spec else dataclasses.replace(g)  # without a spec: a copy that claims no family
    passes = []
    minimize = en.minimize
    monkeypatch.setattr(en, "minimize",
                        lambda graph, *fns: passes.append(len(fns)) or minimize(graph, *fns))
    iso, h, gv, mcut = cuts.expansion_constants(g)
    assert passes == [objectives]
    assert (iso, h, gv) == (sl.isoperimetric_number(g), sl.cheeger_edge(g), sl.cheeger_vertex(g))
    assert mcut == sl.min_ncut(g)


# ---------------------------------------------------------------------------
# expansion constants
# ---------------------------------------------------------------------------

def test_isoperimetric_c4():
    assert sl.isoperimetric_number(sl.generate(FamilySpec("cycle", n=4))) == 1


def test_cheeger_edge_p2_and_k4():
    assert sl.cheeger_edge(sl.generate(FamilySpec("path", n=2))) == 1
    assert sl.cheeger_edge(sl.generate(FamilySpec("complete", n=4))) == Fraction(2, 3)


def test_cheeger_vertex_c4():
    assert sl.cheeger_vertex(sl.generate(FamilySpec("cycle", n=4))) == 1


def test_cheeger_vertex_matches_slow_reference():
    rng = random.Random(31)
    for spec in (FamilySpec("path", n=6), FamilySpec("lollipop", n=4, m=2),
                 FamilySpec("roach", n=1, k=3)):
        g = sl.generate(spec)
        assert sl.cheeger_vertex(g) == slow_cheeger_vertex(g)
    for _ in range(5):
        n = rng.randrange(4, 8)
        edges = [(i, i + 1, 1) for i in range(n - 1)]
        extra = [(u, v) for u in range(n) for v in range(u + 2, n)]
        edges += [(u, v, 1) for u, v in rng.sample(extra, min(2, len(extra)))]
        g = Graph(n, tuple(edges))
        assert sl.cheeger_vertex(g) == slow_cheeger_vertex(g)


# ---------------------------------------------------------------------------
# structural bounds
# ---------------------------------------------------------------------------

def test_mcut_connectivity_lower_bound():
    # Mcut >= 4 kappa' / (max degree * |V|)
    for spec in (FamilySpec("cycle", n=8), FamilySpec("complete", n=5),
                 FamilySpec("roach", n=2, k=3), FamilySpec("lollipop", n=4, m=3),
                 FamilySpec("double_tree", depth=3)):
        g = sl.generate(spec)
        mcut = sl.min_ncut_brute(g).value
        kappa = slow_edge_connectivity(g)
        assert mcut >= Fraction(4 * kappa, max(g.degrees) * g.n)


def test_mcut_dominates_lambda2():
    for spec in (FamilySpec("cycle", n=9), FamilySpec("path", n=7), FamilySpec("roach", n=2, k=3)):
        g = sl.generate(spec)
        lam2 = sl.eig_sym(sl.build_matrix(g, MatrixKind.NORMALIZED)).lambda2
        assert lam2 <= float(sl.min_ncut_brute(g).value) + 1e-9


def test_regular_lower_bound_on_cycles():
    for n in range(3, 17):
        value = sl.min_ncut_formula(FamilySpec("cycle", n=n)).value
        bound = Fraction(4, n) if n % 2 == 0 else Fraction(4 * n, n * n - 1)
        assert value >= bound
