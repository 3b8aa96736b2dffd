"""Command-line interface: documents, exit codes, determinism, round trips."""

import argparse
import dataclasses
import io
import itertools
import json
import os
import random
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speclab as sl
from speclab import cli
from speclab.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_gen_json_round_trip(tmp_path):
    path = tmp_path / "roach.json"
    code, out, _ = invoke(["gen", "--family", "roach", "--n", "3", "--k", "4",
                           "--out", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(path.read_text())
    g = sl.from_json_dict(doc)
    assert g.n == 14 and g.volume == 6 * 4 + 4 * 3 - 4


def test_gen_dot():
    code, out, _ = invoke(["gen", "--family", "path", "--n", "3", "--format", "dot"])
    assert code == 0 and out.startswith('graph "path(3)"')


def test_spectrum_closed_form_cycle():
    doc = invoke_json(["spectrum", "--family", "cycle", "--n", "4",
                       "--kind", "adjacency", "--closed-form"])
    assert doc["closed_form"] is True
    assert doc["eigenvalues"] == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-12)


def test_spectrum_numeric_with_vectors():
    doc = invoke_json(["spectrum", "--family", "path", "--n", "3",
                       "--kind", "difference", "--vectors"])
    assert doc["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
    assert len(doc["vectors"]) == 3 and len(doc["vectors"][0]) == 3
    assert doc["residual"] <= 1e-12


def test_mcut_formula_path5():
    doc = invoke_json(["mcut", "--family", "path", "--n", "5", "--method", "formula"])
    assert doc["value"]["num"] == 8 and doc["value"]["den"] == 15
    assert doc["witness"] == [1, 2]


def test_mcut_pruned_with_seed():
    doc = invoke_json(["mcut", "--family", "path", "--n", "8",
                       "--method", "pruned", "--seed", "1,2,3,4"])
    assert doc["value"] == {"num": 2, "den": 7, "float": pytest.approx(2 / 7)}
    assert doc["branch"] == "cut<=1"


def test_mcut_on_graph_file(tmp_path):
    path = tmp_path / "g.json"
    _, out, _ = invoke(["gen", "--family", "lollipop", "--n", "10", "--m", "2"])
    path.write_text(out)
    doc = invoke_json(["mcut", "--graph", str(path)])
    assert (doc["value"]["num"], doc["value"]["den"]) == (94, 273)


def test_compare_counterexample_family():
    doc = invoke_json(["compare", "--family", "roach", "--n", "6", "--k", "3"])
    assert doc["equal"] is False
    assert doc["mcut"] == {"num": 38, "den": 297, "float": pytest.approx(38 / 297)}
    assert doc["lcut"]["num"] == 6 and doc["lcut"]["den"] == 19
    assert doc["lcut_positive_side"] == list(range(1, 10))


def test_lcut_report_shape():
    doc = invoke_json(["lcut", "--family", "path", "--n", "4"])
    assert doc["simple"] is True and doc["parity"] == "odd"
    assert doc["lcut"] == {"num": 2, "den": 3, "float": pytest.approx(2 / 3)}
    assert sorted(doc["positive_side"]) in ([1, 2], [3, 4])
    assert doc["zero_count"] == 0 and "alt_orientation_lcut" not in doc
    # an odd path's middle entry is 0, so either orientation may absorb it
    for n, num, den in ((3, 4, 3), (5, 8, 15)):
        doc = invoke_json(["lcut", "--family", "path", "--n", str(n)])
        assert doc["zero_count"] == 1 and doc["alt_orientation_lcut"] == doc["lcut"]
        assert doc["lcut"] == {"num": num, "den": den, "float": pytest.approx(num / den)}


def test_lcut_two_vertex_graph_has_null_gap():
    # no third eigenvalue, so the document must stay strict JSON
    doc = invoke_json(["lcut", "--family", "path", "--n", "2"])
    assert doc["gap"] is None and doc["simple"] is True
    assert doc["lcut"] == {"num": 2, "den": 1, "float": 2.0}


def test_charpoly_value_and_roots():
    doc = invoke_json(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                       "--lam", "0"])
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)
    doc = invoke_json(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                       "--roots"])
    assert doc["count"] == 7


def test_sweep_csv(tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = invoke(["sweep", "--family", "roach", "--n-range", "1:2",
                           "--k-range", "2:3", "--out", str(path)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,branch,value_num,value_den,value_float"
    assert len(lines) == 5
    assert path.read_text() == out


def test_sweep_gnuplot_format():
    code, out, _ = invoke(["sweep", "--family", "roach", "--n-range", "6:6",
                           "--k-range", "4:4", "--format", "gnuplot"])
    assert code == 0
    assert out.startswith("# n k value branch\n6 4 0.121212121212121 ")


def test_bounds_document():
    doc = invoke_json(["bounds", "--family", "path", "--n", "6"])
    checks = doc["checks"]
    assert checks["mcut_ge_lambda2"] and checks["cheeger_lower"] and checks["cheeger_upper"]
    assert checks["isoperimetric_lower"] and checks["isoperimetric_upper"]


def _family_instances(lo: int, hi: int) -> list:
    """Every family instance with lo..hi vertices."""
    specs = []
    for family in sl.FAMILIES:
        names = [name for name, _low in sl.graph._FAMILY_TABLE[family][0]]
        for values in itertools.product(range(1, hi + 1), repeat=len(names)):
            try:
                spec = sl.FamilySpec(family, **dict(zip(names, values)))
            except sl.DomainError:
                continue
            if lo <= spec.order() <= hi:
                specs.append(spec)
    return specs


def test_bounds_checks_hold_on_every_family_instance_of_2_to_12_vertices():
    # among them the exact ties of complete(3..6), cycle(3), cycle(4) and path(2),
    # which a float comparison without its slack can read as false
    specs = _family_instances(2, 12)
    assert len(specs) == 174
    for spec in specs:
        params = [(f"--{name}", str(getattr(spec, name))) for name in ("n", "k", "m", "depth")
                  if getattr(spec, name) is not None]
        checks = invoke_json(["bounds", "--family", spec.family, *itertools.chain(*params)])
        for name, holds in checks["checks"].items():
            assert holds is True or (name, holds, spec.order() < 4) == (
                "isoperimetric_upper", None, True), (spec.label(), name)


def test_bounds_checks_hold_on_random_weighted_graphs_with_loops(tmp_path):
    rng = random.Random(32)

    def weight():
        return rng.choice((1, rng.randint(1, 9), rng.randint(1, 1000)))

    for i in range(200):
        n = rng.randint(2, 10)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 4))}
        doc = {"name": f"random{i}", "n": n,
               "edges": [[u + 1, v + 1, weight()] for u, v in sorted(pairs)],
               "loops": [[v + 1, weight()] for v in sorted(rng.sample(range(n), rng.randint(0, 2)))]}
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        checks = invoke_json(["bounds", "--graph", str(path)])["checks"]
        assert all(holds is True or (name, holds) == ("isoperimetric_upper", None) and n < 4
                   for name, holds in checks.items()), doc


# the checks that hold with equality, exactly: lambda2 = mcut on each graph below, and
# lambda2 / 2 = isoperimetric and lambda2 = 2h on K_4, K_6, C_4 and path(2)
_BOUNDS_TIES = {
    ("complete", 3): {"mcut_ge_lambda2"},
    ("complete", 4): {"mcut_ge_lambda2", "isoperimetric_lower", "cheeger_upper"},
    ("complete", 5): {"mcut_ge_lambda2"},
    ("complete", 6): {"mcut_ge_lambda2", "isoperimetric_lower", "cheeger_upper"},
    ("cycle", 3): {"mcut_ge_lambda2"},
    ("cycle", 4): {"mcut_ge_lambda2", "isoperimetric_lower", "cheeger_upper"},
    ("path", 2): {"mcut_ge_lambda2", "isoperimetric_lower", "cheeger_upper"},
}


def test_bounds_ties_hold_within_the_radius_and_fail_past_it(monkeypatch):
    # each exact eigenvalue lies within the radius of its estimate, so with every
    # eigenvalue returned half a radius high the ties still hold; two radii high, with
    # the radius unchanged, the interval lies past each tie, and exactly the tied checks
    # read false
    eig_sym = sl.matrices.eig_sym
    for radii in (0.5, 2.0):
        def shifted(m, radii=radii):
            spectrum = eig_sym(m)
            return dataclasses.replace(spectrum,
                                       eigenvalues=spectrum.eigenvalues + radii * spectrum.radius)

        monkeypatch.setattr(sl.matrices, "eig_sym", shifted)
        for (family, n), tied in _BOUNDS_TIES.items():
            checks = invoke_json(["bounds", "--family", family, "--n", str(n)])["checks"]
            failed = {name for name, holds in checks.items() if holds is False}
            assert failed == (tied if radii > 1 else set()), (family, n, radii)


def _checks_with_lambda2(monkeypatch, family, n, diagonal, lam2, radius):
    """The bounds checks of the family instance when the matrix whose entry (1, 1) is
    ``diagonal`` has its lambda2 and its radius replaced."""
    eig_sym = sl.matrices.eig_sym

    def patched(m):
        spectrum = eig_sym(m)
        if m.values[1, 1] != diagonal:
            return spectrum
        values = spectrum.eigenvalues.copy()
        values[1] = lam2
        return dataclasses.replace(spectrum, eigenvalues=values, radius=radius)

    monkeypatch.setattr(sl.matrices, "eig_sym", patched)
    return invoke_json(["bounds", "--family", family, "--n", str(n)])["checks"]


@pytest.mark.parametrize("lam2, holds", [(0.625, False), (0.8125, True), (5.375, False),
                                         (5.1875, True)])
def test_isoperimetric_upper_reads_the_best_point_of_the_interval(monkeypatch, lam2, holds):
    # complete(4): isoperimetric 2 and max degree 3, so the bound holds exactly when
    # (6 - x) x >= 4 somewhere within 1/16 of lambda2; (6 - x) x peaks at x = 3, so the
    # best point is the interval's end nearest 3
    checks = _checks_with_lambda2(monkeypatch, "complete", 4, 3.0, lam2, 0.0625)
    assert checks["isoperimetric_upper"] is holds


def test_cheeger_lower_is_strict_at_the_end_of_the_interval(monkeypatch):
    # path(3): h = 1, so h^2 / 2 = 1/2; lambda2 = 1/4 within 1/4 reaches it and no further
    for radius, holds in ((0.25, False), (0.375, True)):
        checks = _checks_with_lambda2(monkeypatch, "path", 3, 1.0, 0.25, radius)
        assert checks["cheeger_lower"] is holds, radius


def test_counterexample_command():
    doc = invoke_json(["counterexample", "--k-range", "3:3"])
    (result,) = doc["results"]
    assert result["strictly_less"] and result["parity"] == "odd"


def test_counterexample_lambda2_is_the_first_qnk_root():
    out = "".join(invoke(["counterexample", "--k-range", k_range])[1]
                  for k_range in ("3:11", "50:50", "300:300"))
    for row in (r for line in out.splitlines() for r in json.loads(line)["results"]):
        k = row["k"]
        roots = invoke(["charpoly", "--which", "qnk", "--n", str(2 * k), "--k", str(k),
                        "--roots"])[1]
        first = roots.split('"roots": [', 1)[1].split(",", 1)[0]
        assert f'"lambda2": {first},' in out, k


def test_counterexample_range_is_refused_before_any_k_is_computed(monkeypatch):
    def computed(*_args):
        raise AssertionError("a k was computed")

    monkeypatch.setattr(sl.bisection, "min_ncut_brute", computed)
    monkeypatch.setattr(sl.bisection, "_eigenvalues", computed)
    too_big = {"error": "SizeError", "message": "dense matrices are capped at order 4096, got 4098"}
    for k_range, doc in (("3:1366", too_big), ("3:" + str(10 ** 20), too_big),
                         ("2:11", {"error": "DomainError",
                                   "message": "counterexample family needs k >= 3"})):
        code, out, err = invoke(["counterexample", "--k-range", k_range])
        assert (code, out) == (2, "") and _one_json_line(err) == doc


def test_a_counterexample_range_is_bounded_by_the_work_of_one_verdict_at_the_cap(monkeypatch):
    # the sum of (3k)^3 is 68,592,484,800 over 3..317, below 4096^3, and passes it by k = 318
    def computed(*_args):
        raise AssertionError("a k was computed")

    monkeypatch.setattr(sl.bisection, "min_ncut_brute", computed)
    monkeypatch.setattr(sl.bisection, "_eigenvalues", computed)
    assert sl.bisection.check_counterexample_range(range(3, 318)) is None
    for k_range, work in (("3:318", 69460735464), ("1364:1365", 137187504063)):
        code, out, err = invoke(["counterexample", "--k-range", k_range])
        assert (code, out) == (2, "") and _one_json_line(err) == {
            "error": "SizeError", "message": "counterexample ranges are capped at a sum of "
                                             f"(3k)^3 up to 4096^3, got {work}"}


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------

def test_domain_error_exits_2():
    code, _out, err = invoke(["mcut", "--family", "path", "--n", "1",
                              "--method", "formula"])
    assert code == 2
    assert json.loads(err)["error"] == "DomainError"


def test_usage_errors_exit_64():
    code, _, err = invoke(["mcut"])  # no input source
    assert code == 64 and json.loads(err)["error"] == "_UsageError"
    code, _, _ = invoke(["mcut", "--family", "path", "--n", "4",
                         "--graph", "x.json"])  # both sources
    assert code == 64
    code, _, _ = invoke(["sweep", "--family", "roach", "--n-range", "junk",
                         "--k-range", "2:3"])
    assert code == 64
    code, _, _ = invoke(["unknown-command"])
    assert code == 64


def _one_json_line(err: str) -> dict:
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)


def test_non_numeric_pruned_seed_exits_64():
    code, out, err = invoke(["mcut", "--family", "path", "--n", "8",
                             "--method", "pruned", "--seed", "a,b"])
    assert code == 64 and out == ""
    assert _one_json_line(err)["error"] == "_UsageError"


@pytest.mark.parametrize("vertex", ["0", "5", "-2"])
def test_out_of_range_pruned_seed_names_the_typed_vertex(vertex):
    code, out, err = invoke(["mcut", "--family", "path", "--n", "4",
                             "--method", "pruned", "--seed", f"1,{vertex}"])
    assert code == 2 and out == ""
    assert _one_json_line(err) == {"error": "DomainError",
                                   "message": f"--seed vertex {vertex} is not in 1..4"}


@pytest.mark.parametrize("lam", ["-1e-3", "-5e-1", "-0.5"])
def test_negative_lambda_parses_as_a_number_in_exponent_form_too(lam):
    args = cli.build_parser().parse_args(["charpoly", "--which", "pnk", "--n", "3", "--k", "3",
                                          "--lam", lam])
    assert args.lam == float(lam)


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_non_finite_lambda_exits_64(lam):
    code, out, err = invoke(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                             "--lam", lam])
    assert code == 64 and out == ""
    assert _one_json_line(err)["error"] == "_UsageError"


def test_help_exits_0_and_main_exits_with_the_run_code(monkeypatch, capsys):
    assert invoke(["--help"])[0] == 0 and "usage: speclab" in capsys.readouterr().out
    assert set(sl.__all__) <= set(dir(sl))
    for argv, code in ((["gen", "--family", "path", "--n", "2"], 0), (["mcut"], 64)):
        monkeypatch.setattr(sys, "argv", ["speclab", *argv])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == code
        with warnings.catch_warnings():  # runpy warns that speclab.cli is already imported
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as info:
                runpy.run_module("speclab.cli", run_name="__main__")
        assert info.value.code == code
    assert capsys.readouterr().out.count('"name": "path(2)"') == 2


def test_parser_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(sl.__file__))
    probe = "import speclab.cli as c; raise SystemExit(c._PARSER is not None)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_parser_is_built_once_and_reused():
    first = invoke(["mcut", "--family", "path", "--n", "6"])
    parser = cli._PARSER
    assert parser is not None
    assert invoke(["mcut", "--family", "path", "--n", "6"]) == first
    assert invoke(["mcut"])[0] == 64 and cli._PARSER is parser
    assert invoke(["mcut", "--family", "path", "--n", "6"]) == first


def test_numeric_overflow_exits_70():
    code, _, err = invoke(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                           "--lam", "1e300"])
    assert code == 70 and json.loads(err)["error"] == "NumericError"


@pytest.mark.parametrize("argv", [
    ["--which", "product", "--n", "2000", "--k", "3", "--lam", "0.5"],
    ["--which", "pnk", "--n", "2000", "--k", "3", "--lam", "1"],
    ["--which", "pnk", "--n", "1000000000", "--k", "3", "--lam", "0.5"],
    ["--which", "qnk", "--n", "3", "--k", "1000000000", "--lam", "1"],
    ["--which", "pnk", "--n", "600", "--k", "600", "--lam", "1"],
])
def test_charpoly_out_of_range_exits_70(argv):
    # 2**n * 3**k overflows, which bounds the recurrences of --lam alone
    code, out, err = invoke(["charpoly", *argv])
    assert code == 70 and out == ""
    assert _one_json_line(err) == {
        "error": "NumericError",
        "message": f"2**n * 3**k overflows float64 at (n, k) = ({argv[3]},{argv[5]})"}


def test_charpoly_roots_answer_up_to_the_dense_cap_and_refuse_past_it(monkeypatch):
    # --roots solves the sector blocks, of order n + k, past the overflow of 2**n * 3**k
    doc = invoke_json(["charpoly", "--which", "qnk", "--n", "572", "--k", "286", "--roots"])
    assert doc["count"] == len(doc["roots"]) == 858
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # refused before any block is solved
    for which, n, k in (("pnk", 4094, 3), ("qnk", 3, 10 ** 9), ("product", 2049, 2048)):
        code, out, err = invoke(["charpoly", "--which", which, "--n", str(n), "--k", str(k),
                                 "--roots"])
        assert (code, out) == (2, "") and _one_json_line(err) == {
            "error": "SizeError", "message": f"dense matrices are capped at order 4096, got {n + k}"}
    for n, k in ((2, 3), (3, 2), (2, 10 ** 9)):  # the same DomainError as --lam
        docs = [invoke(["charpoly", "--which", "qnk", "--n", str(n), "--k", str(k), *last])
                for last in (["--roots"], ["--lam", "1"])]
        message = f"characteristic polynomial needs n >= 3 and k >= 3, got ({n},{k})"
        error = json.dumps({"error": "DomainError", "message": message}) + "\n"
        assert docs[0] == docs[1] == (2, "", error)


@pytest.mark.parametrize("argv, count", [
    (["--which", "pnk", "--n", "3", "--k", "600"], 603),
    (["--which", "product", "--n", "20", "--k", "500"], 1040),
], ids=["pnk-3-600", "product-20-500"])
def test_charpoly_roots_complete_near_the_range_limit(argv, count):
    doc = invoke_json(["charpoly", *argv, "--roots"])
    assert doc["count"] == len(doc["roots"]) == count


def test_charpoly_steps_flag_exits_64():
    code, out, err = invoke(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                             "--roots", "--steps", "2000"])
    assert code == 64 and out == ""
    assert "--steps" in _one_json_line(err)["message"]


def test_charpoly_roots_eigensolver_failure_exits_70(monkeypatch):
    def fail(values):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = invoke(["charpoly", "--which", "qnk", "--n", "4", "--k", "3", "--roots"])
    assert code == 70 and out == ""
    assert _one_json_line(err)["error"] == "NumericError"


def _roots(which, n, k):
    return invoke_json(["charpoly", "--which", which, "--n", str(n), "--k", str(k),
                        "--roots"])["roots"]


def test_charpoly_roots_count_is_the_degree():
    for n in range(3, 21):
        for k in range(3, 21):
            for which, degree in (("pnk", n + k), ("qnk", n + k), ("product", 2 * (n + k))):
                roots = _roots(which, n, k)
                assert len(roots) == degree, (which, n, k)
                assert roots == sorted(roots) and 0.0 <= roots[0] and roots[-1] <= 2.0


def test_charpoly_roots_match_the_polynomial_sign_changes():
    for which, fn in (("pnk", sl.weighted_path_charpoly), ("qnk", sl.roach_odd_charpoly)):
        for n in range(3, 13):
            for k in range(3, 13):
                brackets = sl.bracket_roots(lambda x: fn(n, k, x), 2000)
                mids = [0.5 * (a + b) for a, b in brackets]
                assert len(mids) == n + k
                assert _roots(which, n, k) == pytest.approx(mids, abs=1e-9)


def test_charpoly_product_roots_are_the_merged_sector_roots():
    for n, k in [(3, 3), (3, 9), (4, 8), (9, 3), (8, 8), (12, 11), (20, 5)]:
        assert _roots("product", n, k) == sorted(_roots("pnk", n, k) + _roots("qnk", n, k))


def test_non_utf8_graph_file_exits_65(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{\x00}\x00')
    code, out, err = invoke(["mcut", "--graph", str(path)])
    assert code == 65 and out == ""
    assert _one_json_line(err)["error"] == "SchemaError"


def test_closed_form_needs_family_exits_64(tmp_path):
    path = tmp_path / "g.json"
    _, out, _ = invoke(["gen", "--family", "path", "--n", "4"])
    path.write_text(out)
    code, _, err = invoke(["spectrum", "--graph", str(path), "--closed-form"])
    assert code == 64


def test_schema_error_exits_65(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "g", "n": 2, "edges": [[0, 1, 1]], "loops": []}')
    code, _, err = invoke(["mcut", "--graph", str(path)])
    assert code == 65 and json.loads(err)["error"] == "SchemaError"
    missing = tmp_path / "nope.json"
    code, _, _ = invoke(["mcut", "--graph", str(missing)])
    assert code == 65


@pytest.mark.parametrize("argv", [["spectrum", "--closed-form"], ["mcut", "--method", "formula"]])
def test_closed_forms_refuse_a_graph_file_before_opening_it(monkeypatch, argv):
    monkeypatch.setattr(sl.graph, "read_json", None)  # opening the file would raise TypeError
    code, out, err = invoke([*argv, "--graph", "/dev/zero"])
    assert (code, out) == (64, "")
    assert _one_json_line(err) == {"error": "_UsageError",
                                   "message": f"{' '.join(argv[1:])} needs a --family input"}


def test_closed_form_vectors_are_refused_where_the_family_has_none():
    argv = ["spectrum", "--closed-form", "--family", "cycle", "--n", "5"]
    assert invoke_json(argv)["eigenvalues"]
    code, out, err = invoke([*argv, "--vectors"])
    assert (code, out) == (2, "")
    assert _one_json_line(err) == {"error": "DomainError",
                                   "message": "no closed-form eigenvectors for family 'cycle'"}
    # the spectrum's own refusals come first
    code, _, err = invoke([*argv[:3], "tree", "--depth", "3", "--vectors"])
    assert code == 2 and "no closed-form spectrum" in err
    code, _, err = invoke([*argv[:5], str(10 ** 21), "--vectors"])
    assert code == 2 and _one_json_line(err)["error"] == "SizeError"
    assert len(invoke_json([*argv[:3], "path", "--n", "5", "--vectors"])["vectors"]) == 5


def _graph_doc(edges, n=3):
    return json.dumps({"name": "g", "n": n, "edges": edges, "loops": []})


# (file contents, exit code, error); None reads /dev/zero, which never ends
@pytest.mark.parametrize("content, code, error", [
    pytest.param("[" * 20000 + "]" * 20000, 65, "SchemaError", id="nested_20000"),
    pytest.param('{"name": "g", "n": 1' + "0" * 4999 + ', "edges": [], "loops": []}',
                 65, "SchemaError", id="n_5000_digits"),
    pytest.param(_graph_doc([], n=10 ** 13), 2, "SizeError", id="n_10e13"),
    pytest.param(None, 2, "SizeError", id="dev_zero", marks=pytest.mark.skipif(
        not os.path.exists("/dev/zero"), reason="no /dev/zero")),
    pytest.param(_graph_doc([[1, 2, 10 ** 400], [2, 3, 1]]), 65, "SchemaError", id="w_10e400"),
    pytest.param(_graph_doc([[1, 2, 2 ** 60], [2, 3, 1]]), 65, "SchemaError", id="w_2e60"),
    pytest.param(_graph_doc([[0, 1, 1]]), 65, "SchemaError", id="zero_based"),
    pytest.param(_graph_doc([[1, 2]]), 65, "SchemaError", id="short_edge"),
    pytest.param(_graph_doc([[1, 2, 1], [2, 1, 1]]), 65, "SchemaError", id="duplicate"),
    pytest.param('{"name": "g", "n": 3, "edges": [[1, 2, 1]], "loops": [[1, 1.5]]}',
                 65, "SchemaError", id="float_loop_weight"),
    pytest.param('{"name": "g", "n": 3, "edges": []}', 65, "SchemaError", id="no_loops"),
    pytest.param('{"name": ', 65, "SchemaError", id="truncated"),
    pytest.param(b'\xff\xfe{\x00}\x00', 65, "SchemaError", id="utf16"),
])
@pytest.mark.parametrize("command", ["spectrum", "mcut", "lcut", "compare", "bounds"])
def test_graph_documents_keep_the_exit_contract(tmp_path, command, content, code, error):
    path = tmp_path / "g.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    got, out, err = invoke([command, "--graph", "/dev/zero" if content is None else str(path)])
    assert (got, out) == (code, "")
    assert _one_json_line(err)["error"] == error


def test_size_error_exits_2():
    code, _, err = invoke(["mcut", "--family", "path", "--n", "30"])
    assert code == 2 and json.loads(err)["error"] == "SizeError"


def test_over_budget_generation_exits_2():
    for argv in (["gen", "--family", "tree", "--depth", "40"],
                 ["gen", "--family", "complete", "--n", "2000"],
                 ["mcut", "--family", "complete", "--n", "2000"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert _one_json_line(err)["error"] == "SizeError"


def test_closed_forms_do_not_generate(monkeypatch):
    # a closed form builds its graph only to check a witness of <= 64 vertices
    def refuse(spec):
        raise AssertionError(f"generated {spec.label()}")
    monkeypatch.setattr(sl.graph, "generate", refuse)
    monkeypatch.setattr(sl.cuts, "generate", refuse)
    doc = invoke_json(["mcut", "--family", "complete", "--n", "100000", "--method", "formula"])
    assert (doc["value"]["num"], doc["value"]["den"]) == (100000, 99999)
    assert doc["witness"] == [] and doc["cut_weight"] == 99999
    doc = invoke_json(["spectrum", "--family", "cycle", "--n", "100000", "--closed-form"])
    assert len(doc["eigenvalues"]) == 100000
    code, out, err = invoke(["mcut", "--family", "tree", "--depth", "40", "--method", "formula"])
    assert code == 2 and "no closed-form minimum" in _one_json_line(err)["message"]
    doc = invoke_json(["mcut", "--family", "double_tree", "--depth", "10000",
                       "--method", "formula"])
    assert doc["value"]["den"] == 2 ** 10001 - 3
    _, out, _ = invoke(["sweep", "--family", "roach", "--n-range", "100000:100000",
                        "--k-range", "2:3"])
    assert out.splitlines()[1].startswith("100000,2,c2:k=2&n>=2,")


# 10**2200 parses, but the closed-form value's denominator has about 4,400 digits,
# more than the interpreter turns into text by default
BIG = str(10 ** 2200)


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "roach", "--n-range", f"{BIG}:{BIG}", "--k-range", "2:2"],
    ["mcut", "--method", "formula", "--family", "roach", "--n", BIG, "--k", "2"],
], ids=["sweep", "mcut"])
def test_value_beyond_digit_limit_exits_2(argv):
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert _one_json_line(err)["error"] == "SizeError"


def test_closed_form_path_spectrum_builds_no_vectors_unasked():
    doc = invoke_json(["spectrum", "--closed-form", "--family", "path", "--n", "30000"])
    assert len(doc["eigenvalues"]) == 30000 and "vectors" not in doc
    doc = invoke_json(["spectrum", "--closed-form", "--family", "path", "--n", "4",
                       "--vectors"])
    assert len(doc["vectors"]) == 4 and len(doc["vectors"][0]) == 4


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "path", "--n", "4097"],
    ["lcut", "--family", "path", "--n", "4097"],
    ["spectrum", "--closed-form", "--family", "path", "--n", "4097", "--vectors"],
    ["sweep", "--family", "roach", "--n-range", "1:100000000", "--k-range", "2:2"],
])
def test_oversized_requests_exit_2(argv):
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert _one_json_line(err)["error"] == "SizeError"


def test_size_caps_leave_the_tested_sizes():
    doc = invoke_json(["spectrum", "--closed-form", "--family", "path", "--n", "4097"])
    assert len(doc["eigenvalues"]) == 4097 and "vectors" not in doc
    code, out, _ = invoke(["sweep", "--family", "roach", "--n-range", "90:260",
                           "--k-range", "2:260"])
    assert code == 0 and out.count("\n") == 1 + 171 * 259


# small parameters, and powers of ten with up to 4,300 digits
_SIZES = st.one_of(st.integers(-2, 70), st.integers(1, 4299).map(lambda j: 10 ** j))


@st.composite
def _closed_form_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["sweep", "mcut", "spectrum", "charpoly"]))
    if command == "sweep":
        n, k = draw(_SIZES), draw(_SIZES)
        return ["sweep", "--family", draw(st.sampled_from(["roach", "weighted-path"])),
                "--n-range", f"{n}:{n + draw(st.integers(0, 2))}", "--k-range", f"{k}:{k}",
                "--format", draw(st.sampled_from(["csv", "gnuplot"]))]
    if command == "mcut":
        argv = ["mcut", "--method", "formula", "--family",
                draw(st.sampled_from([*sl.FAMILIES, "double-tree", "ladder"]))]
        for flag in ("--n", "--k", "--m", "--depth"):
            if draw(st.booleans()):
                argv += [flag, str(draw(_SIZES))]
        return argv
    if command == "charpoly":
        argv = ["charpoly", "--which", draw(st.sampled_from(["pnk", "qnk", "product"])),
                "--n", str(draw(_SIZES)), "--k", str(draw(_SIZES))]
        return argv + (["--roots"] if draw(st.booleans()) else ["--lam", repr(draw(st.floats()))])
    n = draw(st.one_of(st.integers(-1, 3000), _SIZES))
    family = draw(st.sampled_from(["path", "cycle", "roach", "tree", "double-tree"]))
    argv = ["spectrum", "--closed-form", "--family", family,
            *(["--depth", str(draw(_SIZES))] if "tree" in family else ["--n", str(n)]),
            "--kind", draw(st.sampled_from([k.value for k in sl.MatrixKind] + ["x"]))]
    return argv + (["--vectors"] if n <= 200 and draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None)
@given(_closed_form_argv())
@example(["sweep", "--family", "roach", "--n-range", f"{BIG}:{BIG}", "--k-range", "2:2"])
@example(["mcut", "--method", "formula", "--family", "roach", "--n", "1", "--k", str(10 ** 20)])
@example(["spectrum", "--closed-form", "--family", "cycle", "--n", str(10 ** 21)])
@example(["spectrum", "--closed-form", "--family", "double-tree", "--depth", "3"])
def test_closed_form_commands_keep_the_exit_contract(argv):
    code, out, err = invoke(argv)
    assert code in (0, 2, 64, 65, 70)
    if err:
        _one_json_line(err)
    assert invoke(argv)[1] == out


@st.composite
def _near_cap_argv(draw) -> tuple[list[str], int, int]:
    """(argv, order, cap): a path, weighted path or roach within 2 vertices of the
    cap of its command, or counterexample on a ladder past the subset cap or its
    sector blocks past the dense cap."""
    command = draw(st.sampled_from(["mcut", "bounds", "lcut", "compare", "counterexample"]))
    if command == "counterexample":
        k = draw(st.sampled_from([11, 1366]))  # sector blocks of order 3k: 33 and 4,098
        return ["counterexample", "--k-range", f"{k}:{k}"], 3 * k, sl.matrices.MAX_DENSE_ORDER
    cap = sl.graph.EXHAUSTIVE_CAP if command in ("mcut", "bounds") else sl.graph.SUBSET_CAPACITY
    order = cap + draw(st.integers(-2, 2))
    family = draw(st.sampled_from(["path", "weighted-path"] + ["roach"] * (order % 2 == 0)))
    if family == "path":
        return [command, "--family", "path", "--n", str(order)], order, cap
    n = draw(st.integers(1, order - 1 if family == "weighted-path" else order // 2 - 2))
    k = order - n if family == "weighted-path" else order // 2 - n
    return [command, "--family", family, "--n", str(n), "--k", str(k)], order, cap


@settings(max_examples=40, deadline=None)
@given(_near_cap_argv())
@example((["mcut", "--family", "path", "--n", "24"], 24, 24))
@example((["bounds", "--family", "roach", "--n", "1", "--k", "12"], 26, 24))
@example((["lcut", "--family", "weighted-path", "--n", "1", "--k", "63"], 64, 64))
@example((["compare", "--family", "roach", "--n", "3", "--k", "30"], 66, 64))
def test_commands_answer_up_to_their_size_cap_and_refuse_past_it(case):
    argv, order, cap = case
    code, out, err = invoke(argv)
    if order <= cap:
        assert (code, err) == (0, "") and json.loads(out)
    else:
        assert (code, out) == (2, "") and _one_json_line(err)["error"] == "SizeError"


# command -> [(flag, takes a value)], read from the parser so that no flag is missed
_FLAGS = {name: [(a.option_strings[-1], a.nargs != 0) for a in p._actions
                 if a.option_strings and a.dest != "help"]
          for name, p in next(a for a in cli.build_parser()._actions
                              if isinstance(a, argparse._SubParsersAction)).choices.items()}
# values any flag may get: out of range, huge, not numbers, not finite
_HOSTILE = ["-5", "0", "1", "2", "3", "6", "12", str(10 ** 20), "x", "1.5", "", "nan", "-inf"]
_RANGES = ["1:12", "3:5", "2:2", "5:3", "1:", ":", "a:b", "1:2:3", f"3:{10 ** 20}", "-3:2"]
_VALUES = {
    "--family": [*sl.FAMILIES, "double-tree", "cycle-cross-path", "weighted-path", "ladder"],
    "--kind": [k.value for k in sl.MatrixKind],
    "--which": ["pnk", "qnk", "product"],
    "--method": ["brute", "formula", "pruned"],
    "--format": ["json", "dot", "csv", "gnuplot"],
    "--seed": ["1,2", "1,13", "0", "x,1"],
    "--lam": ["0.5", "1e308"],
    "--n-range": _RANGES,
    "--k-range": _RANGES,
    # placeholders for the files made by contract_files
    "--graph": ["@GRAPH", "@BAD", "@DIR", "@MISSING", "/dev/null"],
    "--out": ["@OUT", "@DIR", "@MISSING", ""],
}


@st.composite
def _any_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, takes_value in draw(st.lists(st.sampled_from(_FLAGS[command]), unique=True)):
        argv.append(flag)
        if takes_value:  # --out writes only into the test's own directory
            pool = _VALUES.get(flag, []) + (_HOSTILE if flag != "--out" else [])
            argv.append(draw(st.sampled_from(pool)))
    return argv


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    (d / "g.json").write_text(sl.to_json(sl.generate(sl.FamilySpec("roach", n=2, k=2))))
    (d / "bad.json").write_text('{"name": ')
    return {"@GRAPH": str(d / "g.json"), "@BAD": str(d / "bad.json"), "@DIR": str(d),
            "@MISSING": str(d / "missing" / "x.json"), "@OUT": str(d / "out.json")}


@settings(max_examples=200, deadline=None)
@given(_any_argv())
@example(["spectrum", "--closed-form", "--family", "tree", "--depth", "3"])
@example(["gen", "--family", "path", "--n", "3", "--out", "@MISSING"])
@example(["gen", "--family", "path", "--n", "3", "--out", "@DIR"])
@example(["gen"])  # no --family
def test_every_command_keeps_the_exit_contract(contract_files, argv):
    code, out, err = invoke([contract_files.get(a, a) for a in argv])
    assert code in (0, 2, 64, 65, 70)
    assert (code == 0) == (err == "") and (code == 0 or out == "")
    if err:
        _one_json_line(err)


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_out_exits_64(tmp_path, where):
    path = tmp_path / "missing" / "x.json" if where == "missing_directory" else tmp_path
    code, out, err = invoke(["gen", "--family", "path", "--n", "3", "--out", str(path)])
    assert (code, out) == (64, "")
    assert _one_json_line(err)["error"] == "_UsageError"


_OUT_ARGVS = [
    ["gen", "--family", "roach", "--n", "2", "--k", "3", "--format", "dot"],
    ["spectrum", "--family", "path", "--n", "5", "--vectors"],
    ["mcut", "--family", "path", "--n", "6"],
    ["lcut", "--family", "roach", "--n", "6", "--k", "3"],
    ["compare", "--family", "roach", "--n", "4", "--k", "3"],
    ["charpoly", "--which", "qnk", "--n", "3", "--k", "3", "--roots"],
    ["sweep", "--family", "roach", "--n-range", "1:3", "--k-range", "2:4"],
    ["bounds", "--family", "lollipop", "--n", "4", "--m", "2"],
    ["counterexample", "--k-range", "3:4"],
]


@pytest.mark.parametrize("argv", _OUT_ARGVS, ids=[a[0] for a in _OUT_ARGVS])
def test_out_file_equals_stdout(tmp_path, argv):
    assert sorted(a[0] for a in _OUT_ARGVS) == sorted(cli._COMMANDS)
    path = tmp_path / "doc.out"
    code, out, err = invoke([*argv, "--out", str(path)])
    assert (code, err) == (0, "") and out.endswith("\n")
    assert path.read_text(encoding="utf-8") == out == invoke(argv)[1]


def test_multiplicity_error_exits_2():
    code, _, err = invoke(["lcut", "--family", "cycle", "--n", "4"])
    assert code == 2 and json.loads(err)["error"] == "MultiplicityError"


def test_identical_invocations_are_byte_identical():
    argv = ["compare", "--family", "roach", "--n", "4", "--k", "3"]
    _, out1, _ = invoke(argv)
    _, out2, _ = invoke(argv)
    assert out1 == out2


def test_round_trip_matches_in_memory(tmp_path):
    # gen output re-read by mcut gives the same report as the family input
    for family, params in (("roach", ["--n", "2", "--k", "3"]),
                           ("double-tree", ["--depth", "3"])):
        path = tmp_path / f"{family}.json"
        _, out, _ = invoke(["gen", "--family", family, *params, "--out", str(path)])
        via_file = invoke_json(["mcut", "--graph", str(path)])
        via_family = invoke_json(["mcut", "--family", family, *params])
        assert via_file["value"] == via_family["value"]
        assert via_file["witness"] == via_family["witness"]


def test_lcut_round_trip_loses_only_generator_parity(tmp_path):
    # the graph schema carries no automorphism, so file inputs cannot
    # classify parity; every other field must round trip exactly
    path = tmp_path / "r63.json"
    invoke(["gen", "--family", "roach", "--n", "6", "--k", "3", "--out", str(path)])
    via_family = invoke_json(["lcut", "--family", "roach", "--n", "6", "--k", "3"])
    via_file = invoke_json(["lcut", "--graph", str(path)])
    assert via_family.pop("parity") == "odd"
    assert via_file.pop("parity") == "no_automorphism"
    assert via_family == via_file


def test_threads_env_does_not_change_output(monkeypatch):
    argv = ["sweep", "--family", "roach", "--n-range", "1:4", "--k-range", "2:5"]
    _, base, _ = invoke(argv)
    monkeypatch.setenv("SPECLAB_THREADS", "4")
    _, threaded, _ = invoke(argv)
    assert base == threaded
