"""Command-line interface: documents, exit codes, determinism, round trips."""

import argparse
import io
import json
import os
import subprocess
import sys

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


def test_counterexample_command():
    doc = invoke_json(["counterexample", "--k-range", "3:3"])
    (result,) = doc["results"]
    assert result["strictly_less"] and result["parity"] == "odd"


def test_counterexample_lambda2_is_the_first_qnk_root():
    out = invoke(["counterexample", "--k-range", "3:10"])[1]
    for row in json.loads(out)["results"]:
        k = row["k"]
        roots = invoke(["charpoly", "--which", "qnk", "--n", str(2 * k), "--k", str(k),
                        "--roots"])[1]
        first = roots.split('"roots": [', 1)[1].split(",", 1)[0]
        assert f'"lambda2": {first},' in out, k


def test_counterexample_range_is_refused_before_any_k_is_computed(monkeypatch):
    def min_ncut_brute(_g):
        raise AssertionError("a k was computed")

    monkeypatch.setattr(sl.bisection, "min_ncut_brute", min_ncut_brute)
    for k_range, doc in (("3:11", {"error": "SizeError",
                                   "message": "subset capacity is 64 vertices, graph has 66"}),
                         ("3:" + str(10 ** 20), {"error": "SizeError",
                          "message": "subset capacity is 64 vertices, graph has 66"}),
                         ("2:11", {"error": "DomainError",
                                   "message": "counterexample family needs k >= 3"})):
        code, out, err = invoke(["counterexample", "--k-range", k_range])
        assert (code, out) == (2, "") and _one_json_line(err) == doc


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


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_non_finite_lambda_exits_64(lam):
    code, out, err = invoke(["charpoly", "--which", "pnk", "--n", "4", "--k", "3",
                             "--lam", lam])
    assert code == 64 and out == ""
    assert _one_json_line(err)["error"] == "_UsageError"


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
    ["--which", "pnk", "--n", "2000", "--k", "3", "--roots"],
    ["--which", "pnk", "--n", "2000", "--k", "3", "--lam", "1"],
    ["--which", "pnk", "--n", "1000000000", "--k", "3", "--lam", "0.5"],
    ["--which", "qnk", "--n", "3", "--k", "1000000000", "--roots"],
    ["--which", "pnk", "--n", "600", "--k", "600", "--roots"],
])
def test_charpoly_out_of_range_exits_70(argv):
    code, out, err = invoke(["charpoly", *argv])
    assert code == 70 and out == ""
    assert _one_json_line(err)["error"] == "NumericError"


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
    cap of its command, or counterexample on the two ladders nearest the subset cap."""
    command = draw(st.sampled_from(["mcut", "bounds", "lcut", "compare", "counterexample"]))
    if command == "counterexample":
        k = draw(st.sampled_from([10, 11]))  # roach(2k, k) has 6k vertices: 60 and 66
        return ["counterexample", "--k-range", f"{k}:{k}"], 6 * k, sl.graph.SUBSET_CAPACITY
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
