"""Which modules a fresh process loads: numpy comes only with the numeric layers.

`import speclab` runs only the package's __init__; `bisection`, `matrices`
and the enumeration engine, which load numpy, are imported by the commands
that compute with them, after the input is read. Each case runs in its own
interpreter, so nothing this test session has imported can hide a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NUMERIC = ("numpy", "speclab._enumeration", "speclab.matrices", "speclab.bisection")

# Prints the speclab modules and numpy that `import speclab` loads.
IMPORT_ONLY = """
import json, sys
import speclab
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("speclab"))))
"""

# argv: the command as JSON. Prints whether numpy was loaded before and after
# cli.run, and the exit code.
RUN = """
import io, json, sys
from speclab import cli
before = "numpy" in sys.modules
code = cli.run(json.loads(sys.argv[1]), io.StringIO(), io.StringIO())
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "code": code}))
"""

# Prints the names of speclab.__all__ that are not their submodule's object or
# that dir(speclab) leaves out, and the submodules that neither attribute
# access nor a star import resolves.
NAMES = """
import json, sys
import speclab
from speclab import _enumeration, cli
assert cli is sys.modules["speclab.cli"] and _enumeration is sys.modules["speclab._enumeration"]
names = ("bisection", "charpoly", "cuts", "errors", "graph", "matrices")
modules = [getattr(speclab, m) for m in names]
star = {}
exec("from speclab import *", star)  # binds the submodules too, as the eager package did
bad = [m for m, module in zip(names, modules)
       if module is not sys.modules["speclab." + m] or star.get(m) is not module]
for name in set(speclab.__all__) - set(names):
    obj = getattr(speclab, name)
    home = sys.modules.get(getattr(obj, "__module__", None) or "")
    owners = [m for m in modules if vars(m).get(name) is obj]
    if not owners or home in modules and getattr(home, name, None) is not obj:
        bad.append(name)
missing = sorted(set(speclab.__all__) - set(dir(speclab)))
try:
    speclab.no_such_name
except AttributeError:
    pass
else:
    bad.append("no_such_name")
print(json.dumps({"count": len(speclab.__all__), "bad": bad, "missing": missing}))
"""


def _python(code: str, *args: str):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_speclab_runs_only_the_package():
    loaded = _python(IMPORT_ONLY)
    assert loaded == ["speclab"]
    assert not set(loaded) & set(NUMERIC)


@pytest.fixture(scope="module")
def bad_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "bad.json"
    path.write_text('{"name": "bad", "n": 2, "edges": [[1, 2]], "loops": []}', encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (["gen", "--family", "roach", "--n", "3", "--k", "2"], 0),
    (["sweep", "--family", "roach", "--n-range", "1:4", "--k-range", "2:4"], 0),
    (["mcut", "--family", "lollipop", "--n", "5", "--m", "3", "--method", "formula"], 0),
    (["charpoly", "--which", "qnk", "--n", "4", "--k", "3", "--lam", "0.25"], 0),
    (["bounds"], 64),            # no input
    (["lcut", "--graph", None], 65),  # an edge without its weight
    (["spectrum", "--kind", "laplace", "--family", "path", "--n", "4"], 2),
    (["spectrum"], 64),
    (["spectrum", "--graph", None], 65),
], ids=["gen", "sweep", "mcut-formula", "charpoly-lam", "usage-64", "schema-65",
        "spectrum-kind-2", "spectrum-usage-64", "spectrum-schema-65"])
def test_closed_forms_and_refusals_run_without_numpy(argv, code, bad_graph):
    argv = [bad_graph if a is None else a for a in argv]
    assert _python(RUN, json.dumps(argv)) == {"before": False, "after": False, "code": code}


@pytest.mark.parametrize("argv", [
    ["mcut", "--family", "path", "--n", "8"],
    ["spectrum", "--family", "path", "--n", "4"],
    ["counterexample", "--k-range", "3:3"],
], ids=["mcut", "spectrum", "counterexample"])
def test_numeric_commands_load_numpy_at_first_use(argv):
    assert _python(RUN, json.dumps(argv)) == {"before": False, "after": True, "code": 0}


def test_every_public_name_is_its_submodules_object_and_listed():
    result = _python(NAMES)
    assert result["count"] > 0
    assert result["bad"] == [] and result["missing"] == []
