"""Every function the benchmark's tracer wraps by name still exists.

perfbench/spans.py looks up ``LAYERS`` (module -> function names) with
getattr when a traced run starts, so a deleted or renamed function breaks
``perfbench/run.py --trace 1``. The file is parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


def test_every_traced_layer_resolves_in_speclab():
    layers = _layers()
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"speclab.{module}"), name, None))]
    assert missing == []
