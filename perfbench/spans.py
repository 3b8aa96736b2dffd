"""Spans around the calls into speclab's public functions.

The tracer replaces each listed function, in every speclab module that holds
a reference to it, by a wrapper that records a span (name, start, end,
parent) and the counts the per-layer metrics need. Self time is a span's
duration minus the time its child spans cover. The program's code is not
changed; only the benchmark's process sees the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "_enumeration": ("bipartition_arrays", "side_sizes", "boundary_volumes",
                     "exact_min_fraction"),
    "cuts": ("min_ncut_brute", "min_ncut_pruned", "min_ncut_formula",
             "isoperimetric_number", "cheeger_edge", "cheeger_vertex", "formula_sweep"),
    "graph": ("generate", "from_json", "normalized_cut"),
    "matrices": ("build_matrix", "eig_sym"),
    "bisection": ("spectral_cut", "counterexample_check"),
    "charpoly": ("bracket_roots",),
    "cli": ("run",),
}
# One pass over every canonical bipartition of the graph.
PASSES = ("_enumeration.bipartition_arrays", "_enumeration.side_sizes",
          "_enumeration.boundary_volumes")
EXPANSION = ("cuts.isoperimetric_number", "cuts.cheeger_edge", "cuts.cheeger_vertex")
MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.op = None              # the operation running now: (round, index)
        self.keep_spans = True      # spans are kept for the first round only
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self._stack: list[list] = []      # [span index or None, child seconds]
        self.pass_graphs: set = set()
        self.bipartitions = 0
        self.array_bytes = 0
        self.evaluations = 0
        self.roots_found = 0

    def install(self) -> None:
        wrappers = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"speclab.{module_name}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "speclab" and not module_name.startswith("speclab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "charpoly.bracket_roots":
                args = (self._counted(args[0]), *args[1:])
            index = None
            if self.keep_spans:
                index = len(self.spans)
                parent = self._stack[-1][0] if self._stack else None
                self.spans.append([name, parent, self.op, 0.0, 0.0])
            self._stack.append([index, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                _index, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += t1 - t0
                entry[2] += t1 - t0 - child
                if index is not None:
                    self.spans[index][3:] = [t0, t1]
            if name in PASSES:
                g = args[0]
                self.pass_graphs.add((self.op, g.n, g.edges, g.loops))
                self.bipartitions += 1 << (g.n - 1)
                arrays = result if isinstance(result, tuple) else (result,)
                self.array_bytes += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
            elif name == "charpoly.bracket_roots":
                self.roots_found += len(result)
            return result
        return wrapper

    def _counted(self, fn):
        def counted(x):
            self.evaluations += 1
            return fn(x)
        return counted

    def per_layer(self, rounds: int, roots_expected: int) -> dict[str, tuple[float, str]]:
        """Per-round values of the per-layer metrics, as (value, unit)."""
        def calls(*names):
            return sum(self.stats.get(n, (0,))[0] for n in names) / rounds

        def self_ms(*names):
            return sum(self.stats[n][2] for n in names if n in self.stats) * 1e3 / rounds

        pass_calls = sum(self.stats.get(n, (0,))[0] for n in PASSES)
        return {
            "enumeration.calls": (calls(*PASSES), "count"),
            "enumeration.self_ms": (self_ms(*PASSES), "ms"),
            "enumeration.bipartitions": (self.bipartitions / rounds, "count"),
            "enumeration.passes_per_graph":
                (pass_calls / len(self.pass_graphs) if self.pass_graphs else 0.0, "passes/graph"),
            "enumeration.array_mb_computed": (self.array_bytes / MB / rounds, "MB"),
            "enumeration.exact_min_fraction.calls":
                (calls("_enumeration.exact_min_fraction"), "count"),
            "enumeration.exact_min_fraction.self_ms":
                (self_ms("_enumeration.exact_min_fraction"), "ms"),
            "cuts.min_ncut_brute.calls": (calls("cuts.min_ncut_brute"), "count"),
            "cuts.min_ncut_brute.self_ms": (self_ms("cuts.min_ncut_brute"), "ms"),
            "cuts.min_ncut_pruned.calls": (calls("cuts.min_ncut_pruned"), "count"),
            "cuts.min_ncut_pruned.self_ms": (self_ms("cuts.min_ncut_pruned"), "ms"),
            "cuts.expansion.self_ms": (self_ms(*EXPANSION), "ms"),
            "cuts.min_ncut_formula.calls": (calls("cuts.min_ncut_formula"), "count"),
            "cuts.min_ncut_formula.self_ms": (self_ms("cuts.min_ncut_formula"), "ms"),
            "cuts.formula_sweep.self_ms": (self_ms("cuts.formula_sweep"), "ms"),
            "graph.generate.calls": (calls("graph.generate"), "count"),
            "graph.generate.self_ms": (self_ms("graph.generate"), "ms"),
            "graph.from_json.self_ms": (self_ms("graph.from_json"), "ms"),
            "graph.normalized_cut.calls": (calls("graph.normalized_cut"), "count"),
            "graph.normalized_cut.self_ms": (self_ms("graph.normalized_cut"), "ms"),
            "matrices.build_matrix.self_ms": (self_ms("matrices.build_matrix"), "ms"),
            "matrices.eig_sym.calls": (calls("matrices.eig_sym"), "count"),
            "matrices.eig_sym.self_ms": (self_ms("matrices.eig_sym"), "ms"),
            "bisection.spectral_cut.calls": (calls("bisection.spectral_cut"), "count"),
            "bisection.spectral_cut.self_ms": (self_ms("bisection.spectral_cut"), "ms"),
            "bisection.counterexample_check.self_ms":
                (self_ms("bisection.counterexample_check"), "ms"),
            "charpoly.bracket_roots.calls": (calls("charpoly.bracket_roots"), "count"),
            "charpoly.bracket_roots.self_ms": (self_ms("charpoly.bracket_roots"), "ms"),
            "charpoly.evaluations": (self.evaluations / rounds, "count"),
            "charpoly.roots_found": (self.roots_found / rounds, "count"),
            "charpoly.roots_expected": (float(roots_expected), "count"),
            "cli.run.calls": (calls("cli.run"), "count"),
            "cli.run.self_ms": (self_ms("cli.run"), "ms"),
        }
