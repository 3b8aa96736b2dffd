"""Normalized-cut analysis toolkit: graph families, Laplacian spectra,
characteristic polynomials, exact minimum normalized cuts, and spectral
bisection, with exact-rational cut arithmetic throughout.

Importing the package runs only this file. Each public name is imported
from its submodule on first access (PEP 562), so the closed forms, which
need no numpy, run without loading it; `bisection`, `matrices` and the
enumeration engine load numpy when they are first used.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bisection": ("BisectionReport", "CounterexampleReport", "IndicatorIdentity",
                  "counterexample_check", "indicator_identity_check", "sector_block",
                  "sector_eigenvalues", "spectral_cut"),
    "charpoly": ("bracket_roots", "chebyshev_pair", "chebyshev_t", "chebyshev_u",
                 "normalized_path_charpoly", "roach_charpoly", "roach_odd_charpoly",
                 "tail_poly_even", "tail_poly_odd", "tridiag_det", "weighted_path_charpoly",
                 "weighted_path_lambda2_bound"),
    "cuts": ("CutReport", "SweepRow", "cheeger_edge", "cheeger_vertex", "formula_sweep",
             "in_disagreement_region", "isoperimetric_number", "min_ncut", "min_ncut_brute",
             "min_ncut_formula", "min_ncut_pruned"),
    "errors": ("ConnectivityError", "DomainError", "MultiplicityError", "NumericError",
               "SchemaError", "SizeError", "SpecLabError"),
    "graph": ("FAMILIES", "FamilySpec", "Graph", "MatrixKind", "VertexSubset", "from_json",
              "from_json_dict", "generate", "is_connected", "normalized_cut", "read_json",
              "subset_from_mask", "to_dot", "to_json", "to_json_dict", "vertex_subset"),
    "matrices": ("ClosedFormSpectrum", "Spectrum", "SymmetricMatrix", "build_matrix",
                 "circulant_eigenpairs", "circulant_matrix", "closed_form_spectrum", "eig_sym"),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "_enumeration"})
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the public names and the submodules that define them, which a star import binds
__all__ = sorted({*_SOURCE, *_EXPORTS})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
