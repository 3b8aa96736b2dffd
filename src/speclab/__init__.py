"""Normalized-cut analysis toolkit: graph families, Laplacian spectra,
characteristic polynomials, exact minimum normalized cuts, and spectral
bisection, with exact-rational cut arithmetic throughout."""

from .bisection import (BisectionReport, CounterexampleReport, IndicatorIdentity,
                        counterexample_check, indicator_identity_check,
                        sector_block, sector_eigenvalues, spectral_cut)
from .charpoly import (bracket_roots, chebyshev_pair, chebyshev_t, chebyshev_u,
                       normalized_path_charpoly, roach_charpoly,
                       roach_odd_charpoly, tail_poly_even, tail_poly_odd,
                       tridiag_det, weighted_path_charpoly,
                       weighted_path_lambda2_bound)
from .cuts import (CutReport, SweepRow, cheeger_edge, cheeger_vertex,
                   formula_sweep, in_disagreement_region, isoperimetric_number,
                   min_ncut, min_ncut_brute, min_ncut_formula, min_ncut_pruned)
from .errors import (ConnectivityError, DomainError, MultiplicityError,
                     NumericError, SchemaError, SizeError, SpecLabError)
from .graph import (FAMILIES, FamilySpec, Graph, VertexSubset, from_json,
                    from_json_dict, generate, is_connected, normalized_cut,
                    read_json, subset_from_mask, to_dot, to_json, to_json_dict,
                    vertex_subset)
from .matrices import (ClosedFormSpectrum, MatrixKind, Spectrum,
                       SymmetricMatrix, build_matrix, circulant_eigenpairs,
                       circulant_matrix, closed_form_spectrum, eig_sym)

__version__ = "0.1.0"
