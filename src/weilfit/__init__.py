"""weilfit: discrete least-squares polynomial approximation on deterministic
prime-residue (Weil-type) collocation grids.

The grids y_j = cos(2*pi*(j, j^2, ..., j^d)/M), j = 0..floor(M/2), for prime
M equidistribute to the product arcsine measure, and Weil's exponential-sum
bound keeps the Chebyshev Gram matrix of a weighted discrete least-squares
fit close to (a multiple of) the identity.  The package builds the grids,
tensor Chebyshev/Legendre bases, solves the weighted least-squares problem by
SVD, and ships diagnostics that verify the quantitative bounds.
"""

from .indexsets import (IndexSet, as_indices, build_index_set,
                        td_cardinality, tp_cardinality)
from .pointgen import (SampleSet, arcsine_box_measure, equidist_box_fraction,
                       is_prime, mc_sample, nearest_prime, point_array,
                       weil_exponential_sum, weil_grid)
from .polybasis import (CHEBYSHEV_CLASSICAL, CHEBYSHEV_ORTHONORMAL,
                        LEGENDRE_ORTHONORMAL, BasisSpec, basis_matrix,
                        eval_1d, eval_tensor, evaluate_expansions)
from .lstsq import (ConditionReport, FitResult, SingularSystemError,
                    UNIT_WEIGHTS, WeightScheme, compute_weights, condition,
                    evaluate_fit, gram, solve)
from .diagnostics import (ErrorReport, GramBoundReport, check_bounds,
                          check_gram_bounds, l2_error, reference_projection,
                          spectral_gap)
from . import targets
from .study import StudyConfig, realize_cell

__version__ = "0.1.0"

__all__ = [
    "IndexSet", "as_indices", "build_index_set", "td_cardinality",
    "tp_cardinality",
    "SampleSet", "arcsine_box_measure", "equidist_box_fraction",
    "is_prime", "mc_sample", "nearest_prime", "point_array",
    "weil_exponential_sum", "weil_grid",
    "BasisSpec", "CHEBYSHEV_CLASSICAL", "CHEBYSHEV_ORTHONORMAL",
    "LEGENDRE_ORTHONORMAL", "basis_matrix", "eval_1d", "eval_tensor",
    "evaluate_expansions",
    "ConditionReport", "FitResult", "SingularSystemError", "UNIT_WEIGHTS",
    "WeightScheme", "compute_weights", "condition", "evaluate_fit", "gram",
    "solve",
    "ErrorReport", "GramBoundReport", "check_bounds", "check_gram_bounds",
    "l2_error", "reference_projection", "spectral_gap",
    "StudyConfig", "realize_cell",
    "targets",
    "__version__",
]
