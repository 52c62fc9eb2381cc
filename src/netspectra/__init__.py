"""Spectra of random graphs with arbitrary expected degrees.

Analytic bulk densities, band edges, detached leading/hub eigenvalues and
hub-eigenvector localization, plus a matching Monte Carlo network sampler and
eigenvalue machinery to validate every prediction.
"""

__version__ = "0.1.0"

from .degree_model import DegreeModel, DegreeSequence
from .analytic import (
    HSolution,
    HubPrediction,
    SpectralCurve,
    band_edges,
    density_grid,
    hub_critical_degree,
    hub_eigenvalues,
    hub_eigenvector_profile,
    hub_pairs,
    leading_eigenvalue,
    leading_eigenvalue_approx,
    semicircle_cauchy_transform,
    semicircle_density,
    solve_h,
    spectral_density,
    stieltjes_transform,
)
from .sampler import (
    DENSE_CAP,
    ModularityView,
    SampledNetwork,
    attach_hub,
    densify_modularity,
    sample_network,
    write_edge_list,
)
from .empirical import (
    EigenReport,
    EnsembleHistogram,
    compare_density,
    dense_symmetric_eigen,
    empirical_density,
    ensemble_hub,
    ensemble_hub_localization,
    ensemble_hub_top,
    ensemble_leading,
    hub_vector_stats,
    l1_distance,
    pooled_spectra,
    replicate_seed,
    top_eigenpair,
    write_eigenvalue_dump,
    write_histogram_csv,
)
from .errors import NoDetachedEigenvalueError, NumericError
