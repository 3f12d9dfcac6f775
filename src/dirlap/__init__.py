"""dirlap: directed hierarchy detection via magnetic and trophic Laplacians.

Given a directed graph, the package estimates two competing node
arrangements -- phase angles on a circle (periodic hierarchy) and real
levels on a line (linear hierarchy) -- and decides which arrangement
better explains the data by comparing the maximum likelihoods of their
associated random-graph models.
"""

from .graphs import (DirectedGraph, EdgeListError, GraphStructureError,
                     ParseResult, SymmetrizedView, apply_ordering,
                     is_weakly_connected, largest_scc, largest_wcc,
                     parse_edge_list, serialize_edge_list, serialize_ordering,
                     symmetrize)
from .inference import (DEFAULT_G_CANDIDATES, ComparisonReport, GammaFit,
                        GCandidateFit, ModelFit, SelectGResult, compare_models,
                        fit_gamma_density, fit_gamma_mle, select_g)
from .models import (KernelModel, PRDRGParams, TrophicParams,
                     gen_clustered_angles, gen_trophic_levels, kernel_loglik,
                     prdrg_expected_edges, prdrg_loglik, prdrg_pair_probs,
                     prdrg_sample, trophic_edge_prob, trophic_expected_edges,
                     trophic_loglik, trophic_sample, weighted_trophic_logdensity)
from .spectral import (DegeneracyWarning, MagneticLaplacian, NumericalError,
                       PhaseAssignment, TrophicAssignment,
                       build_magnetic_laplacian, frustration,
                       magnetic_algorithm, quadratic_form, smallest_eigenpair,
                       trophic_algorithm, trophic_incoherence)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "EdgeListError", "GraphStructureError", "ParseResult",
    "SymmetrizedView", "apply_ordering", "is_weakly_connected", "largest_scc",
    "largest_wcc", "parse_edge_list", "serialize_edge_list",
    "serialize_ordering", "symmetrize",
    "DegeneracyWarning", "MagneticLaplacian", "NumericalError",
    "PhaseAssignment", "TrophicAssignment", "build_magnetic_laplacian",
    "frustration", "magnetic_algorithm", "quadratic_form",
    "smallest_eigenpair", "trophic_algorithm", "trophic_incoherence",
    "KernelModel", "PRDRGParams", "TrophicParams", "gen_clustered_angles",
    "gen_trophic_levels", "kernel_loglik", "prdrg_expected_edges",
    "prdrg_loglik", "prdrg_pair_probs", "prdrg_sample", "trophic_edge_prob",
    "trophic_expected_edges", "trophic_loglik", "trophic_sample",
    "weighted_trophic_logdensity",
    "DEFAULT_G_CANDIDATES", "ComparisonReport", "GammaFit", "GCandidateFit",
    "ModelFit", "SelectGResult", "compare_models", "fit_gamma_density",
    "fit_gamma_mle", "select_g",
    "__version__",
]
