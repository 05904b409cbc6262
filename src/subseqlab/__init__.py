"""Numerical laboratory for subsequence-embedding partition functions."""

from .core import BitString, Disorder, DisorderLaw, Seed
from .partition import (
    ExplicitMatrix,
    IidBernoulliHalf,
    IidGamma,
    LogDPTable,
    RankOneIndicator,
    count_common_subsequences,
    count_embeddings_exact,
    embedding_from_skips,
    greedy_embed,
    log_count_embeddings,
    skip_vector_of,
)
from .annealed import (
    AnnealedPlantedSolution,
    DivergentSeriesError,
    barZ_exact,
    null_annealed,
    pair_mgf_closed_form,
    pair_mgf_series,
    phi_of_rho,
    planted_annealed,
    rho_star,
    strict_weak_value,
    x_of_rho,
    y_of_rho,
    z_of_rho,
)
from .capacity import (
    beta_alpha,
    dgv_lower_bound,
    log_explicit_lower_bound,
    log_kappa,
    skip_vector_lower_bound,
    upper_bound_uniform_capacity,
)
from .montecarlo import CurveSpec, FreeEnergyEstimate, curve, estimate_polymer, estimate_quenched, mutual_info_point
from .alignment import (
    AlignmentParams,
    Partition,
    displacement,
    is_good,
    local_alignment,
    standardize,
    total_alignment_ind,
    total_alignment_std,
)

__version__ = "0.1.0"
