"""Multifidelity proper orthogonal decomposition.

Builds POD subspaces from a few high-fidelity snapshots plus many cheap
surrogate snapshots, by minimizing a control-variate estimate of the
expected projection error.  See the README for the CLI and study tools.
"""

from .adaptive import AdaptiveStep, AdaptiveTrace, mfpod_adaptive
from .core import Basis, Metric, SnapshotSet, orthonormalize, project, validate_levels
from .estimator import Allocation, VarianceProfile, mf_mse, min_mse, optimal_alpha, usefulness
from .experiment import (
    MfpFileError,
    Reference,
    StudyConfig,
    StudyReport,
    allocate_budget,
    build_reference,
    generate_snapshot_files,
    read_snapshots,
    run_study,
    write_snapshots,
    write_study,
)
from .mfpod import MfBasis, estimate_profile, j_mf, jmf_plus, mfpod_fixed, select_dim
from .models import (
    AdvDiffConfig,
    ModelCosts,
    ModelPair,
    equispaced_parameters,
    fine_metric,
    make_model_pair,
    mass_matrix,
    prolong,
    sample_parameters,
    snapshot,
    solve_adv_diff,
)
from .pod import PodResult, pod
from .verify import (
    ConvergenceStudyResult,
    EigenSumStudy,
    convergence_study,
    eigenvalue_sum_mse,
    reference_matrix,
    subspace_alignment,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveStep",
    "AdaptiveTrace",
    "AdvDiffConfig",
    "Allocation",
    "Basis",
    "ConvergenceStudyResult",
    "EigenSumStudy",
    "Metric",
    "MfBasis",
    "MfpFileError",
    "ModelCosts",
    "ModelPair",
    "PodResult",
    "Reference",
    "SnapshotSet",
    "StudyConfig",
    "StudyReport",
    "VarianceProfile",
    "allocate_budget",
    "build_reference",
    "convergence_study",
    "eigenvalue_sum_mse",
    "equispaced_parameters",
    "estimate_profile",
    "fine_metric",
    "generate_snapshot_files",
    "j_mf",
    "jmf_plus",
    "make_model_pair",
    "mass_matrix",
    "mf_mse",
    "mfpod_adaptive",
    "mfpod_fixed",
    "min_mse",
    "optimal_alpha",
    "orthonormalize",
    "pod",
    "project",
    "prolong",
    "read_snapshots",
    "reference_matrix",
    "run_study",
    "sample_parameters",
    "select_dim",
    "snapshot",
    "solve_adv_diff",
    "subspace_alignment",
    "usefulness",
    "validate_levels",
    "write_snapshots",
    "write_study",
]
