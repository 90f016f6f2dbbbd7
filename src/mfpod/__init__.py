"""Multifidelity proper orthogonal decomposition.

Builds POD subspaces from a few high-fidelity snapshots plus many cheap
surrogate snapshots, by minimizing a control-variate estimate of the
expected projection error.  See the README for the CLI and study tools.
"""

from .adaptive import AdaptiveStep, AdaptiveTrace, mfpod_adaptive
from .core import Basis, Metric, SnapshotSet, orthonormalize, project
from .estimator import Allocation, VarianceProfile, optimal_alpha
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
from .mfpod import MfBasis, SnapshotSpan, estimate_profile, j_mf, mfpod_fixed, select_dim
from .models import AdvDiffConfig, ModelCosts, ModelPair, make_model_pair, sample_parameters, snapshot
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
    "SnapshotSpan",
    "StudyConfig",
    "StudyReport",
    "VarianceProfile",
    "allocate_budget",
    "build_reference",
    "convergence_study",
    "eigenvalue_sum_mse",
    "estimate_profile",
    "generate_snapshot_files",
    "j_mf",
    "make_model_pair",
    "mfpod_adaptive",
    "mfpod_fixed",
    "optimal_alpha",
    "orthonormalize",
    "pod",
    "project",
    "read_snapshots",
    "reference_matrix",
    "run_study",
    "sample_parameters",
    "select_dim",
    "snapshot",
    "subspace_alignment",
    "write_snapshots",
    "write_study",
]
