"""Differentiable SVD with finite gradients under duplicate singular values.

The backward pass solves the 2x2 linear system relating singular-subspace
differentials per index pair. Under duplicate singular values that system is
singular; the `inv` mode replaces the blowing-up coefficients with the
minimum-norm (pseudoinverse) solution, which stays finite and keeps the
off-diagonal gradient mass the classical formula destroys. Baseline modes
(`exact`, `tf`, `clip`, `taylor`) are provided for comparison, along with a
reverse-mode tape, singular value thresholding, finite-difference and
double-precision gradient oracles, a gradient-efficacy benchmark, and
unrolled ADMM / proximal-gradient completion demos.
"""

from .backward import AuxMatrices, GradMode, StabilityParams, build_aux, classify_pairs, svd_vjp
from .experiments import (
    CellStats,
    EfficacyReport,
    Scenario,
    TrainingLog,
    UnrolledConfig,
    build_admm_tape,
    build_pgd_tape,
    generate_scenario,
    make_completion_dataset,
    run_efficacy,
    train_unrolled,
    unrolled_admm_forward,
    unrolled_pgd_forward,
)
from .linalg import SvdFactors, svd
from .oracle import FdSpec, finite_difference, reference_gradient
from .svt import SvtCache, ThresholdSpec, kept_mask, svt_vjp
from .tape import GradientSet, Node, Tape

__version__ = "0.1.0"

__all__ = [
    "AuxMatrices",
    "CellStats",
    "EfficacyReport",
    "FdSpec",
    "GradMode",
    "GradientSet",
    "Node",
    "Scenario",
    "StabilityParams",
    "SvdFactors",
    "SvtCache",
    "Tape",
    "ThresholdSpec",
    "TrainingLog",
    "UnrolledConfig",
    "build_admm_tape",
    "build_aux",
    "build_pgd_tape",
    "classify_pairs",
    "finite_difference",
    "generate_scenario",
    "kept_mask",
    "make_completion_dataset",
    "reference_gradient",
    "run_efficacy",
    "svd",
    "svd_vjp",
    "svt_vjp",
    "train_unrolled",
    "unrolled_admm_forward",
    "unrolled_pgd_forward",
    "__version__",
]
