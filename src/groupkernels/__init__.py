"""Multi-task kernel interpolation and regularized learning with grouped
(sum of block p-norms) coefficient norms, plus numeric certification of
the kernel assumptions that make the finite-expansion reductions exact.
"""

from .admissibility import (
    CertificationConfig,
    CertificationReport,
    ScanResult,
    certify,
    det_tfamily_closed_form,
    lebesgue_at,
    lebesgue_scan,
)
from .blocklinalg import (
    BlockVector,
    GramSystem,
    block_inverse_2x2,
    gram_apply,
    gram_assemble,
    gram_solve,
    lp1_norm,
)
from .errors import (
    DataFormatError,
    DomainError,
    DuplicateCenterError,
    GroupKernelsError,
    NonconvergenceError,
    OrderError,
    RankError,
    ShapeError,
    SingularError,
)
from .kernels import (
    OperatorKernel,
    ScalarKernelSpec,
    TaskCoupling,
    brownian_bridge,
    combination,
    custom,
    eval_scalar,
    exponential,
    kernel_from_dict,
    kernel_to_dict,
    tfamily,
    wendland,
)
from .solvers import (
    FitModel,
    LearnConfig,
    block_soft_threshold,
    expansion_sup_norm,
    fit_admm,
    fit_regularized,
    group_basis_pursuit,
    min_norm_interpolant,
    model_from_dict,
    model_to_dict,
    predict,
    predict_many,
)

__version__ = "0.1.0"
