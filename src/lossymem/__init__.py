"""Information rates of a lossy bosonic channel with correlated noise.

Closed-form mutual information for collective Gaussian inputs with an
entanglement parameter r, the paper's matrix chain as its reference, plus
independent verification oracles (moment formula, Monte Carlo simulation,
direct quadrature) and a sweep/optimize CLI.
"""
from .channel_model import (
    N_MIN,
    ChannelParams,
    ModelMatrices,
    assemble_model,
    build_beam_splitter,
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
    r_limit,
    single_use_kernels,
)
from .errors import (
    DegenerateBaseline,
    DimensionMismatch,
    GridTooCoarse,
    InvalidSpec,
    LossyChannelError,
    NotPositiveDefinite,
    PhotonBudgetExceeded,
)
from .information import (
    GainPoint,
    InfoBreakdown,
    input_entropy,
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
    rate_gain,
    rate_gains,
)
from .matrix_core import spd_logdet
from .oracle import (
    McConfig,
    MiEstimate,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
    quadrature_entropy_n1,
    sample_joint,
)

__version__ = "0.1.0"

__all__ = [
    "N_MIN",
    "ChannelParams",
    "ModelMatrices",
    "assemble_model",
    "build_beam_splitter",
    "build_input_kernel",
    "build_memory_kernel",
    "photon_budget",
    "r_limit",
    "single_use_kernels",
    "DegenerateBaseline",
    "DimensionMismatch",
    "GridTooCoarse",
    "InvalidSpec",
    "LossyChannelError",
    "NotPositiveDefinite",
    "PhotonBudgetExceeded",
    "GainPoint",
    "InfoBreakdown",
    "input_entropy",
    "joint_entropy",
    "mutual_information",
    "optimize_r",
    "output_entropy",
    "rate_gain",
    "rate_gains",
    "spd_logdet",
    "McConfig",
    "MiEstimate",
    "gaussian_mi_from_moments",
    "monte_carlo_mi",
    "pipeline_covariance",
    "quadrature_entropy_n1",
    "sample_joint",
    "__version__",
]
