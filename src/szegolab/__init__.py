"""szegolab: numerics for the mutual-information rate of integrated
stationary Gaussian inputs observed through additive white noise.

The package computes the sampled rate (1/T) * (1/2) log det(I + A) from exact
Gram coefficients of the input autocovariance, compares it against its
spectral-integral limit, and exposes the full asymptotic-equivalence tool set
used to certify the convergence: circulant companions, norm and trace-power
diagnostics, constructive polynomial sandwiches of log(1+x), circulant
power-sum identities, and a Monte-Carlo oracle for the analytic pipeline.
"""

from .errors import (
    AsymmetryError,
    ConvergenceFailure,
    DegreeTooLow,
    DomainExceeded,
    FactorizationFailure,
    NonConvergedQuadrature,
    NotPositiveDefinite,
    NumericalError,
    QuadratureFailure,
    SzegolabError,
    UsageError,
)
from .gram import (
    GramSequence,
    SamplingGrid,
    circulant_matrix,
    gamma_sequence,
    toeplitz_matrix,
)
from .mc import (
    PathBatch,
    empirical_gram,
    noise_variance_ratio,
    read_batch,
    sample_paths,
    write_batch,
)
from .models import (
    ModelKind,
    SpectralModel,
    abs_acf_integral,
    acf_eval,
    psd_eval,
    spectral_functional,
)
from .spectra import (
    NormReport,
    SpectrumResult,
    circulant_eigs,
    mi_levinson,
    mi_logdet,
    mi_schur,
    norm_report,
    psd_alignment_sup,
    toeplitz_eigs,
    toeplitz_traces,
    trace_power,
)
from .szego import (
    DEFAULT_SCHEDULE,
    RATE_COLUMNS,
    ConvergenceSchedule,
    PowerSumResult,
    RatePoint,
    RateReport,
    RefinementReport,
    SandwichPair,
    default_domain_max,
    power_sum_check,
    rate_convergence,
    refinement_stability,
    sandwich_polynomials,
    sandwich_rate_bounds,
)

__version__ = "1.0.0"

__all__ = [
    "SzegolabError",
    "UsageError",
    "NumericalError",
    "NonConvergedQuadrature",
    "QuadratureFailure",
    "AsymmetryError",
    "ConvergenceFailure",
    "NotPositiveDefinite",
    "DegreeTooLow",
    "DomainExceeded",
    "FactorizationFailure",
    "ModelKind",
    "SpectralModel",
    "acf_eval",
    "psd_eval",
    "abs_acf_integral",
    "spectral_functional",
    "SamplingGrid",
    "GramSequence",
    "gamma_sequence",
    "toeplitz_matrix",
    "circulant_matrix",
    "SpectrumResult",
    "NormReport",
    "circulant_eigs",
    "toeplitz_eigs",
    "mi_logdet",
    "mi_levinson",
    "mi_schur",
    "toeplitz_traces",
    "trace_power",
    "norm_report",
    "psd_alignment_sup",
    "ConvergenceSchedule",
    "DEFAULT_SCHEDULE",
    "SandwichPair",
    "RatePoint",
    "RateReport",
    "RATE_COLUMNS",
    "RefinementReport",
    "PowerSumResult",
    "rate_convergence",
    "refinement_stability",
    "sandwich_polynomials",
    "sandwich_rate_bounds",
    "power_sum_check",
    "default_domain_max",
    "PathBatch",
    "sample_paths",
    "empirical_gram",
    "noise_variance_ratio",
    "write_batch",
    "read_batch",
    "__version__",
]
