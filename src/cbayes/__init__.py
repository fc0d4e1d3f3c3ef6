"""Random-series priors with log-concave coefficient laws, finite
dimensional Bayesian posteriors for linear and deconvolution models, and
numerical well-posedness checks (stability in the data, truncation
consistency, convexity inequalities, exponential integrability)."""

__version__ = "0.11.0"

from .measures1d import (
    Distribution1D,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Logistic,
    Uniform,
    check_log_concavity,
    interval_probability,
)
from .series_prior import (
    AlgebraicFourier,
    AlgebraicSequence,
    ExplicitSchedule,
    FieldSample,
    FourierCircle,
    Hierarchical,
    IID,
    SeriesPrior,
    admissibility_check,
    estimate_exp_moment,
    evaluate_field,
    marginal_convexity_test,
    project,
    sample_coefficients,
    sample_field,
)
from .forward_models import (
    AlgebraicMultipliers,
    DeconvolutionModel,
    LinearModel,
    equispaced_points,
)
from .likelihood import (
    CustomPotential,
    GaussianAdditive,
    MultiplicativeUniform,
    assumption_audit,
)
from .posterior import (
    PosteriorSpec,
    ProductPrior,
    hellinger,
    map_estimate_l1,
    normalization,
    total_variation,
    weighted_probability,
)
from .experiments import EXPERIMENT_NAMES, default_config, run_experiment

__all__ = [
    "__version__",
    "Distribution1D",
    "Gaussian",
    "Exponential",
    "Laplace",
    "Logistic",
    "Gamma",
    "Uniform",
    "check_log_concavity",
    "interval_probability",
    "FourierCircle",
    "AlgebraicFourier",
    "AlgebraicSequence",
    "ExplicitSchedule",
    "IID",
    "Hierarchical",
    "SeriesPrior",
    "FieldSample",
    "sample_coefficients",
    "sample_field",
    "evaluate_field",
    "project",
    "admissibility_check",
    "estimate_exp_moment",
    "marginal_convexity_test",
    "LinearModel",
    "DeconvolutionModel",
    "AlgebraicMultipliers",
    "equispaced_points",
    "GaussianAdditive",
    "MultiplicativeUniform",
    "CustomPotential",
    "assumption_audit",
    "ProductPrior",
    "PosteriorSpec",
    "normalization",
    "hellinger",
    "total_variation",
    "weighted_probability",
    "map_estimate_l1",
    "EXPERIMENT_NAMES",
    "default_config",
    "run_experiment",
]
