"""Robust mixture priors for borrowing external data, and the frequentist
and Bayesian operating characteristics of the resulting trial designs."""

from .gaussian import (
    GaussianComponent,
    GaussianMixture,
    SufficientStat,
    conjugate_update,
    gaussian_cdf,
    log_marginal_likelihood,
    marginal_likelihood,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
)
from .priors import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
    build_informative,
    build_mixture_prior,
    resolve_location,
    t_scale_matching_variance,
    t_to_normal_mixture,
    unit_information_variance,
)
from .inference import (
    PosteriorSummary,
    posterior,
    posterior_mean,
    prob_t_not_better,
    tail_probability,
)
from .diagnostics import (
    BimodalityReport,
    bimodality_map,
    bimodality_ratio,
    find_modes,
    hpd_disjoint,
    obm,
)
from .scenarios import (
    DesignPrior,
    HybridScenario,
    Informative,
    OCRow,
    OneArmScenario,
    RobustMixture,
    SweetSpot,
    TreatmentPrior,
    UnitInfo,
)
from .onearm import (
    one_arm_power,
    one_arm_power_exact,
    one_arm_rejection_region,
    one_arm_rmse,
    one_arm_tie,
    one_arm_tie_exact,
)
from .hybrid import (
    average_power,
    average_tie,
    calibrated_power_no_borrowing,
    delta_restricted_summary,
    hybrid_power,
    hybrid_power_exact,
    hybrid_tie,
    hybrid_tie_exact,
    no_borrowing_power,
    sweet_spot,
)

__version__ = "0.1.0"
