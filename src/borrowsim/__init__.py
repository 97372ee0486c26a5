"""Robust mixture priors for borrowing external data, and the frequentist
and Bayesian operating characteristics of the resulting trial designs."""

from .gaussian import SufficientStat
from .priors import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
)
from .diagnostics import bimodality_map
from .scenarios import (
    HybridScenario,
    OCRow,
    OneArmScenario,
    SweetSpot,
    TreatmentPrior,
)
from .onearm import one_arm_rmse, one_arm_tie_exact
from .hybrid import calibrated_power_no_borrowing

__version__ = "0.1.0"
