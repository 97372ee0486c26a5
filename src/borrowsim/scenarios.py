"""Scenario records, result rows, reproducible RNG streams and the
values one sweep run shares among its threads.

A scenario freezes everything a sweep needs: true parameters, external
data, prior construction policy, decision level, replication budget and
the seed. Draw streams are counter-based (Philox) and keyed by
(seed, scenario id, stream role), so any cell can regenerate its draws
independently of execution order, and the same base draws are shared
across the bias and weight axes (common random numbers keep the
operating-characteristic curves smooth and their differences
low-variance).
"""

from __future__ import annotations

import enum
import hashlib
import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .gaussian import SufficientStat
from .priors import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
)

__all__ = [
    "OneArmScenario",
    "HybridScenario",
    "TreatmentPrior",
    "Informative",
    "RobustMixture",
    "UnitInfo",
    "DesignPrior",
    "OCRow",
    "SweetSpot",
    "substream",
    "base_normals",
    "base_uniforms",
    "sorted_normals",
]

# Default one-sided level and replication count, of scenarios and scenario files.
ALPHA = 0.025
REPS = 1_000_000


class TreatmentPrior(enum.Enum):
    """Prior for the treatment arm in a hybrid-control trial."""

    FLAT = "flat"
    UNIT_INFO_AT_EXTERNAL_MEAN = "unit_info_at_external_mean"


@dataclass(frozen=True)
class Informative:
    """Design prior equal to the informative component."""


@dataclass(frozen=True)
class RobustMixture:
    """Design prior equal to the full mixture with the given weight."""

    weight: float = 0.5


@dataclass(frozen=True)
class UnitInfo:
    """Design prior equal to the robust (vague) component alone."""


DesignPrior = Informative | RobustMixture | UnitInfo


def _check_common(alpha, reps, seed):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if int(reps) != reps or reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")
    if int(seed) != seed:
        raise ValueError(f"seed must be an integer, got {seed!r}")


@dataclass(frozen=True)
class OneArmScenario:
    """Single-arm trial testing whether the mean exceeds ``null_mean``.

    A bias is (external mean - null mean): ``external_at`` sets the
    external mean to null_mean + bias.
    """

    null_mean: float
    alt_mean: float
    n: int
    sigma: float
    external: SufficientStat
    prior: MixturePriorSpec
    seed: int
    alpha: float = ALPHA
    reps: int = REPS
    scenario_id: str = "one-arm"

    def __post_init__(self):
        _check_common(self.alpha, self.reps, self.seed)
        if not self.alt_mean > self.null_mean:
            raise ValueError("alt_mean must exceed null_mean")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")
        # The prior spec always refers to this scenario's external data.
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "prior", replace(self.prior, external=self.external))

    @property
    def se(self) -> float:
        return self.sigma / math.sqrt(self.n)

    @property
    def sd_ext(self) -> float:
        """Sd of the informative component, sigma / sqrt(n_ext)."""
        return self.external.sigma / math.sqrt(self.external.n)

    def external_at(self, bias: float) -> SufficientStat:
        return SufficientStat(self.null_mean + bias, self.external.n, self.external.sigma)


@dataclass(frozen=True)
class HybridScenario:
    """Two-arm trial borrowing external data for the control arm.

    A bias is (true control mean - external mean): ``external_at`` sets
    the external mean to control_mean - bias. ``bias_grid``, the sweep's
    bias axis, is the grid ``sweet_spot`` scans. Power is evaluated at
    treatment - control = ``effect``.
    """

    n_t: int
    n_c: int
    sigma: float
    external: SufficientStat
    prior: MixturePriorSpec
    effect: float
    seed: int
    alpha: float = ALPHA
    reps: int = REPS
    treatment_prior: TreatmentPrior = TreatmentPrior.FLAT
    bias_grid: tuple[float, ...] = ()
    control_mean: float = 0.0
    scenario_id: str = "hybrid"

    def __post_init__(self):
        _check_common(self.alpha, self.reps, self.seed)
        if isinstance(self.prior.location, NullBoundary):
            raise ValueError(
                "the null boundary is a line in a hybrid trial; "
                "locate the robust component at the external or current mean"
            )
        for name in ("n_t", "n_c"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")
        if not self.effect > 0:
            raise ValueError(f"effect must be > 0, got {self.effect!r}")
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "bias_grid", tuple(float(b) for b in self.bias_grid))
        object.__setattr__(self, "prior", replace(self.prior, external=self.external))

    @property
    def se_c(self) -> float:
        return self.sigma / math.sqrt(self.n_c)

    @property
    def se_t(self) -> float:
        return self.sigma / math.sqrt(self.n_t)

    @property
    def se_diff(self) -> float:
        return self.sigma * math.sqrt(1.0 / self.n_t + 1.0 / self.n_c)

    @property
    def sd_ext(self) -> float:
        return self.external.sigma / math.sqrt(self.external.n)

    def external_at(self, bias: float) -> SufficientStat:
        return SufficientStat(self.control_mean - bias, self.external.n, self.external.sigma)


@dataclass(frozen=True)
class OCRow:
    """One operating-characteristics record; None marks an unset metric."""

    scenario_id: str
    trial: str
    location: str
    form: str
    n_robust: float | None
    w: float
    bias: float
    tie: float | None = None
    power: float | None = None
    power_calibrated: float | None = None
    rmse_std: float | None = None
    w_tilde: float | None = None
    obm: float | None = None
    reps: int = 0
    seed: int = 0


@dataclass(frozen=True)
class SweetSpot:
    """Bias interval where borrowing beats the plain test on both counts.

    ``empty`` marks an infeasible scan; ``contiguous`` is False when the
    feasible grid cells did not form a single run (the widest run is then
    reported). ``curve`` holds the (TIE, power) pairs of the scan, one per
    grid bias.
    """

    lower: float
    upper: float
    max_power: float
    argmax_bias: float
    empty: bool
    contiguous: bool = True
    curve: tuple[tuple[float, float], ...] = field(default=(), compare=False, repr=False)

    @property
    def width(self) -> float:
        return 0.0 if self.empty else self.upper - self.lower


LOCATION_NAMES = {
    ExternalMean: "external_mean", NullBoundary: "null_boundary", CurrentMean: "current_mean",
}


def describe_location(policy) -> str:
    return LOCATION_NAMES.get(type(policy), type(policy).__name__)


def describe_form(form) -> str:
    if isinstance(form, Normal):
        return "normal"
    if isinstance(form, StudentT):
        return f"t(df={form.df:g},scale={form.scale:g},k={form.k})"
    return type(form).__name__


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(part).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *path) -> np.random.Generator:
    """Independent counter-based generator for (seed, *path).

    Philox is counter-based: the r-th variate of a stream is a pure
    function of (key, r), so per-replication values are reproducible and
    independent of how work is scheduled across threads.
    """
    entropy = [_token(seed)] + [_token(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@lru_cache(maxsize=32)
def base_normals(seed: int, scenario_id: str, role: str, reps: int) -> np.ndarray:
    """Shared standard-normal draws for one scenario stream (read-only)."""
    z = substream(seed, scenario_id, role).standard_normal(reps)
    z.flags.writeable = False
    return z


@lru_cache(maxsize=4)
def sorted_normals(seed: int, scenario_id: str, role: str, reps: int) -> np.ndarray:
    """``base_normals`` of one stream in ascending order (read-only), for
    the routes that count draws in a region rather than visit them."""
    z = np.sort(base_normals(seed, scenario_id, role, reps))
    z.flags.writeable = False
    return z


@lru_cache(maxsize=32)
def base_uniforms(seed: int, scenario_id: str, role: str, reps: int) -> np.ndarray:
    u = substream(seed, scenario_id, role).random(reps)
    u.flags.writeable = False
    return u


# The run each sweep worker thread works for (``join_run``).
_thread_run = threading.local()
_run_lock = threading.Lock()


def join_run(run: dict) -> None:
    """Pool initializer: the thread's ``_run_shared`` values go to ``run``."""
    _thread_run.run = run


def _run_shared(key, compute):
    """``compute()`` once per ``key`` among the threads of a run, which
    drops the read-only values (a hybrid stream's draw layout) at its end,
    so unlike the base draws no later run finds them; outside a run, on
    every call."""
    run = getattr(_thread_run, "run", None)
    if run is None:
        return compute()
    with _run_lock:
        if key not in run:
            run[key] = compute()
    return run[key]
