"""Construction of the robust two-part mixture prior, and its array form.

The prior is ``w * informative + (1 - w) * robust``. The informative part
comes straight from the external data; the robust part is configured by a
location policy, a dispersion (effective sample size or explicit
variance) and a functional form. A heavy-tailed robust component is
represented as an equal-weight bank of normals whose precisions sit at
Gamma quantiles, so the whole prior stays a normal mixture and posterior
updates stay closed-form. The exact-t routes use a Gauss-Laguerre bank
over the same Gamma precision instead.

``prior_bank_params`` is the one construction of the components, of
which ``build_mixture_prior`` and ``t_to_normal_mixture`` are mixture
views; ``AxisBank`` holds it along an axis of external means, the one
form the engines hand the posterior kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv, roots_genlaguerre

from .gaussian import GaussianComponent, GaussianMixture, SufficientStat
from .inference import posterior_bank_into, work_array

__all__ = [
    "ExternalMean",
    "NullBoundary",
    "CurrentMean",
    "LocationPolicy",
    "Normal",
    "StudentT",
    "RobustForm",
    "MixturePriorSpec",
    "build_informative",
    "unit_information_variance",
    "resolve_location",
    "t_to_normal_mixture",
    "t_laguerre_bank",
    "t_scale_matching_variance",
    "build_mixture_prior",
    "prior_bank_params",
    "robust_location",
    "AxisBank",
]


@dataclass(frozen=True)
class ExternalMean:
    """Center the robust component at the observed external mean."""


@dataclass(frozen=True)
class NullBoundary:
    """Center the robust component at the null-hypothesis boundary.

    One-arm trials only: for hybrid-control trials the boundary between
    the hypotheses is a line, not a point.
    """

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"null boundary must be finite, got {self.value!r}")


@dataclass(frozen=True)
class CurrentMean:
    """Center the robust component at the observed current (control) mean.

    Makes the prior data-dependent; it is resolved per analyzed dataset.
    """


LocationPolicy = ExternalMean | NullBoundary | CurrentMean


@dataclass(frozen=True)
class Normal:
    """Robust component is a single normal."""


@dataclass(frozen=True)
class StudentT:
    """Robust component is a location-scale t, approximated by k normals.

    ``scale`` follows the convention that df -> inf recovers
    N(location, scale**2); the exact t variance is scale**2 * df/(df-2).
    """

    df: float = 3.0
    scale: float = 1.0
    k: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.df) and self.df > 2.0):
            raise ValueError(f"df must be > 2 for a finite variance, got {self.df!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be > 0, got {self.scale!r}")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))


RobustForm = Normal | StudentT


@dataclass(frozen=True)
class MixturePriorSpec:
    """Everything needed to materialize the mixture prior.

    Dispersion of a Normal robust component may be given either as
    ``n_robust`` (effective sample size; variance sigma**2 / n_robust) or
    as an explicit ``robust_variance``, but not both. A StudentT form
    carries its own scale and ignores these two fields.
    """

    informative_weight: float
    external: SufficientStat
    location: LocationPolicy = field(default_factory=ExternalMean)
    form: RobustForm = field(default_factory=Normal)
    n_robust: float | None = 1.0
    robust_variance: float | None = None

    def __post_init__(self):
        w = self.informative_weight
        if not (math.isfinite(w) and 0.0 <= w <= 1.0):
            raise ValueError(f"informative weight must be in [0, 1], got {w!r}")
        if isinstance(self.form, Normal):
            if self.robust_variance is not None:
                if self.n_robust is not None:
                    raise ValueError(
                        "give either n_robust or robust_variance, not both"
                    )
                if not (math.isfinite(self.robust_variance) and self.robust_variance > 0):
                    raise ValueError(
                        f"robust_variance must be > 0, got {self.robust_variance!r}"
                    )
            else:
                if self.n_robust is None:
                    raise ValueError("a Normal robust component needs a dispersion")
                if not (math.isfinite(self.n_robust) and self.n_robust > 0):
                    raise ValueError(f"n_robust must be > 0, got {self.n_robust!r}")

    def resolved_robust_variance(self) -> float:
        """Variance of a Normal robust component."""
        if not isinstance(self.form, Normal):
            raise TypeError("robust variance is only defined for the Normal form")
        if self.robust_variance is not None:
            return self.robust_variance
        return self.external.sigma ** 2 / self.n_robust

    def effective_n_robust(self) -> float | None:
        """Effective sample size of a Normal robust component, if defined."""
        if not isinstance(self.form, Normal):
            return None
        if self.robust_variance is not None:
            return self.external.sigma ** 2 / self.robust_variance
        return self.n_robust


def build_informative(external: SufficientStat) -> GaussianComponent:
    """Informative component: flat-prior posterior of the external data."""
    return GaussianComponent(external.mean, external.sigma / math.sqrt(external.n))


def unit_information_variance(sigma: float) -> float:
    """Prior variance worth exactly one observation.

    The Fisher information of a single normal observation with known sd is
    1/sigma**2, so the unit-information variance is sigma**2.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    return sigma * sigma


def resolve_location(
    policy: LocationPolicy,
    external: SufficientStat,
    current: SufficientStat | None = None,
) -> float:
    """Concrete robust-component center under the given policy."""
    if isinstance(policy, ExternalMean):
        return external.mean
    if isinstance(policy, NullBoundary):
        return policy.value
    if isinstance(policy, CurrentMean):
        if current is None:
            raise ValueError(
                "CurrentMean location needs the current data to resolve"
            )
        return current.mean
    raise TypeError(f"unknown location policy {policy!r}")


def gamma_precision_quantiles(df: float, k: int) -> np.ndarray:
    """Precision grid for the t approximation.

    Quantiles of Gamma(shape df/2, rate df/2) at the midpoint levels
    (i - 0.5)/k, i = 1..k. Midpoints avoid the undefined 0 and 1 levels.
    ``gammaincinv(a, q) * scale`` is what ``scipy.stats.gamma.ppf(q, a,
    scale=scale)`` evaluates, bit for bit, without importing scipy.stats.
    """
    levels = (np.arange(1, k + 1) - 0.5) / k
    lam = gammaincinv(df / 2.0, levels) * (2.0 / df)
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError(f"Gamma quantiles failed for df={df!r}")
    return lam


# Gauss-Laguerre nodes of the exact-t bank.
EXACT_T_NODES = 40


@lru_cache(maxsize=32)
def _laguerre_rule(nodes: int, alpha: float):
    x, wt = roots_genlaguerre(nodes, alpha)
    with np.errstate(divide="ignore"):
        return x, np.log(wt)


def t_laguerre_bank(form: StudentT, shift: float, nodes: int = EXACT_T_NODES):
    """The exact t as a normal bank: precisions (in scale**-2) and log weights.

    Integrates over the t's Gamma(df/2, df/2) precision lambda with
    generalized Gauss-Laguerre nodes u_i, alpha = df/2 - 1/2 absorbing the
    sqrt(lambda) of a normal likelihood, and the rate shifted to
    c = df/2 + b, b = shift**2 / (2 scale**2), absorbing the likelihood's
    exp(-b lambda) at distance ``shift`` from the location:
    lambda_i = u_i / c, log weight log w_i - log(u_i)/2 + (df/2) log(df/2)
    - (df/2) log c - lgamma(df/2) + b lambda_i.
    """
    half = 0.5 * form.df
    x, log_wt = _laguerre_rule(nodes, half - 0.5)
    b = shift * shift / (2.0 * form.scale**2)
    c = half + b
    lam = x / c
    return lam, (
        log_wt - 0.5 * np.log(x)
        + half * math.log(half) - half * math.log(c) - math.lgamma(half)
        + b * lam
    )


def t_to_normal_mixture(mu: float, form: StudentT) -> GaussianMixture:
    """Equal-weight normal bank approximating a location-scale t.

    A t with df degrees of freedom is a normal scale mixture whose
    precision is Gamma(df/2, df/2) distributed; component i gets variance
    scale**2 / lambda_i with lambda_i the (i - 0.5)/k Gamma quantile.
    Component variances are strictly decreasing in i.

    The bank tracks the t only out to about its widest component,
    scale / sqrt(lambda_min) (about 6.5 * scale for df 3, k 100). Beyond
    that its tail is normal: at df 3, k 100, scale 1 and w 0.5 with
    external sd 1/sqrt(15), the one-arm error rate under conflict
    matches the exact t's to 2e-5 at 30 external sds (0.0324), stalls
    at 0.0305 at 45 and 0.0306 at 60, then climbs (0.0363 at 120, 0.097
    at 480), while the exact t's keeps falling toward 0.025 like
    1/conflict. Limits in the conflict are therefore checked on the
    exact-t route, whose Gauss-Laguerre bank (``t_laguerre_bank``) is
    exact for the t up to a node-count residual that it checks.
    """
    return _mixture(np.full(form.k, mu), *_robust_block(form))


def t_scale_matching_variance(variance: float, df: float) -> float:
    """Scale making the exact t variance equal ``variance``.

    Used by the scale-sensitivity sweeps; the default convention instead
    matches the df -> inf normal limit.
    """
    if not (variance > 0 and df > 2):
        raise ValueError("need variance > 0 and df > 2")
    return math.sqrt(variance * (df - 2.0) / df)


def _robust_block(form: StudentT, t_shift: float | None = None, t_nodes: int = EXACT_T_NODES):
    """A t robust component as a normal bank: its variances and its log
    weights within the block. The k-point Gamma-quantile bank, or with
    ``t_shift`` the exact t's Gauss-Laguerre bank (``t_laguerre_bank``)."""
    if t_shift is None:
        lam = gamma_precision_quantiles(form.df, form.k)
        log_block = np.full(form.k, -math.log(form.k))
    else:
        lam, log_block = t_laguerre_bank(form, t_shift, t_nodes)
    return form.scale**2 / lam, log_block


def prior_bank_params(
    spec: MixturePriorSpec,
    external: SufficientStat,
    t_shift: float | None = None,
    t_nodes: int = EXACT_T_NODES,
):
    """Array form of the prior for the vectorized engines.

    Returns ``(variances, log_weights, informative_mean, robust_location)``
    where ``robust_location`` is None when the location policy tracks the
    observed current mean (the engines then substitute it per draw).
    With ``t_shift`` set, a t robust component is the exact t as a
    Gauss-Laguerre bank rate-shifted by that conflict
    (``t_laguerre_bank``, ``t_nodes`` nodes) instead of the k-point
    quantile bank.
    """
    informative = build_informative(external)
    w = spec.informative_weight
    if isinstance(spec.form, Normal):
        block, log_block = np.array([spec.resolved_robust_variance()]), np.zeros(1)
    else:
        block, log_block = _robust_block(spec.form, t_shift, t_nodes)
    variances = np.concatenate(([informative.variance], block))
    with np.errstate(divide="ignore"):
        log_weights = np.concatenate(([np.log(w)], np.log(1.0 - w) + log_block))
    return variances, log_weights, informative.mean, robust_location(spec, external)


def robust_location(spec: MixturePriorSpec, external: SufficientStat) -> float | None:
    """Robust-component location of the array form: None when the policy
    tracks the observed current mean (the engines substitute it per draw)."""
    if isinstance(spec.location, CurrentMean):
        return None
    return resolve_location(spec.location, external)


class AxisBank:
    """The prior at each of ``externals`` (differing only in their mean) in
    the engines' array form: one ``prior_bank_params`` call's variances and
    log weights (the same at every point, so one kernel call serves all),
    and per point ``info``, the informative mean, and ``loc``, the robust
    location (None when it tracks the observed mean). With ``weights``, point
    p's informative weight is weights[p], and ``log_w`` is (J, P), a column
    per point (a ``prior_bank_params`` call per distinct weight)."""

    def __init__(self, spec: MixturePriorSpec, externals, t_shift=None, t_nodes=EXACT_T_NODES,
                 weights=None):
        self.variances, self.log_w, _, loc = prior_bank_params(spec, externals[0], t_shift, t_nodes)
        if weights is not None:
            distinct, at = np.unique(weights, return_inverse=True)
            log_w = [prior_bank_params(replace(spec, informative_weight=float(w)), externals[0], t_shift,
                                       t_nodes)[1] for w in distinct]
            self.log_w = np.stack(log_w, axis=1)[:, at.ravel()]
        self.info = np.array([e.mean for e in externals])  # the informative component's mean
        self.loc = None if loc is None else np.array([robust_location(spec, e) for e in externals])
        self.column = (np.concatenate((self.info, np.full(self.variances.size - 1, self.loc[0])))
                       if self.loc is not None and len(externals) == 1 else None)

    def means(self, point, ybar, out):
        """Component means into ``out`` (J, R), column r at point[r] (0 if
        None) and ybar[r]; the (J,) ``column`` if it is set."""
        if self.column is not None:
            return self.column
        point = 0 if point is None else point
        out[0] = self.info[point]
        out[1:] = ybar if self.loc is None else self.loc[point]
        return out

    def kernel(self, point, ybar, n, sigma):
        """``posterior_bank_into`` at observed means ``ybar`` under the prior
        at point[r]: ``(W, pm, pv)``, W and pm in this thread's "W" and "pm"
        buffers, the means (and per-point log weights) laid out in its
        "means" (and "log_w") buffer."""
        J, R = self.variances.size, ybar.size
        W, pm = work_array("W", J, R), work_array("pm", J, R)
        means = self.means(point, ybar, work_array("means", J, R))
        log_w = self.log_w if self.log_w.ndim == 1 else np.take(
            self.log_w, point, axis=1, out=work_array("log_w", J, R))
        return W, pm, posterior_bank_into(means, self.variances, log_w, ybar, n, sigma, W, pm)


def _mixture(means, variances, log_weights) -> GaussianMixture:
    comps = tuple(GaussianComponent(float(m), math.sqrt(v)) for m, v in zip(means, variances))
    return GaussianMixture(comps, tuple(np.exp(log_weights)))


def build_mixture_prior(
    spec: MixturePriorSpec,
    current: SufficientStat | None = None,
) -> GaussianMixture:
    """The prior as a mixture: components (mean, sqrt(variance)) and weights
    exp(log weight) of ``prior_bank_params``, component 0 the informative
    one, and a current-mean location resolved against ``current``."""
    variances, log_weights, info_mean, _ = prior_bank_params(spec, spec.external)
    loc = resolve_location(spec.location, spec.external, current)
    return _mixture(np.concatenate(([info_mean], np.full(variances.size - 1, loc))), variances, log_weights)
