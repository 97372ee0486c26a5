"""Construction of the robust two-part mixture prior, and its array form.

The prior is ``w * informative + (1 - w) * robust``. The informative part
comes straight from the external data; the robust part is configured by a
location policy, a dispersion (effective sample size or explicit
variance) and a functional form. A heavy-tailed robust component is
represented as an equal-weight bank of normals whose precisions sit at
Gamma quantiles, so the whole prior stays a normal mixture and posterior
updates stay closed-form. The exact-t route uses a Gauss-Laguerre bank
over the same Gamma precision instead (``t_laguerre_bank``), which it
hands ``AxisBank`` as the robust ``block``.

``AxisBank`` is the one construction of the array form: it turns a spec
into the component variances and log weights, and holds them along an
axis of external means with the informative mean and the robust location
(``robust_location``) at each. It is the one form of the prior that the
engines and the bimodality map hand the posterior kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import SufficientStat, gauss_rule, is_integer
from .inference import posterior_bank, work_array

__all__ = [
    "ExternalMean",
    "NullBoundary",
    "CurrentMean",
    "LocationPolicy",
    "Normal",
    "StudentT",
    "RobustForm",
    "MixturePriorSpec",
    "t_laguerre_bank",
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


# Most normals in a t bank: every kernel chunk (``inference.bank_chunks``) then fits its budget.
MAX_T_COMPONENTS = 1000


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
        if not is_integer(self.k) or not 1 <= self.k <= MAX_T_COMPONENTS:
            raise ValueError(f"k must be an integer in [1, {MAX_T_COMPONENTS}], got {self.k!r}")
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


# Gauss-Laguerre nodes of the exact-t bank.
EXACT_T_NODES = 40


def t_laguerre_bank(form: StudentT, shift: float, nodes: int = EXACT_T_NODES):
    """The exact t as a normal bank: variances scale**2 / lambda_i and log
    weights, an ``AxisBank`` robust ``block``.

    Integrates over the t's Gamma(df/2, df/2) precision lambda with
    generalized Gauss-Laguerre nodes u_i, alpha = df/2 - 1/2 absorbing the
    sqrt(lambda) of a normal likelihood, and the rate shifted to
    c = df/2 + b, b = shift**2 / (2 scale**2), absorbing the likelihood's
    exp(-b lambda) at distance ``shift`` from the location:
    lambda_i = u_i / c, log weight log w_i - log(u_i)/2 + (df/2) log(df/2)
    - (df/2) log c - lgamma(df/2) + b lambda_i.
    """
    half = 0.5 * form.df
    x, wt = gauss_rule("laguerre", nodes, half - 0.5)
    with np.errstate(divide="ignore"):
        log_wt = np.log(wt)
    b = shift * shift / (2.0 * form.scale**2)
    c = half + b
    lam = x / c
    return form.scale**2 / lam, (
        log_wt - 0.5 * np.log(x)
        + half * math.log(half) - half * math.log(c) - math.lgamma(half)
        + b * lam
    )


def _robust_block(spec: MixturePriorSpec):
    """The robust component as a normal bank: its variances and its log
    weights within the block. One normal, or the k-point Gamma-quantile
    bank of a t (the cached ``gauss_rule("gamma", k, df)``)."""
    form = spec.form
    if isinstance(form, Normal):
        return np.array([spec.resolved_robust_variance()]), np.zeros(1)
    lam, _ = gauss_rule("gamma", form.k, form.df)
    return form.scale**2 / lam, np.full(form.k, -math.log(form.k))


def robust_location(spec: MixturePriorSpec, external: SufficientStat) -> float | None:
    """Robust-component location of the array form: the external mean, the
    null boundary, or None when the policy tracks the observed current
    mean (the engines substitute it per draw)."""
    policy = spec.location
    if isinstance(policy, ExternalMean):
        return external.mean
    if isinstance(policy, NullBoundary):
        return policy.value
    if isinstance(policy, CurrentMean):
        return None
    raise TypeError(f"unknown location policy {policy!r}")


class AxisBank:
    """The prior at each of ``externals`` (differing only in their mean) in
    the engines' array form: the component variances and log weights (the
    same at every point, so one kernel call serves all), and per point
    ``info``, the informative mean, and ``loc``, the robust location (None
    when it tracks the observed mean). The robust block is ``_robust_block``'s
    unless ``block`` gives its (variances, log weights). With ``weights``,
    point p's informative weight is weights[p], and ``log_w`` is (J, P), a
    column per point."""

    def __init__(self, spec: MixturePriorSpec, externals, weights=None, block=None):
        sd = externals[0].se  # the informative component's sd
        variances, log_block = _robust_block(spec) if block is None else block
        self.variances = np.concatenate(([sd * sd], variances))
        w = np.asarray(spec.informative_weight if weights is None else weights, dtype=float)
        outside = ~((0.0 <= w) & (w <= 1.0))  # NaN too, before its log warns
        if outside.any():
            raise ValueError(f"informative weight must be in [0, 1], got {float(w[outside][0])!r}")
        with np.errstate(divide="ignore"):
            self.log_w = np.concatenate((np.log(w)[None], np.add.outer(log_block, np.log(1.0 - w))))
        loc = robust_location(spec, externals[0])
        self.info = np.array([e.mean for e in externals])  # the informative component's mean
        self.loc = None if loc is None else np.array([robust_location(spec, e) for e in externals])
        self.column = (np.array([self.info[0], self.loc[0]])
                       if self.loc is not None and len(externals) == 1 else None)

    def means(self, point, ybar, out):
        """The kernel's two rows of component means into ``out`` (2, R):
        the informative mean and the robust location, which components
        1..J-1 share, at point[r] (0 if None), the location ybar[r] where it
        tracks the observed mean; the (2,) ``column`` if it is set."""
        if self.column is not None:
            return self.column
        point = 0 if point is None else point
        out[0] = self.info[point]
        out[1] = ybar if self.loc is None else self.loc[point]
        return out

    def kernel(self, point, ybar, n, sigma):
        """The posterior kernel, ``inference.posterior_bank``, at observed
        means ``ybar`` under the prior at point[r]: ``(W, pm, pv)``, W and pm
        in this thread's "W" and "pm" buffers, the kernel's two rows of means
        (or the (2,) ``column``) and the per-point log weights laid out in
        its "means" and "log_w" buffers."""
        J, R = self.variances.size, ybar.size
        W, pm = work_array("W", J, R), work_array("pm", J, R)
        means = self.means(point, ybar, work_array("means", 2, R))
        log_w = self.log_w if self.log_w.ndim == 1 else np.take(
            self.log_w, point, axis=1, out=work_array("log_w", J, R))
        return W, pm, posterior_bank(means, self.variances, log_w, ybar, n, sigma, W, pm)
