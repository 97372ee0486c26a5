"""One dataset's prior and posterior as objects, for the tests.

The library computes every operating characteristic on the array form of
the prior (``priors.AxisBank``) through one kernel. These are the object
forms the tests read one dataset's numbers off instead:

* ``GaussianComponent`` (one normal) and ``GaussianMixture``, with
  ``mixture_pdf`` and ``mixture_cdf``, and ``gaussian_cdf`` of one
  component;
* ``conjugate_update`` and ``marginal_likelihood``, the closed-form
  algebra the acceptance criteria state;
* ``build_mixture_prior`` and ``t_to_normal_mixture``, the prior as a
  mixture: views of ``priors.AxisBank`` and ``priors._robust_block``,
  with ``build_informative`` (the informative component) and
  ``resolve_location`` (the robust location, a current mean resolved
  against one dataset);
* ``posterior``, one dataset's posterior from the kernel written as one
  expression (``oracles.posterior_bank_expression``, which the library's
  kernel matches bit for bit), which the quadrature, mpmath and sampling
  oracles check, with ``tail_probability``, ``posterior_mean`` and the two-arm
  ``prob_t_not_better``;
* ``find_modes``, the library's batch mode finder on one mixture, and
  ``bimodality_ratio``.

``oracles.find_modes``, the scalar reference the batch finder must match,
returns this module's ``BimodalityReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from borrowsim.diagnostics import _modes
from borrowsim.gaussian import SufficientStat, mixture_density
from borrowsim.priors import (
    AxisBank,
    CurrentMean,
    ExternalMean,
    LocationPolicy,
    MixturePriorSpec,
    NullBoundary,
    StudentT,
    _robust_block,
)

# Weight drift beyond this is treated as an internal error rather than
# silently renormalized away.
WEIGHT_DRIFT_TOL = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianComponent:
    """One normal component N(mean, sd**2), in endpoint units."""

    mean: float
    sd: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"component mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.sd) and self.sd > 0.0):
            raise ValueError(f"component sd must be finite and > 0, got {self.sd!r}")

    @property
    def variance(self) -> float:
        return self.sd * self.sd


@dataclass(frozen=True)
class GaussianMixture:
    """Finite normal mixture with normalized, non-negative weights.

    Weights must sum to one within ``WEIGHT_DRIFT_TOL`` at construction;
    they are then renormalized exactly so downstream arithmetic never
    accumulates drift.
    """

    components: tuple[GaussianComponent, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        w = np.asarray(self.weights, dtype=float)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        if w.ndim != 1 or w.size != len(comps):
            raise ValueError(
                f"{len(comps)} components but {w.size} weights"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("mixture weights must be finite")
        if np.any(w < 0.0) or np.any(w > 1.0 + WEIGHT_DRIFT_TOL):
            raise ValueError(f"mixture weights must lie in [0, 1], got {w!r}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_DRIFT_TOL:
            raise ValueError(
                f"mixture weights sum to {total!r}; drift beyond "
                f"{WEIGHT_DRIFT_TOL} is an internal error"
            )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", tuple(w / total))

    def __len__(self) -> int:
        return len(self.components)

    def mean(self) -> float:
        return float(sum(w * c.mean for w, c in zip(self.weights, self.components)))

    def variance(self) -> float:
        m = self.mean()
        second = sum(
            w * (c.variance + c.mean * c.mean)
            for w, c in zip(self.weights, self.components)
        )
        return float(second - m * m)

    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components])

    def sds(self) -> np.ndarray:
        return np.array([c.sd for c in self.components])


def gaussian_cdf(x: float, c: GaussianComponent) -> float:
    """Phi((x - mean) / sd), accurate to well below 1e-12 absolute."""
    return float(ndtr((x - c.mean) / c.sd))


def mixture_pdf(x, m: GaussianMixture):
    """Mixture density; accepts a scalar or an ndarray of points."""
    out = mixture_density(np.asarray(x, dtype=float), np.asarray(m.weights), m.means(), m.sds())
    return out if out.ndim else float(out)


def mixture_cdf(x, m: GaussianMixture):
    """Mixture CDF; accepts a scalar or an ndarray of points."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, c in zip(m.weights, m.components):
        if w == 0.0:
            continue
        out += w * ndtr((x - c.mean) / c.sd)
    return out if out.ndim else float(out)


def conjugate_update(prior: GaussianComponent, data: SufficientStat) -> GaussianComponent:
    """Posterior component under a normal likelihood with known sigma.

    Precision additivity holds exactly: 1/v' = 1/v + n/sigma**2.
    """
    v = prior.variance
    data_precision = data.n / (data.sigma * data.sigma)
    post_var = 1.0 / (1.0 / v + data_precision)
    post_mean = post_var * (prior.mean / v + data.mean * data_precision)
    return GaussianComponent(post_mean, math.sqrt(post_var))


def log_marginal_likelihood(prior: GaussianComponent, data: SufficientStat) -> float:
    """Log density of the observed mean under the prior-predictive normal."""
    pred_var = prior.variance + data.sigma * data.sigma / data.n
    resid = data.mean - prior.mean
    return -0.5 * (_LOG_2PI + math.log(pred_var)) - 0.5 * resid * resid / pred_var


def marginal_likelihood(prior: GaussianComponent, data: SufficientStat) -> float:
    """Density of the observed mean under N(prior.mean, prior.var + sigma**2/n)."""
    return math.exp(log_marginal_likelihood(prior, data))


def unit_information_variance(sigma: float) -> float:
    """Prior variance worth exactly one observation.

    The Fisher information of a single normal observation with known sd is
    1/sigma**2, so the unit-information variance is sigma**2.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    return sigma * sigma


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
    exact-t route, whose trapezoid-rule bank (``t_trapezoid_bank``) is
    exact for the t up to a step residual that it checks.
    """
    spec = MixturePriorSpec(0.0, SufficientStat(mu, 1, 1.0), form=form)
    return _mixture(np.full(form.k, mu), *_robust_block(spec))


def _mixture(means, variances, log_weights) -> GaussianMixture:
    comps = tuple(GaussianComponent(float(m), math.sqrt(v)) for m, v in zip(means, variances))
    return GaussianMixture(comps, tuple(np.exp(log_weights)))


def build_informative(external: SufficientStat) -> GaussianComponent:
    """Informative component: flat-prior posterior of the external data."""
    return GaussianComponent(external.mean, external.sigma / math.sqrt(external.n))


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


def build_mixture_prior(
    spec: MixturePriorSpec,
    current: SufficientStat | None = None,
) -> GaussianMixture:
    """The prior as a mixture: components (mean, sqrt(variance)) and weights
    exp(log weight) of the spec's ``AxisBank``, component 0 the informative
    one, and a current-mean location resolved against ``current``."""
    bank = AxisBank(spec, [spec.external])
    loc = resolve_location(spec.location, spec.external, current)
    return _mixture(np.concatenate((bank.info, np.full(bank.variances.size - 1, loc))), bank.variances, bank.log_w)


@dataclass(frozen=True)
class PosteriorSummary:
    """Mixture posterior plus the quantities read off it downstream.

    ``w_informative`` is the posterior weight of component 0 (the
    informative component by construction).
    """

    posterior: GaussianMixture
    w_informative: float
    mean: float
    tail_at: tuple[float, float] | None = None


def posterior(
    prior: GaussianMixture,
    data: SufficientStat,
    null_value: float | None = None,
) -> PosteriorSummary:
    """Full mixture posterior for one dataset.

    Component j keeps its identity; its new weight is proportional to the
    old weight times the marginal likelihood of the data under it.
    """
    from oracles import posterior_bank_expression  # oracles imports this module

    means = prior.means()
    variances = prior.sds() ** 2
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(prior.weights))
    post_w, post_mean, post_var = posterior_bank_expression(
        means, variances, logw, data.mean, data.n, data.sigma
    )
    post_w = post_w[:, 0]
    post_mean = post_mean[:, 0]
    comps = tuple(
        GaussianComponent(m, math.sqrt(v)) for m, v in zip(post_mean, post_var)
    )
    mixture = GaussianMixture(comps, tuple(post_w))
    summary = PosteriorSummary(mixture, float(post_w[0]), float(np.dot(post_w, post_mean)))
    if null_value is not None:
        summary = replace(summary, tail_at=(null_value, tail_probability(summary, null_value)))
    return summary


def tail_probability(post: PosteriorSummary, threshold: float) -> float:
    """Posterior probability that the parameter lies at or below ``threshold``."""
    return float(mixture_cdf(threshold, post.posterior))


def posterior_mean(post: PosteriorSummary) -> float:
    """Weighted mean of the posterior component means."""
    return post.mean


def prob_t_not_better(post_c: PosteriorSummary, post_t: GaussianComponent) -> float:
    """Probability that the treatment parameter is not above the control one.

    Treatment and control posteriors are independent; the treatment
    posterior is a single normal (flat or conjugate unit-information
    prior), the control posterior a mixture.
    """
    total = 0.0
    for w, c in zip(post_c.posterior.weights, post_c.posterior.components):
        if w == 0.0:
            continue
        s = math.sqrt(post_t.sd**2 + c.sd**2)
        total += w * float(ndtr((c.mean - post_t.mean) / s))
    return total


@dataclass(frozen=True)
class BimodalityReport:
    """Stationary-point summary of a two-component mixture density.

    ``ratio`` is the smaller mode density divided by the antimode density
    (1 when unimodal, by the merging-modes limit).
    """

    n_modes: int
    modes: tuple[tuple[float, float], ...]
    antimode: tuple[float, float] | None
    ratio: float


def find_modes(m: GaussianMixture) -> BimodalityReport:
    """Locate the modes (and antimode, if any) of a 2-component mixture
    (the batch finder ``_modes`` on one column)."""
    if len(m) != 2:
        raise ValueError(f"mode finding is defined for 2 components, got {len(m)}")
    n_modes, x, f, ratio = _modes(
        np.asarray(m.weights)[:, None], m.means()[:, None], m.sds()[:, None]
    )
    points = [(float(a), float(b)) for a, b in zip(x[0], f[0])]
    if n_modes[0] == 1:
        return BimodalityReport(1, (points[0],), None, 1.0)
    return BimodalityReport(2, tuple(points[:2]), points[2], float(ratio[0]))


def bimodality_ratio(m: GaussianMixture) -> float:
    """min(mode densities) / antimode density; 1 for a unimodal mixture."""
    return find_modes(m).ratio
