"""Posterior computation under the mixture prior.

Component-wise conjugate updates, marginal-likelihood weight updates in
log space (so extreme prior-data conflict never underflows), posterior
tail probabilities and means, and the two-arm superiority probability.
The array kernel is shared with the Monte Carlo engines and the exact
routes, which call it on whole vectors of observed means at once; the
exact heavy-tailed robust component enters it as one more prior bank
(Gauss-Laguerre nodes of the t's Gamma precision, see
``priors.t_laguerre_bank``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .gaussian import (
    GaussianComponent,
    GaussianMixture,
    SufficientStat,
    mixture_cdf,
)
from .priors import (
    EXACT_T_NODES,
    CurrentMean,
    MixturePriorSpec,
    Normal,
    build_informative,
    gamma_precision_quantiles,
    resolve_location,
    t_laguerre_bank,
)

__all__ = [
    "PosteriorSummary",
    "posterior",
    "tail_probability",
    "posterior_mean",
    "prob_t_not_better",
    "posterior_bank",
    "bank_means",
    "prior_bank_params",
]


@dataclass(frozen=True)
class PosteriorSummary:
    """Mixture posterior plus the quantities read off it downstream.

    ``w_informative`` is the posterior weight of component 0 (the
    informative component by construction); ``sub_weights`` are the
    weights of the robust block renormalized within the block, which do
    not depend on the informative weight at all.
    """

    posterior: GaussianMixture
    w_informative: float
    sub_weights: tuple[float, ...]
    mean: float
    tail_at: tuple[float, float] | None = None


def posterior_bank(means, variances, log_weights, ybar, n, sigma):
    """Vectorized conjugate + weight update over a component bank.

    Parameters
    ----------
    means : array (J,) or (J, R)
        Prior component means; a (J, R) shape carries data-dependent
        locations (one per observed mean).
    variances, log_weights : array (J,)
        Prior component variances and log prior weights (-inf allowed).
    ybar : scalar or array (R,)
        Observed current mean(s).
    n, sigma : int, float
        Current sample size and known per-observation sd.

    Returns
    -------
    post_weights : (J, R) posterior component weights (columns sum to 1)
    post_means : (J, R)
    post_vars : (J,)
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    variances = np.asarray(variances, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    means = np.asarray(means, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    if not (np.all(np.isfinite(ybar)) and np.all(np.isfinite(variances))):
        raise ValueError("degenerate data: non-finite inputs to the weight update")

    data_precision = n / (sigma * sigma)
    pred_var = (variances + 1.0 / data_precision)[:, None]
    log_marg = -0.5 * (np.log(2.0 * np.pi * pred_var) + (ybar[None, :] - means) ** 2 / pred_var)
    logw = log_weights[:, None] + log_marg
    logw -= logw.max(axis=0, keepdims=True)
    post_w = np.exp(logw)
    norm = post_w.sum(axis=0, keepdims=True)
    if not np.all(norm > 0.0):
        raise ValueError("degenerate data: every component weight underflowed")
    post_w /= norm

    post_var = 1.0 / (1.0 / variances + data_precision)
    post_mean = post_var[:, None] * (means / variances[:, None] + ybar[None, :] * data_precision)
    return post_w, post_mean, post_var


def bank_means(info_mean, robust_loc, J, ybar):
    """Prior component means for ``posterior_bank``: (J,), or (J, R) when
    the robust location (None) tracks the observed means ``ybar``."""
    if robust_loc is not None:
        return np.concatenate(([info_mean], np.full(J - 1, robust_loc)))
    means = np.empty((J, np.size(ybar)))
    means[0] = info_mean
    means[1:] = ybar
    return means


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
    robust_loc = (
        None if isinstance(spec.location, CurrentMean)
        else resolve_location(spec.location, external)
    )

    with np.errstate(divide="ignore"):
        if isinstance(spec.form, Normal):
            variances = np.array([informative.variance, spec.resolved_robust_variance()])
            log_weights = np.log(np.array([w, 1.0 - w]))
        else:
            form = spec.form
            if t_shift is None:
                lam = gamma_precision_quantiles(form.df, form.k)
                log_block = np.full(form.k, -math.log(form.k))
            else:
                lam, log_block = t_laguerre_bank(form, t_shift, t_nodes)
            variances = np.concatenate(([informative.variance], form.scale**2 / lam))
            log_weights = np.concatenate(([np.log(w)], np.log(1.0 - w) + log_block))
    return variances, log_weights, informative.mean, robust_loc


def posterior(
    prior: GaussianMixture,
    data: SufficientStat,
    null_value: float | None = None,
) -> PosteriorSummary:
    """Full mixture posterior for one dataset.

    Component j keeps its identity; its new weight is proportional to the
    old weight times the marginal likelihood of the data under it.
    """
    means = prior.means()
    variances = prior.sds() ** 2
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(prior.weights))
    post_w, post_mean, post_var = posterior_bank(
        means, variances, logw, data.mean, data.n, data.sigma
    )
    post_w = post_w[:, 0]
    post_mean = post_mean[:, 0]
    comps = tuple(
        GaussianComponent(m, math.sqrt(v)) for m, v in zip(post_mean, post_var)
    )
    mixture = GaussianMixture(comps, tuple(post_w))

    # Robust-block weights renormalized within the block; independent of
    # the informative prior weight, so well defined even at w = 1 (a
    # zero-mass block falls back to equal within-block prior weights,
    # matching the equal-split construction).
    if len(prior) > 1:
        block = np.asarray(prior.weights[1:])
        total = block.sum()
        with np.errstate(divide="ignore"):
            sub_log = (
                np.log(block / total)
                if total > 0.0
                else np.full(block.size, -math.log(block.size))
            )
        sub = posterior_bank(means[1:], variances[1:], sub_log, data.mean, data.n, data.sigma)[0]
        sub_weights = tuple(float(x) for x in sub[:, 0])
    else:
        sub_weights = ()

    summary = PosteriorSummary(
        mixture, float(post_w[0]), sub_weights, float(np.dot(post_w, post_mean))
    )
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
