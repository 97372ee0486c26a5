"""Posterior computation under the mixture prior: the kernel and the
object API.

The kernel ``posterior_bank`` does component-wise conjugate updates and
marginal-likelihood weight updates in log space (so extreme prior-data
conflict never underflows) on whole vectors of observed means at once,
in slices from ``bank_chunks``. The Monte Carlo engines, the exact routes
and the bimodality map call it on the prior's array form, which
``priors.prior_bank_params`` builds. The object API reads one dataset's
posterior off the same kernel: ``posterior``, its tail probabilities and
mean, and the two-arm superiority probability.
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

__all__ = [
    "PosteriorSummary",
    "posterior",
    "tail_probability",
    "posterior_mean",
    "prob_t_not_better",
    "posterior_bank",
    "bank_chunks",
]

# Per-chunk element budget for the (components x reps) work matrices.
_CHUNK_ELEMENTS = 4 << 20


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


def bank_chunks(total: int, n_components: int):
    """Slices of ``total`` observed means within the element budget."""
    step = max(_CHUNK_ELEMENTS // max(n_components, 1), 4096)
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


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
