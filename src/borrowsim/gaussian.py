"""Gaussian and Gaussian-mixture probability algebra.

Closed-form building blocks used by every other module: densities, CDFs,
quantiles, conjugate posterior updates and marginal likelihoods for a
normal endpoint with known observation standard deviation. Everything in
here is a pure function of immutable values and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, roots_genlaguerre

__all__ = [
    "GaussianComponent",
    "GaussianMixture",
    "SufficientStat",
    "gaussian_cdf",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_quantile",
    "conjugate_update",
    "marginal_likelihood",
    "log_marginal_likelihood",
    "gauss_rule",
]

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


@dataclass(frozen=True)
class SufficientStat:
    """Observed sample mean, sample size and known per-observation sd."""

    mean: float
    n: int
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"sample mean must be finite, got {self.mean!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"sample size must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def se(self) -> float:
        """Standard error of the sample mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


def gaussian_cdf(x: float, c: GaussianComponent) -> float:
    """Phi((x - mean) / sd), accurate to well below 1e-12 absolute."""
    return float(ndtr((x - c.mean) / c.sd))


def mixture_density(x, weights, means, sds):
    """Density of the normal mixtures whose components are the rows of the
    (J,) or (J, R) parameter arrays, at points ``x`` of shape (..., R)."""
    out = np.zeros_like(x)
    for w, mu, sd in zip(weights, means, sds):
        z = (x - mu) / sd
        out += w * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    return out


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


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported at the first root solve: no default
    recipe solves one, and scipy.optimize adds about 0.26 s to the import."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def bisect(a, b, keeps_a, stop=None):
    """The brackets [a, b] (arrays) halved at most 80 times at mid = 0.5 *
    (a + b), each keeping [mid, b] where ``keeps_a(mid)`` and [a, mid]
    elsewhere: until every bracket is two adjacent floats (mid lands on an
    end, so no end moves again) or, with ``stop`` set, narrower than it."""
    for _ in range(80):
        mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)) or stop is not None and (b - a).max() < stop:
            break
        keep = keeps_a(mid)
        a, b = np.where(keep, mid, a), np.where(keep, b, mid)
    return a, b


@lru_cache(maxsize=32)
def gauss_rule(family: str, nodes: int, alpha: float = 0.0):
    """Nodes and weights of a Gaussian quadrature rule, built once per
    (family, nodes, alpha) and shared read-only (each build solves an
    eigenproblem): "hermite" for the weight exp(-x**2) (``hermgauss``), or
    "laguerre" for x**alpha exp(-x) on x > 0 (``roots_genlaguerre``)."""
    if family == "hermite":
        x, wts = np.polynomial.hermite.hermgauss(nodes)
    elif family == "laguerre":
        x, wts = roots_genlaguerre(nodes, alpha)
    else:
        raise ValueError(f"unknown Gaussian rule family {family!r}")
    x.flags.writeable = wts.flags.writeable = False
    return x, wts


def mixture_quantile(p: float, m: GaussianMixture) -> float:
    """Invert the mixture CDF by bracketed root search.

    The bracket spans [min mean - 12 max sd, max mean + 12 max sd]; a level
    p whose quantile falls outside signals a malformed mixture and raises.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p!r}")
    means = m.means()
    sds = m.sds()
    lo = float(means.min() - 12.0 * sds.max())
    hi = float(means.max() + 12.0 * sds.max())
    f_lo = mixture_cdf(lo, m) - p
    f_hi = mixture_cdf(hi, m) - p
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError(
            f"quantile bracket [{lo}, {hi}] does not enclose level {p}; "
            "mixture appears malformed"
        )
    # brentq = bisection with secant/inverse-quadratic refinement.
    return float(brentq(lambda x: mixture_cdf(x, m) - p, lo, hi, xtol=1e-13, rtol=8.9e-16))


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
