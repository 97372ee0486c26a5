"""Normal-endpoint values and the numerical tools the engines share.

``SufficientStat`` (an observed mean, its sample size and the known
per-observation sd, with ``se`` the sd of the mean) is the value priors
are built from. ``mixture_density`` evaluates whole columns of
normal mixtures at once, ``gauss_rule`` holds the quadrature rules,
``bisect`` halves arrays of brackets together, ``brentq`` is scipy's
root solve, imported at its first call, and ``is_integer`` checks every
integer field. Everything in here is a pure function of immutable values
and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv, roots_genlaguerre

__all__ = [
    "SufficientStat",
    "mixture_density",
    "gauss_rule",
]


def is_integer(x) -> bool:
    """Whether ``x`` is finite and equal to its int (a Python int always is)."""
    return isinstance(x, int) or (math.isfinite(x) and int(x) == x)


@dataclass(frozen=True)
class SufficientStat:
    """Observed sample mean, sample size and known per-observation sd."""

    mean: float
    n: int
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"sample mean must be finite, got {self.mean!r}")
        if not is_integer(self.n) or self.n < 1:
            raise ValueError(f"sample size must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def se(self) -> float:
        """Standard error of the sample mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


def mixture_density(x, weights, means, sds):
    """Density of the normal mixtures whose components are the rows of the
    (J,) or (J, R) parameter arrays, at points ``x`` of shape (..., R)."""
    out = np.zeros_like(x)
    for w, mu, sd in zip(weights, means, sds):
        z = (x - mu) / sd
        out += w * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    return out


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
    """Nodes and weights of a quadrature rule, built once per (family,
    nodes, alpha) and shared read-only: "hermite" for the weight exp(-x**2)
    (``hermgauss``), "laguerre" for x**alpha exp(-x) on x > 0
    (``roots_genlaguerre``), or "gamma", equal weights at the midpoint
    quantiles (i - 0.5)/nodes of Gamma(alpha/2, rate alpha/2), a t's
    precision at alpha degrees of freedom (``gammaincinv(a, q) * scale``,
    bit for bit ``scipy.stats.gamma.ppf(q, a, scale=scale)``)."""
    if family == "hermite":
        x, wts = np.polynomial.hermite.hermgauss(nodes)
    elif family == "laguerre":
        x, wts = roots_genlaguerre(nodes, alpha)
    elif family == "gamma":
        x = gammaincinv(alpha / 2.0, (np.arange(1, nodes + 1) - 0.5) / nodes) * (2.0 / alpha)
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            raise ValueError(f"Gamma quantiles failed for df={alpha!r}")
        wts = np.full(nodes, 1.0 / nodes)
    else:
        raise ValueError(f"unknown Gaussian rule family {family!r}")
    x.flags.writeable = wts.flags.writeable = False
    return x, wts
