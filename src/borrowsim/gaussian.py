"""Normal-endpoint values and the numerical tools the engines share.

``SufficientStat`` (an observed mean, its sample size and the known
per-observation sd, with ``se`` the sd of the mean) is the value priors
are built from. ``mixture_density`` evaluates whole columns of
normal mixtures at once, ``gauss_rule`` holds the quadrature rules,
``bisect`` halves arrays of brackets together, ``brentq`` is SciPy's
Brent root solve transcribed bit for bit (SciPy's solvers are never
imported), and ``is_integer`` checks every integer field. Everything in
here is a pure function of immutable values and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv

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


def brentq(f, a, b, xtol):
    """A root of ``f`` in [a, b] by Brent's method: SciPy's C ``brentq`` (rtol
    4 eps, 100 iterations) step for step, so every iterate and the root are
    the same floats, and so are its errors: ValueError for ends of one sign
    or a NaN value, RuntimeError past 100 iterations. Importing SciPy's
    solvers for it would add about 22 MB and 0.2 s to a process."""

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    rtol = 4 * math.ulp(1.0)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, a step the test below refuses
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


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
    (``hermgauss``, the library's one orthogonal-polynomial rule), or
    "gamma", equal weights at the midpoint quantiles (i - 0.5)/nodes of
    Gamma(alpha/2, rate alpha/2), a t's precision at alpha degrees of
    freedom (``gammaincinv(a, q) * scale``, bit for bit
    ``scipy.stats.gamma.ppf(q, a, scale=scale)``)."""
    if family == "hermite":
        x, wts = np.polynomial.hermite.hermgauss(nodes)
    elif family == "gamma":
        x = gammaincinv(alpha / 2.0, (np.arange(1, nodes + 1) - 0.5) / nodes) * (2.0 / alpha)
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            raise ValueError(f"Gamma quantiles failed for df={alpha!r}")
        wts = np.full(nodes, 1.0 / nodes)
    else:
        raise ValueError(f"unknown Gaussian rule family {family!r}")
    x.flags.writeable = wts.flags.writeable = False
    return x, wts
