"""Slow references the fast routes are tested against.

``exact_t_tail_oracle`` integrates the exact heavy-tailed posterior by
adaptive quadrature. It lives with the tests only: the library's exact-t
route is a Gauss-Laguerre normal bank, and this oracle is the independent
check on it.

``brute_force_tie`` and ``brute_force_power`` are the one-arm Monte Carlo
rates the per-draw way: a full posterior tail for every common draw, then
the share at or below alpha. The library counts the sorted draws in the
rejection region instead, and must match these exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from borrowsim import StudentT, build_informative, resolve_location
from borrowsim.onearm import _draws, posterior_stats

# Points of the grid that locates the log-peak of the integrand.
_PEAK_GRID = 4001


def _log_t_pdf(x: float, loc: float, scale: float, df: float) -> float:
    z = (x - loc) / scale
    return (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
        - 0.5 * (df + 1.0) * math.log1p(z * z / df)
    )


def _log_normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd * math.sqrt(2.0 * math.pi))


def exact_t_tail_oracle(spec, data, null_value: float, rel_tol: float = 1e-6) -> float:
    """Tail probability under the exact heavy-tailed robust component.

    Adaptive quadrature of the unnormalized posterior
    w * informative(x) * likelihood + (1 - w) * t(x) * likelihood over the
    window that holds its mass, split at the threshold. The integrand is
    formed in log space and divided by its peak (located on a grid and at
    the mode of each part) before it is exponentiated, so extreme
    prior-data conflict cannot make the whole posterior mass underflow.
    """
    form = spec.form
    if not isinstance(form, StudentT):
        raise TypeError("the exact-t oracle needs a StudentT robust form")
    informative = build_informative(spec.external)
    loc = resolve_location(spec.location, spec.external, current=data)
    w = spec.informative_weight
    se = data.se
    log_w = math.log(w) if w > 0.0 else -math.inf
    log_1mw = math.log1p(-w) if w < 1.0 else -math.inf

    def log_unnorm(x):
        parts = (
            log_w + _log_normal_pdf(x, informative.mean, informative.sd),
            log_1mw + _log_t_pdf(x, loc, form.scale, form.df),
        )
        return float(np.logaddexp(*parts)) + _log_normal_pdf(x, data.mean, se)

    # Every part of the posterior is the prior times the likelihood, so its
    # mass lies within 40 se of the observed mean or, for the informative
    # part, of its conjugate posterior mean (whose sd is below se); the t
    # part peaks next to the observed mean.
    prec_ext = 1.0 / informative.sd**2
    prec_data = 1.0 / se**2
    conj = (informative.mean * prec_ext + data.mean * prec_data) / (prec_ext + prec_data)
    lo = min(data.mean, conj) - 40.0 * se
    hi = max(data.mean, conj) + 40.0 * se
    if not lo < null_value < hi:
        # Threshold outside the window: the tail is numerically 0 or 1.
        return 0.0 if null_value <= lo else 1.0

    anchors = sorted(a for a in {data.mean, conj, loc} if lo < a < hi)
    grid = np.concatenate((np.linspace(lo, hi, _PEAK_GRID), anchors))
    peak = max(log_unnorm(float(x)) for x in grid)

    def unnorm(x):
        return math.exp(log_unnorm(x) - peak)

    # Break points, kept clear of the threshold so no piece is degenerate.
    below = [a for a in anchors if a < null_value - 1e-6 * se]
    above = [a for a in anchors if a > null_value + 1e-6 * se]
    num, err_num = quad(unnorm, lo, null_value, points=below, limit=400, epsabs=0.0, epsrel=1e-12)
    rest, err_rest = quad(unnorm, null_value, hi, points=above, limit=400, epsabs=0.0, epsrel=1e-12)
    den = num + rest
    if den <= 0.0 or not math.isfinite(den):
        raise RuntimeError("quadrature non-convergence: vanishing posterior mass")
    tail = num / den
    # Error of the ratio, first order in the piece errors.
    err = (err_num + tail * (err_num + err_rest)) / den
    if err > rel_tol * max(tail, 1e-12):
        raise RuntimeError(
            f"quadrature non-convergence: estimated error {err:g} for tail {tail:g}"
        )
    return tail


def brute_force_rate(s, bias: float, at_mean: float) -> float:
    """Share of the common draws at ``at_mean`` whose posterior tail at the
    null is at most alpha, from one posterior pass over every draw."""
    tails, _, _ = posterior_stats(s, bias, _draws(s, at_mean))
    return float(np.mean(tails <= s.alpha))


def brute_force_tie(s, bias: float) -> float:
    return brute_force_rate(s, bias, s.null_mean)


def brute_force_power(s, bias: float) -> float:
    return brute_force_rate(s, bias, s.alt_mean)
