"""Slow references the fast routes are tested against.

``exact_t_tail_oracle`` integrates the exact heavy-tailed posterior by
adaptive quadrature. It lives with the tests only: the library's exact-t
route is a trapezoid-rule normal bank, and this oracle is the independent
check on it.

``brute_force_tie`` and ``brute_force_power`` are the one-arm Monte Carlo
rates the per-draw way: a full posterior tail for every common draw, then
the share at or below alpha. The library counts the sorted draws against
one tail scan per curve instead, and must match these exactly.

``per_draw_tie``, ``per_draw_power``, ``per_draw_average_tie`` and
``per_draw_average_power`` are the hybrid Monte Carlo rates the per-draw
way: one control-arm pass of the library's kernel over every common joint
draw, then the share at or below alpha. The library counts the draws
against one threshold curve per cell instead, re-deciding only those too
close to it, and must match these exactly. The averages draw the true
control means by ``design_draws``, which spells out the paper's three named
design priors on its own; the library draws them from the scenario's
mixture at an informative weight (``hybrid._design_draws``).

``scan_brentq_region`` (and ``rejection_region`` for a one-arm cell) is
the one-arm rejection region the per-cell way: a sign scan of the tail,
each crossing refined by ``brentq``, each interval's side decided by the
tail at its midpoint, and the intervals merged. The library reads every
side off a curve's scan and refines the same crossings with the same
call, and must match this exactly wherever the scan has no zero.

``reject_prob_gh`` is the hybrid Gauss-Hermite rejection probability the
one-call-per-effect way: the rule, the posterior bank and the 80-step
threshold bisection rebuilt for one (bias, effect). The library solves
the threshold once per bias for a whole grid and shares it between TIE
and power, and must match this bit for bit.

``sweet_spot`` is the hybrid sweet spot one curve at a time: a grid
scan, then one solve per endpoint bisection step and golden-section
step. The library advances a weight block's curves in lockstep, one solve
per step for all of them, and must match this bit for bit.

``bank_params_expression`` is the prior's array form written out from
the spec: the informative variance (sigma / sqrt(n))**2, the robust
variance or the t bank's variances at ``scipy.stats.gamma.ppf`` quantiles,
the log weights log w and log(1 - w) plus the block's, and the robust
location. ``priors.AxisBank`` builds it from its own helpers and must
match it bit for bit.

``posterior_bank_expression`` is the posterior kernel as one expression
over new arrays, on prior component means laid out by ``bank_means``,
and ``bank_stats_expression`` the one-arm tails, or the means and
weights, read off it. The library's kernel writes each step
into reused work buffers, chunk by chunk, and must match these bit for bit.
The expression is also the tests' allocating posterior: the one-dataset
``mixtures.posterior`` and ``reject_prob_gh`` run it.

``scalar_posterior`` is the posterior for one observed mean from the
textbook formulas in Python floats, sharing no code with the kernel: each
component's conjugate update in variance form, and its weight from the
log prior weight plus the log marginal likelihood, normalized by
log-sum-exp. The kernel works in precision form over arrays and must
agree with it within rounding bounds stated before the comparison.

``find_modes`` is the scalar mode finder: a derivative sign scan of one
two-component mixture (a ``mixtures.GaussianMixture``), each sign change
refined by a Python bisection of one-point evaluations, returning a
``mixtures.BimodalityReport``. The library's finder runs over a batch of
mixtures at once and must match it bit for bit, as must
``mixtures.find_modes``, the library's finder on one mixture.

``pdf_derivative_expression`` is the batch mode finder's density
derivative with a new array for every step. The library writes each step
into reused work buffers and must match it bit for bit.

``modes_full_scan`` is the batch mode finder scanning every point of its
2000-point grid. The library scans only the points between the last at
or below the lower component mean and the first at or above the upper
one, and must match it bit for bit.

``weight_propagation`` is the mean posterior informative weight the
hand-written way: the log-marginals of the informative component and of
the robust block written out, and the weight w / (w + (1 - w) r) formed
from their ratio r. The library reads the weight off its posterior kernel
(``mean_posterior_weight``) and must agree with this to rounding.

``results_json`` is the results.json text the stdlib way: ``json.dump``
with ``indent=1``, which always takes the pure-Python encoder. The library
encodes each list of flat rows in one call of the C encoder and rewrites
the joins between them, and must match this byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

from borrowsim import CurrentMean, NullBoundary, StudentT
from borrowsim.gaussian import mixture_density
from borrowsim import diagnostics, hybrid
from borrowsim.hybrid import _SWEET_SPOT_RESOLUTION, _Bank, _treatment_params
from borrowsim.onearm import _bank_stats, _draws
from borrowsim.priors import AxisBank
from borrowsim.scenarios import SweetSpot, base_normals, base_uniforms
from mixtures import BimodalityReport, build_informative, mixture_pdf, resolve_location

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


def bank_params_expression(spec, external):
    """The prior at ``external`` in array form, from the spec alone:
    (variances, log weights, informative mean, robust location), the
    location None where it tracks the observed mean. Component 0 is the
    informative one; a t form's k components sit at the midpoint Gamma
    quantiles (i - 0.5)/k of its precision, each with weight (1 - w)/k."""
    w, form = spec.informative_weight, spec.form
    sd = external.sigma / math.sqrt(external.n)
    if isinstance(form, StudentT):
        levels = (np.arange(1, form.k + 1) - 0.5) / form.k
        robust = form.scale**2 / gamma_dist.ppf(levels, a=form.df / 2.0, scale=2.0 / form.df)
        log_share = np.full(form.k, -math.log(form.k))
    else:
        v = spec.robust_variance
        robust = np.array([spec.external.sigma**2 / spec.n_robust if v is None else v])
        log_share = np.zeros(1)
    with np.errstate(divide="ignore"):
        log_w = np.concatenate(([np.log(w)], np.log(1.0 - w) + log_share))
    if isinstance(spec.location, NullBoundary):
        loc = spec.location.value
    else:
        loc = None if isinstance(spec.location, CurrentMean) else external.mean
    return np.concatenate(([sd * sd], robust)), log_w, external.mean, loc


def bank_means(info_mean, robust_loc, J, ybar):
    """Prior component means: the (J,) column at a fixed robust location,
    or (J, R) when the location (None) tracks the observed means ``ybar``."""
    if robust_loc is not None:
        return np.concatenate(([info_mean], np.full(J - 1, robust_loc)))
    means = np.empty((J, np.size(ybar)))
    means[0] = info_mean
    means[1:] = ybar
    return means


def posterior_bank_expression(means, variances, log_weights, ybar, n, sigma):
    """``inference.posterior_bank`` with a new array for every step: the
    tests' allocating posterior, ``(post_w, post_mean, post_var)``, on all J
    rows of means and (J,) log weights."""
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    variances = np.asarray(variances, dtype=float)
    means = np.asarray(means, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    data_precision = n / (sigma * sigma)
    pred_var = (variances + 1.0 / data_precision)[:, None]
    log_marg = -0.5 * (np.log(2.0 * np.pi * pred_var) + (ybar[None, :] - means) ** 2 / pred_var)
    logw = np.asarray(log_weights, dtype=float)[:, None] + log_marg
    logw -= logw.max(axis=0, keepdims=True)
    post_w = np.exp(logw)
    post_w /= post_w.sum(axis=0, keepdims=True)
    post_var = 1.0 / (1.0 / variances + data_precision)
    post_mean = post_var[:, None] * (means / variances[:, None] + ybar[None, :] * data_precision)
    return post_w, post_mean, post_var


def scalar_posterior(means, variances, log_weights, ybar: float, n: int, sigma: float):
    """Posterior component weights, means and variances (lists of floats)
    for one observed mean ``ybar`` under the normal mixture prior
    (``means``, ``variances``, ``log_weights``), data variance sigma**2 / n.
    Weight j is proportional to w_j N(ybar; m_j, v_j + sigma**2 / n),
    formed in log space and normalized by log-sum-exp; component j's
    posterior is N((m_j s2 + ybar v_j) / (v_j + s2), v_j s2 / (v_j + s2))."""
    s2 = sigma * sigma / n
    log_post = [
        lw - 0.5 * (math.log(2.0 * math.pi * (v + s2)) + (ybar - m) ** 2 / (v + s2))
        for m, v, lw in zip(means, variances, log_weights)
    ]
    top = max(log_post)
    unnormalized = [math.exp(lp - top) for lp in log_post]
    total = math.fsum(unnormalized)
    weights = [u / total for u in unnormalized]
    post_means = [(m * s2 + ybar * v) / (v + s2) for m, v in zip(means, variances)]
    post_vars = [v * s2 / (v + s2) for v in variances]
    return weights, post_means, post_vars


def bank_stats_expression(s, bank, ybar, tails=True):
    """``onearm._bank_stats`` over every draw at once, from
    ``posterior_bank_expression``: the tails, or without ``tails`` the
    posterior means and informative weights."""
    variances, log_w, info_mean, robust_loc = bank
    means = bank_means(info_mean, robust_loc, variances.size, ybar)
    W, pm, pv = posterior_bank_expression(means, variances, log_w, ybar, s.n, s.sigma)
    if tails:
        return np.einsum("jr,jr->r", W, ndtr((s.null_mean - pm) / np.sqrt(pv)[:, None]))
    return np.einsum("jr,jr->r", W, pm), W[0]


def cell_tails(s, bias: float):
    """Posterior tail at the null as a function of observed means, under
    the cell's prior bank."""
    bank = AxisBank(s.prior, [s.external_at(bias)])
    return lambda ybar: _bank_stats(s, bank, ybar)


def posterior_stats(s, bias: float, ybar: np.ndarray):
    """Tail probability, posterior mean and informative weight per draw."""
    bank = AxisBank(s.prior, [s.external_at(bias)])
    return (_bank_stats(s, bank, ybar), *(a.copy() for a in _bank_stats(s, bank, ybar, tails=False)))


def brute_force_rate(s, bias: float, at_mean: float) -> float:
    """Share of the common draws at ``at_mean`` whose posterior tail at the
    null is at most alpha, from one posterior pass over every draw."""
    return float(np.mean(cell_tails(s, bias)(_draws(s, at_mean)) <= s.alpha))


def scan_brentq_region(tails, ys, alpha: float):
    """Intervals of observed means where ``tails`` (vectorized) is at most
    ``alpha``, the scan-and-midpoint way: a sign scan of tails - alpha on
    ``ys``, each sign change refined by ``brentq`` on the one-point tail,
    each interval between crossings decided by the tail at its midpoint,
    and adjacent rejecting intervals merged. Open ends are +-inf. A scan
    value of exactly zero is no sign change, so its crossing is missed."""
    vals = tails(ys) - alpha

    def tail(y: float) -> float:
        return float(tails(np.array([float(y)]))[0])

    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    crossings = [brentq(lambda y: tail(y) - alpha, ys[i], ys[i + 1], xtol=1e-12) for i in idx]
    edges = [ys[0]] + crossings + [ys[-1]]
    intervals: list[tuple[float, float]] = []
    for a, b in zip(edges[:-1], edges[1:]):
        if tail(0.5 * (a + b)) <= alpha:
            left = -math.inf if a == ys[0] else a
            right = math.inf if b == ys[-1] else b
            if intervals and intervals[-1][1] == left:
                intervals[-1] = (intervals[-1][0], right)
            else:
                intervals.append((left, right))
    return intervals


def rejection_region(s, bias: float, scan_points: int = 2001):
    """A one-arm cell's rejection region by ``scan_brentq_region`` over
    null +- 12 se, under its k-point prior bank."""
    ys = np.linspace(s.null_mean - 12.0 * s.se, s.null_mean + 12.0 * s.se, scan_points)
    return scan_brentq_region(cell_tails(s, bias), ys, s.alpha)


def brute_force_tie(s, bias: float) -> float:
    return brute_force_rate(s, bias, s.null_mean)


def brute_force_power(s, bias: float) -> float:
    return brute_force_rate(s, bias, s.alt_mean)


def per_draw_rate(s, external, theta_c, effect: float) -> float:
    """Share of the common joint draws the hybrid test rejects, with true
    control mean(s) ``theta_c`` and treatment mean ``theta_c + effect``,
    under the analysis prior at ``external``, from one pass over every draw."""
    zc = base_normals(s.seed, s.scenario_id, "control", s.reps)
    zt = base_normals(s.seed, s.scenario_id, "treatment", s.reps)
    ybar_c = theta_c + s.se_c * zc
    ybar_t = theta_c + effect + s.se_t * zt
    return float(np.mean(_Bank(s, [external])(ybar_c, ybar_t) <= s.alpha))


def per_draw_tie(s, bias: float) -> float:
    return per_draw_rate(s, s.external_at(bias), s.control_mean, 0.0)


def per_draw_power(s, bias: float) -> float:
    return per_draw_rate(s, s.external_at(bias), s.control_mean, s.effect)


def design_draws(s, weight: float) -> np.ndarray:
    """True control means of a hybrid scenario's common design draws z,
    centered at the external mean, under the named design prior of
    informative weight ``weight``:

    * informative (1): sd sigma / sqrt(n_ext), the informative component's;
    * vague (0): the robust component's sd, the root of its variance:
      the resolved one for a normal, scale**2 for a t;
    * the mixture (between): each draw's own uniform picks the informative
      sd when below ``weight``, else the robust one.
    """
    ext, prior = s.external, s.prior
    sd_info = ext.sigma / math.sqrt(ext.n)
    sd_rob = math.sqrt(prior.form.scale**2 if isinstance(prior.form, StudentT) else prior.resolved_robust_variance())
    z = base_normals(s.seed, s.scenario_id, "design", s.reps)
    if weight == 1.0:
        sds = np.full(s.reps, sd_info)
    elif weight == 0.0:
        sds = np.full(s.reps, sd_rob)
    else:
        u = base_uniforms(s.seed, s.scenario_id, "design-component", s.reps)
        sds = np.array([sd_info if u_r < weight else sd_rob for u_r in u])
    return ext.mean + sds * z


def _per_draw_average(s, weight, analysis_shift: float, effect: float) -> float:
    external = replace(s.external, mean=s.external.mean + analysis_shift)
    return per_draw_rate(s, external, design_draws(s, weight), effect)


def per_draw_average_tie(s, weight, analysis_shift: float = 0.0) -> float:
    return _per_draw_average(s, weight, analysis_shift, 0.0)


def per_draw_average_power(s, weight, analysis_shift: float = 0.0) -> float:
    return _per_draw_average(s, weight, analysis_shift, s.effect)


def reject_prob_gh(s, bias: float, effect: float, nodes: int = 160) -> float:
    """Hybrid rejection probability at one bias and one true effect."""
    external = s.external_at(bias)
    x, wts = np.polynomial.hermite.hermgauss(nodes)
    theta_c = s.control_mean
    yc = theta_c + math.sqrt(2.0) * s.se_c * x

    variances, log_w, info_mean, robust_loc = bank_params_expression(s.prior, external)
    means = bank_means(info_mean, robust_loc, variances.size, yc)
    W, pm, pv = posterior_bank_expression(means, variances, log_w, yc, s.n_c, s.sigma)
    a, b, t_var = _treatment_params(s, external.mean)
    sj = np.sqrt(t_var + pv)[:, None]

    def pnb(yt):
        return np.einsum("jr,jr->r", W, ndtr((pm - (a + b * yt)[None, :]) / sj))

    span = 14.0 * float(sj.max())
    lo = (pm.min(axis=0) - span - a) / b
    hi = (pm.max(axis=0) + span - a) / b
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        not_rejecting = pnb(mid) > s.alpha
        lo = np.where(not_rejecting, mid, lo)
        hi = np.where(not_rejecting, hi, mid)
    threshold = 0.5 * (lo + hi)

    g = 1.0 - ndtr((threshold - (theta_c + effect)) / s.se_t)
    return float(np.dot(wts, g) / math.sqrt(math.pi))


def sweet_spot(s, grid) -> SweetSpot:
    """``hybrid.sweet_spots`` for one curve over the bias ``grid``, each
    bisection and golden-section step a solve of its own (a one-point
    ``hybrid.oc_curve``), the lower end refined before the upper."""
    grid = np.asarray(grid, dtype=float)
    p0 = hybrid.calibrated_power_no_borrowing(s.alpha, s)

    def power(bias):
        return hybrid.oc_curve(s, [bias], exact=True)[1][0]

    def feasible(biases):
        ties, powers = hybrid.oc_curve(s, biases, exact=True)
        ok = [t <= s.alpha + 1e-12 and p >= p0 - 1e-12 for t, p in zip(ties, powers)]
        return ok, tuple(zip(ties, powers))

    ok, curve = feasible(grid)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.array(ok, dtype=int), [0]))))
    runs = list(zip(edges[::2], edges[1::2] - 1))
    if not runs:
        return SweetSpot(math.nan, math.nan, math.nan, math.nan, True, curve=curve)
    i0, i1 = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    def refine(inside, outside):
        while abs(outside - inside) > _SWEET_SPOT_RESOLUTION:
            mid = 0.5 * (inside + outside)
            if feasible(mid)[0][0]:
                inside = mid
            else:
                outside = mid
        return inside

    lower = grid[i0] if i0 == 0 else refine(grid[i0], grid[i0 - 1])
    upper = grid[i1] if i1 == len(grid) - 1 else refine(grid[i1], grid[i1 + 1])

    coarse = np.linspace(lower, upper, 41)
    powers = np.array(hybrid.oc_curve(s, coarse, exact=True)[1])
    j = int(np.argmax(powers))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, coarse.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = power(c)
    fd = power(d)
    while hi - lo > _SWEET_SPOT_RESOLUTION:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = power(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = power(c)
    argmax = 0.5 * (lo + hi)
    best = max(float(powers[j]), power(argmax))
    if best == powers[j]:
        argmax = float(coarse[j])
    return SweetSpot(
        float(lower), float(upper), float(best), float(argmax), False, len(runs) == 1, curve
    )


_SCAN_POINTS = 2000
_REFINE_TOL = 1e-9


def _pdf_derivative(x, m):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, c in zip(m.weights, m.components):
        if w == 0.0:
            continue
        z = (x - c.mean) / c.sd
        phi = np.exp(-0.5 * z * z) / (c.sd * math.sqrt(2 * math.pi))
        out += -w * phi * (x - c.mean) / (c.sd * c.sd)
    return out


def pdf_derivative_expression(x, weights, means, sds):
    """``diagnostics._pdf_derivative`` with a new array for every step."""
    out = np.zeros_like(x)
    for w, mu, sd in zip(weights, means, sds):
        d = x - mu
        z = d / sd
        phi = np.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi))
        out += -w * phi * d / (sd * sd)
    return out


def modes_full_scan(weights, means, sds):
    """``diagnostics._modes`` with the derivative scanned on every grid point."""
    R = weights.shape[1]
    lo = means.min(axis=0) - 6.0 * sds.max(axis=0)
    hi = means.max(axis=0) + 6.0 * sds.max(axis=0)
    flips = []
    for start in range(0, R, diagnostics._BATCH):
        sl = slice(start, start + diagnostics._BATCH)
        grid = np.linspace(lo[sl], hi[sl], _SCAN_POINTS)
        deriv = pdf_derivative_expression(grid, weights[:, sl], means[:, sl], sds[:, sl])
        up, down = deriv > 0, deriv < 0
        col, idx = np.nonzero(((up[:-1] & down[1:]) | (down[:-1] & up[1:])).T)
        flips.append((start + col, grid[idx, col], grid[idx + 1, col], deriv[idx, col]))
    col, a, b, f_a = (np.concatenate(v) for v in zip(*flips))

    w, mu, sd = weights[:, col], means[:, col], sds[:, col]
    rising = f_a > 0
    roots = np.full(col.size, np.nan)
    active = b - a > _REFINE_TOL
    while active.any():
        mid = 0.5 * (a + b)
        f_mid = pdf_derivative_expression(mid, w, mu, sd)
        hit = active & (f_mid == 0.0)
        roots[hit] = mid[hit]
        active &= ~hit
        same = (f_a > 0) == (f_mid > 0)
        a = np.where(active & same, mid, a)
        f_a = np.where(active & same, f_mid, f_a)
        b = np.where(active & ~same, mid, b)
        active &= b - a > _REFINE_TOL
    roots = np.where(np.isnan(roots), 0.5 * (a + b), roots)

    x = np.full((R, 3), np.nan)
    n_max = np.bincount(col[rising], minlength=R)
    ends = np.cumsum(n_max)
    has, two = n_max > 0, n_max > 1
    x[has, 0] = roots[rising][ends[has] - n_max[has]]
    x[two, 1] = roots[rising][ends[two] - 1]
    inside = ~rising & (roots > x[col, 0]) & (roots < x[col, 1])
    cols, first = np.unique(col[inside], return_index=True)
    x[cols, 2] = roots[inside][first]

    for k, miss in ((0, ~has), (2, two & np.isnan(x[:, 2]))):
        if miss.any():
            g = np.linspace(lo[miss], hi[miss], _SCAN_POINTS)
            vals = mixture_density(g, weights[:, miss], means[:, miss], sds[:, miss])
            inner = (g > x[miss, 0]) & (g < x[miss, 1])
            j = vals.argmax(axis=0) if k == 0 else np.where(inner, vals, np.inf).argmin(axis=0)
            x[miss, k] = g[j, np.arange(g.shape[1])]

    f = mixture_density(x.T, weights, means, sds).T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(f[:, 2] > 0.0, np.minimum(f[:, 0], f[:, 1]) / f[:, 2], np.inf)
    return np.where(two, 2, 1), x, f, np.where(two, ratio, 1.0)


def _bisect_sign_change(f, lo, hi, f_lo):
    while hi - lo > _REFINE_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_modes(m) -> BimodalityReport:
    """Modes (and antimode, if any) of one two-component mixture."""
    if len(m) != 2:
        raise ValueError(f"mode finding is defined for 2 components, got {len(m)}")
    means = m.means()
    sds = m.sds()
    lo = float(means.min() - 6.0 * sds.max())
    hi = float(means.max() + 6.0 * sds.max())
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    deriv = _pdf_derivative(grid, m)

    sign = np.sign(deriv)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    scalar_deriv = lambda x: float(_pdf_derivative(x, m))

    maxima: list[float] = []
    minima: list[float] = []
    for i in flips:
        x = _bisect_sign_change(scalar_deriv, grid[i], grid[i + 1], deriv[i])
        if deriv[i] > 0:
            maxima.append(x)
        else:
            minima.append(x)

    if len(maxima) <= 1:
        x = maxima[0] if maxima else float(grid[np.argmax(mixture_pdf(grid, m))])
        return BimodalityReport(1, ((x, float(mixture_pdf(x, m))),), None, 1.0)

    x1, x2 = maxima[0], maxima[-1]
    f1 = float(mixture_pdf(x1, m))
    f2 = float(mixture_pdf(x2, m))
    between = [x for x in minima if x1 < x < x2]
    if between:
        xa = between[0]
        fa = float(mixture_pdf(xa, m))
    else:
        # Dead zone between far-separated modes: density underflowed to 0
        # on the whole scan stretch; take the grid minimum there.
        inner = grid[(grid > x1) & (grid < x2)]
        vals = mixture_pdf(inner, m)
        j = int(np.argmin(vals))
        xa, fa = float(inner[j]), float(vals[j])
    ratio = min(f1, f2) / fa if fa > 0.0 else math.inf
    return BimodalityReport(2, ((x1, f1), (x2, f2)), (xa, fa), float(ratio))


@dataclass(frozen=True)
class WeightPropagation:
    """Posterior informative weight across (dispersion, bias, weight) cells.

    ``mean`` holds Monte Carlo means over data drawn at the null;
    ``at_expected`` holds the plug-in value at the expected observed mean.
    """

    n_robust_grid: tuple[float, ...]
    bias_grid: tuple[float, ...]
    w_grid: tuple[float, ...]
    mean: np.ndarray
    at_expected: np.ndarray


def _log_marginal_ratio(s, spec, bias: float, ybar):
    """log(robust-block marginal / informative marginal) per draw."""
    external = s.external_at(bias)
    variances, _, info_mean, robust_loc = bank_params_expression(spec, external)
    J = variances.size
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    pred = variances + s.sigma**2 / s.n
    lm = np.empty((J, ybar.size))
    lm[0] = -0.5 * (np.log(2 * np.pi * pred[0]) + (ybar - info_mean) ** 2 / pred[0])
    for j in range(1, J):
        m = ybar if robust_loc is None else robust_loc
        lm[j] = -0.5 * (np.log(2 * np.pi * pred[j]) + (ybar - m) ** 2 / pred[j])
    if J == 2:
        block = lm[1]
    else:
        sub = lm[1:] - math.log(J - 1)
        peak = sub.max(axis=0)
        block = peak + np.log(np.exp(sub - peak).sum(axis=0))
    return block - lm[0]


def weight_propagation(s, w_grid, bias_grid, n_robust_grid=None) -> WeightPropagation:
    """Expected posterior weight of the informative component per cell.

    The posterior weight is w / (w + (1 - w) r) with r the ratio of the
    robust-block marginal to the informative marginal, so the data enter
    only through r; each (dispersion, bias) pair shares one r vector
    across the whole weight grid.
    """
    w_grid = tuple(float(w) for w in w_grid)
    bias_grid = tuple(float(b) for b in bias_grid)
    if n_robust_grid is None:
        n_robust_grid = (s.prior.n_robust if s.prior.n_robust is not None else 1.0,)
    n_robust_grid = tuple(float(v) for v in n_robust_grid)

    mean = np.empty((len(n_robust_grid), len(bias_grid), len(w_grid)))
    at_expected = np.empty_like(mean)
    ybar = _draws(s, s.null_mean)
    for d, n_rob in enumerate(n_robust_grid):
        spec = replace(s.prior, n_robust=n_rob, robust_variance=None)
        for b, bias in enumerate(bias_grid):
            log_r = _log_marginal_ratio(s, spec, bias, ybar)
            log_r0 = _log_marginal_ratio(s, spec, bias, s.null_mean)[0]
            for i, w in enumerate(w_grid):
                if w == 0.0:
                    mean[d, b, i] = 0.0
                    at_expected[d, b, i] = 0.0
                elif w == 1.0:
                    mean[d, b, i] = 1.0
                    at_expected[d, b, i] = 1.0
                else:
                    odds = math.log(w) - math.log1p(-w)
                    mean[d, b, i] = float(np.mean(1.0 / (1.0 + np.exp(log_r - odds))))
                    at_expected[d, b, i] = 1.0 / (1.0 + math.exp(log_r0 - odds))
    return WeightPropagation(n_robust_grid, bias_grid, w_grid, mean, at_expected)


def _numpy_item(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def results_json(payload) -> str:
    """results.json for ``payload``: ``json.dump(indent=1)``, NaN and inf
    refused, NumPy scalars written as their Python values, then a newline."""
    return json.dumps(payload, indent=1, allow_nan=False, default=_numpy_item) + "\n"
