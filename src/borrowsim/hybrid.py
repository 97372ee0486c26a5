"""Hybrid-control operating characteristics.

Monte Carlo TIE and power over joint (control, treatment) draws, a
deterministic quadrature route (Gauss-Hermite over the control mean with
a monotone root search for the treatment-mean rejection threshold),
calibrated no-borrowing power, sweet-spot detection, bias-restricted
summaries and prior-averaged operating characteristics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
from scipy.special import ndtr, ndtri

from .inference import bank_means, posterior_bank, prior_bank_params
from .onearm import _chunks
from .priors import Normal
from .scenarios import (
    DesignPrior,
    HybridScenario,
    Informative,
    OneArmScenario,
    RobustMixture,
    SweetSpot,
    TreatmentPrior,
    UnitInfo,
    base_normals,
    base_uniforms,
)

__all__ = [
    "hybrid_tie",
    "hybrid_power",
    "hybrid_tie_exact",
    "hybrid_power_exact",
    "calibrated_power_no_borrowing",
    "no_borrowing_power",
    "sweet_spot",
    "delta_restricted_summary",
    "average_tie",
    "average_power",
]

_GH_NODES = 160


def _treatment_params(s: HybridScenario, analysis_external_mean: float):
    """Posterior of the treatment arm as mean = a + b * ybar_t, var."""
    if s.treatment_prior is TreatmentPrior.FLAT:
        return 0.0, 1.0, s.se_t**2
    # Unit-information prior centered at the external mean.
    post_var = s.sigma**2 / (s.n_t + 1)
    a = analysis_external_mean / (s.n_t + 1)
    b = s.n_t / (s.n_t + 1)
    return a, b, post_var


def _superiority_stats(s, external, ybar_c, ybar_t, collect_w=False):
    """Pr(treatment <= control) per draw; optionally the control weight."""
    variances, log_w, info_mean, robust_loc = prior_bank_params(s.prior, external)
    J = variances.size
    a, b, t_var = _treatment_params(s, external.mean)
    ybar_c = np.asarray(ybar_c, dtype=float)
    ybar_t = np.asarray(ybar_t, dtype=float)
    pnb = np.empty_like(ybar_c)
    w_info = np.empty_like(ybar_c) if collect_w else None
    for sl in _chunks(ybar_c.size, J):
        yc = ybar_c[sl]
        means = bank_means(info_mean, robust_loc, J, yc)
        W, pm, pv = posterior_bank(means, variances, log_w, yc, s.n_c, s.sigma)
        mu_t = a + b * ybar_t[sl]
        sj = np.sqrt(t_var + pv)[:, None]
        pnb[sl] = np.einsum("jr,jr->r", W, ndtr((pm - mu_t[None, :]) / sj))
        if collect_w:
            w_info[sl] = W[0]
    return pnb, w_info


def _joint_draws(s: HybridScenario, bias: float, effect: float):
    theta_c = s.control_mean
    zc = base_normals(s.seed, s.scenario_id, "control", s.reps)
    zt = base_normals(s.seed, s.scenario_id, "treatment", s.reps)
    ybar_c = theta_c + s.se_c * zc
    ybar_t = theta_c + effect + s.se_t * zt
    return s.external_at(bias), ybar_c, ybar_t


def hybrid_tie(s: HybridScenario, bias: float) -> float:
    """Monte Carlo rejection rate with equal arm means."""
    external, ybar_c, ybar_t = _joint_draws(s, bias, 0.0)
    pnb, _ = _superiority_stats(s, external, ybar_c, ybar_t)
    return float(np.mean(pnb <= s.alpha))


def hybrid_power(s: HybridScenario, bias: float) -> float:
    """Monte Carlo rejection rate at treatment - control = effect."""
    external, ybar_c, ybar_t = _joint_draws(s, bias, s.effect)
    pnb, _ = _superiority_stats(s, external, ybar_c, ybar_t)
    return float(np.mean(pnb <= s.alpha))


def mean_posterior_weight(s: HybridScenario, bias: float) -> float:
    """MC mean of the control posterior informative weight under the null."""
    external, ybar_c, ybar_t = _joint_draws(s, bias, 0.0)
    _, w_info = _superiority_stats(s, external, ybar_c, ybar_t, collect_w=True)
    return float(np.mean(w_info))


def _reject_prob_gh(s: HybridScenario, external, effect: float, nodes: int = _GH_NODES):
    """Deterministic rejection probability.

    Outer Gauss-Hermite integral over the control mean; for each node the
    superiority probability is strictly decreasing in the treatment mean,
    so the rejection threshold is found by vectorized bisection and the
    inner integral is a single normal tail.
    """
    x, wts = np.polynomial.hermite.hermgauss(nodes)
    theta_c = s.control_mean
    yc = theta_c + math.sqrt(2.0) * s.se_c * x

    variances, log_w, info_mean, robust_loc = prior_bank_params(s.prior, external)
    means = bank_means(info_mean, robust_loc, variances.size, yc)
    W, pm, pv = posterior_bank(means, variances, log_w, yc, s.n_c, s.sigma)
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


def hybrid_tie_exact(s: HybridScenario, bias: float) -> float:
    return _reject_prob_gh(s, s.external_at(bias), 0.0)


def hybrid_power_exact(s: HybridScenario, bias: float) -> float:
    return _reject_prob_gh(s, s.external_at(bias), s.effect)


def no_borrowing_power(s) -> float:
    """Power of the plain one-sided z test at the scenario's alpha."""
    return calibrated_power_no_borrowing(s.alpha, s)


def calibrated_power_no_borrowing(max_tie: float, s) -> float:
    """Closed-form z-test power at significance level ``max_tie``.

    Fair-comparison baseline: the no-borrowing test is rerun at the error
    rate the borrowing test actually achieved.
    """
    if not 0.0 < max_tie <= 1.0:
        raise ValueError(f"max_tie must be in (0, 1], got {max_tie!r}")
    if max_tie == 1.0:
        return 1.0
    z = float(ndtri(1.0 - max_tie))
    if isinstance(s, OneArmScenario):
        shift = (s.alt_mean - s.null_mean) * math.sqrt(s.n) / s.sigma
    elif isinstance(s, HybridScenario):
        shift = s.effect / s.se_diff
    else:
        raise TypeError(f"unsupported scenario {type(s).__name__}")
    return float(ndtr(shift - z))


def _feasible(s, bias, p0, eps=1e-12):
    return (
        hybrid_tie_exact(s, bias) <= s.alpha + eps
        and hybrid_power_exact(s, bias) >= p0 - eps
    )


def sweet_spot(s: HybridScenario, *, resolution: float = 1e-3) -> SweetSpot:
    """Bias range with TIE at most alpha and power at least the plain test's.

    Scans the scenario's bias grid with the deterministic curves, keeps
    the widest contiguous feasible run (warning if the feasible set is
    split), refines both endpoints by bisection to the requested bias
    resolution, and reports the maximum power over the refined interval.
    """
    if len(s.bias_grid) < 2:
        raise ValueError("sweet_spot needs a bias grid spanning the candidate region")
    grid = np.asarray(s.bias_grid, dtype=float)
    p0 = no_borrowing_power(s)
    feasible = np.array([_feasible(s, b, p0) for b in grid])

    runs = []
    start = None
    for i, ok in enumerate(feasible):
        if ok and start is None:
            start = i
        if not ok and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(grid) - 1))
    if not runs:
        return SweetSpot(math.nan, math.nan, math.nan, math.nan, True)
    contiguous = len(runs) == 1
    if not contiguous:
        warnings.warn("sweet-spot feasible set is non-contiguous; keeping widest run")
    i0, i1 = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    def refine(inside, outside):
        while abs(outside - inside) > resolution:
            mid = 0.5 * (inside + outside)
            if _feasible(s, mid, p0):
                inside = mid
            else:
                outside = mid
        return inside

    lower = grid[i0] if i0 == 0 else refine(grid[i0], grid[i0 - 1])
    upper = grid[i1] if i1 == len(grid) - 1 else refine(grid[i1], grid[i1 + 1])

    # Coarse argmax then golden-section refinement around it.
    coarse = np.linspace(lower, upper, 41)
    powers = np.array([hybrid_power_exact(s, b) for b in coarse])
    j = int(np.argmax(powers))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, coarse.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = hybrid_power_exact(s, c)
    fd = hybrid_power_exact(s, d)
    while hi - lo > resolution:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = hybrid_power_exact(s, d)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = hybrid_power_exact(s, c)
    argmax = 0.5 * (lo + hi)
    best = max(float(powers[j]), hybrid_power_exact(s, argmax))
    if best == powers[j]:
        argmax = float(coarse[j])
    return SweetSpot(float(lower), float(upper), float(best), float(argmax), False, contiguous)


def delta_restricted_summary(s: HybridScenario, delta: float, *, exact: bool = False):
    """Worst TIE and best calibrated power gain when |bias| <= delta.

    The grid has step delta/20 including both endpoints. The gain is the
    best power with borrowing minus the no-borrowing power calibrated to
    the worst TIE over the same range.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta!r}")
    grid = np.linspace(-delta, delta, 41)
    tie_fn = hybrid_tie_exact if exact else hybrid_tie
    power_fn = hybrid_power_exact if exact else hybrid_power
    max_tie = max(tie_fn(s, b) for b in grid)
    max_power = max(power_fn(s, b) for b in grid)
    gain = max_power - calibrated_power_no_borrowing(max_tie, s)
    return max_tie, gain


def _design_robust_variance(s: HybridScenario) -> float:
    if isinstance(s.prior.form, Normal):
        return s.prior.resolved_robust_variance()
    return s.prior.form.scale ** 2


def _design_draws(s: HybridScenario, design: DesignPrior) -> np.ndarray:
    """True control means drawn from the design prior (centered at the
    scenario's external mean)."""
    center = s.external.mean
    sd_info = s.sd_ext
    sd_rob = math.sqrt(_design_robust_variance(s))
    z = base_normals(s.seed, s.scenario_id, "design", s.reps)
    if isinstance(design, Informative):
        return center + sd_info * z
    if isinstance(design, UnitInfo):
        return center + sd_rob * z
    if isinstance(design, RobustMixture):
        u = base_uniforms(s.seed, s.scenario_id, "design-component", s.reps)
        sd = np.where(u < design.weight, sd_info, sd_rob)
        return center + sd * z
    raise TypeError(f"unknown design prior {design!r}")


def _average_oc(s: HybridScenario, design, analysis_shift: float, effect: float) -> float:
    if design is None:
        design = s.design_prior
    if design is None:
        raise ValueError("no design prior given and none set on the scenario")
    theta_c = _design_draws(s, design)
    zc = base_normals(s.seed, s.scenario_id, "control", s.reps)
    zt = base_normals(s.seed, s.scenario_id, "treatment", s.reps)
    ybar_c = theta_c + s.se_c * zc
    ybar_t = theta_c + effect + s.se_t * zt
    external = replace(s.external, mean=s.external.mean + analysis_shift)
    pnb, _ = _superiority_stats(s, external, ybar_c, ybar_t)
    return float(np.mean(pnb <= s.alpha))


def average_tie(
    s: HybridScenario,
    design: DesignPrior | None = None,
    analysis_shift: float = 0.0,
) -> float:
    """TIE averaged over control means drawn from the design prior.

    Data are generated with equal arm means conditional on each draw; the
    analysis prior is the scenario's mixture with its external mean
    shifted by ``analysis_shift``.
    """
    return _average_oc(s, design, analysis_shift, 0.0)


def average_power(
    s: HybridScenario,
    design: DesignPrior | None = None,
    analysis_shift: float = 0.0,
) -> float:
    """Power averaged over the design prior at the scenario's effect."""
    return _average_oc(s, design, analysis_shift, s.effect)
