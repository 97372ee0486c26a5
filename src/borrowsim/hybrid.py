"""Hybrid-control operating characteristics.

Monte Carlo TIE, power, mean posterior weight and their design-prior
averages, each one call to one engine (``_control_pass``: the joint
control and treatment draws and one chunked control-arm pass); a
deterministic quadrature route (Gauss-Hermite over the control mean with
a monotone root search for the treatment-mean rejection threshold),
calibrated no-borrowing power, sweet-spot detection and bias-restricted
summaries.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

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
    "oc_curve",
    "sweet_spot",
    "delta_restricted_summary",
    "average_tie",
    "average_power",
]

_GH_NODES = 160
# Half-width of the initial threshold bracket, in sds of the widest
# superiority component.
_BRACKET_SDS = 14.0
# Elements (components x nodes x biases) per batched threshold solve.
_GH_CHUNK_ELEMENTS = 1 << 18
# Bias resolution of the sweet spot's endpoints and argmax.
_SWEET_SPOT_RESOLUTION = 1e-3


def _treatment_params(s: HybridScenario, analysis_external_mean: float):
    """Posterior of the treatment arm as mean = a + b * ybar_t, var."""
    if s.treatment_prior is TreatmentPrior.FLAT:
        return 0.0, 1.0, s.se_t**2
    # Unit-information prior centered at the external mean.
    post_var = s.sigma**2 / (s.n_t + 1)
    a = analysis_external_mean / (s.n_t + 1)
    b = s.n_t / (s.n_t + 1)
    return a, b, post_var


def _control_pass(s: HybridScenario, external, theta_c, effect: float, weight=False) -> float:
    """Rejection rate over the common joint draws, or with ``weight`` the
    mean informative weight of the control posterior.

    The true control mean is ``theta_c`` (a scalar, or one value per design
    draw) and the treatment mean ``theta_c + effect``; the analysis prior is
    the scenario's mixture at ``external``. One chunked pass over the
    control arm's posterior bank serves every Monte Carlo route.
    """
    zc = base_normals(s.seed, s.scenario_id, "control", s.reps)
    zt = base_normals(s.seed, s.scenario_id, "treatment", s.reps)
    ybar_c = theta_c + s.se_c * zc
    ybar_t = theta_c + effect + s.se_t * zt
    variances, log_w, info_mean, robust_loc = prior_bank_params(s.prior, external)
    J = variances.size
    a, b, t_var = _treatment_params(s, external.mean)
    out = np.empty_like(ybar_c)
    for sl in _chunks(ybar_c.size, J):
        yc = ybar_c[sl]
        means = bank_means(info_mean, robust_loc, J, yc)
        W, pm, pv = posterior_bank(means, variances, log_w, yc, s.n_c, s.sigma)
        if weight:
            out[sl] = W[0]
            continue
        mu_t = a + b * ybar_t[sl]
        sj = np.sqrt(t_var + pv)[:, None]
        out[sl] = np.einsum("jr,jr->r", W, ndtr((pm - mu_t[None, :]) / sj))
    return float(np.mean(out)) if weight else float(np.mean(out <= s.alpha))


def hybrid_tie(s: HybridScenario, bias: float) -> float:
    """Monte Carlo rejection rate with equal arm means."""
    return _control_pass(s, s.external_at(bias), s.control_mean, 0.0)


def hybrid_power(s: HybridScenario, bias: float) -> float:
    """Monte Carlo rejection rate at treatment - control = effect."""
    return _control_pass(s, s.external_at(bias), s.control_mean, s.effect)


def mean_posterior_weight(s: HybridScenario, bias: float) -> float:
    """MC mean of the control posterior informative weight under the null."""
    return _control_pass(s, s.external_at(bias), s.control_mean, 0.0, weight=True)


@lru_cache(maxsize=4)
def _gh_rule(nodes: int):
    """Gauss-Hermite nodes and weights, built once per node count and
    shared read-only (``hermgauss`` solves an eigenproblem on every call)."""
    x, wts = np.polynomial.hermite.hermgauss(nodes)
    x.flags.writeable = False
    wts.flags.writeable = False
    return x, wts


def _gh_thresholds(s: HybridScenario, biases, nodes: int = _GH_NODES) -> np.ndarray:
    """Treatment-mean rejection thresholds, shape (len(biases), nodes).

    Row i holds, at each Gauss-Hermite node of the control mean, the
    treatment mean above which the test rejects when the external mean
    sits at bias ``biases[i]``. The superiority probability is strictly
    decreasing in the treatment mean, so every (bias, node) threshold is
    found at once by at most 80 steps of vectorized bisection, from a
    bracket that is first checked to enclose it. The threshold does not
    depend on the true effect, so TIE and power share it.
    """
    biases = np.atleast_1d(np.asarray(biases, dtype=float))
    x, _ = _gh_rule(nodes)
    yc = s.control_mean + math.sqrt(2.0) * s.se_c * x
    externals = [s.external_at(bias) for bias in biases]
    banks = [prior_bank_params(s.prior, e) for e in externals]
    variances, log_w = banks[0][:2]
    J = variances.size
    a_all = np.array([_treatment_params(s, e.mean)[0] for e in externals])
    _, b, t_var = _treatment_params(s, externals[0].mean)
    out = np.empty((biases.size, nodes))
    step = max(_GH_CHUNK_ELEMENTS // (J * nodes), 1)
    for start in range(0, biases.size, step):
        sl = slice(start, min(start + step, biases.size))
        means = np.concatenate([
            np.broadcast_to(bank_means(m, r, J, yc).reshape(J, -1), (J, nodes))
            for _, _, m, r in banks[sl]
        ], axis=1)
        ybar = np.tile(yc, len(banks[sl]))
        W, pm, pv = posterior_bank(means, variances, log_w, ybar, s.n_c, s.sigma)
        a = np.repeat(a_all[sl], nodes)
        sj = np.sqrt(t_var + pv)[:, None]

        def pnb(yt):
            return np.einsum("jr,jr->r", W, ndtr((pm - (a + b * yt)[None, :]) / sj))

        span = _BRACKET_SDS * float(sj.max())
        lo = (pm.min(axis=0) - span - a) / b
        hi = (pm.max(axis=0) + span - a) / b
        for end, ok in (("lower", pnb(lo) > s.alpha), ("upper", pnb(hi) <= s.alpha)):
            if not ok.all():
                i, node = divmod(int(np.argmin(ok)), nodes)
                raise RuntimeError(
                    f"scenario {s.scenario_id!r}: the {end} end of the rejection-threshold "
                    f"bracket is on the wrong side at bias {float(biases[sl][i])!r}, "
                    f"Gauss-Hermite node {node} of {nodes}"
                )
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            # Once every bracket is two adjacent floats, mid lands on lo (known
            # not to reject) or hi (known to reject): no later step moves either.
            if np.all((mid == lo) | (mid == hi)):
                break
            not_rejecting = pnb(mid) > s.alpha
            lo = np.where(not_rejecting, mid, lo)
            hi = np.where(not_rejecting, hi, mid)
        out[sl] = (0.5 * (lo + hi)).reshape(-1, nodes)
    return out


def oc_curve(s: HybridScenario, biases, *, exact: bool = False, nodes: int = _GH_NODES):
    """TIE and power at each bias, as two lists of floats.

    Monte Carlo, or with ``exact`` the Gauss-Hermite route: one threshold
    solve per bias serves both rates, each of which is then the sum over
    the control-mean nodes of the treatment mean's normal tail above the
    node's threshold.
    """
    if not exact:
        return [hybrid_tie(s, b) for b in biases], [hybrid_power(s, b) for b in biases]
    _, wts = _gh_rule(nodes)
    thresholds = _gh_thresholds(s, biases, nodes)
    tails = (1.0 - ndtr((thresholds - (s.control_mean + e)) / s.se_t) for e in (0.0, s.effect))
    return tuple([float(np.dot(wts, g) / math.sqrt(math.pi)) for g in tail] for tail in tails)


def hybrid_tie_exact(s: HybridScenario, bias: float) -> float:
    return oc_curve(s, [bias], exact=True)[0][0]


def hybrid_power_exact(s: HybridScenario, bias: float) -> float:
    return oc_curve(s, [bias], exact=True)[1][0]


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


def sweet_spot(s: HybridScenario) -> SweetSpot:
    """Bias range with TIE at most alpha and power at least the plain test's.

    Scans the scenario's bias grid with the deterministic curves (kept on
    the result as ``curve``), keeps the widest contiguous feasible run
    (``contiguous`` is False if the feasible set is split), refines both
    endpoints by bisection to ``_SWEET_SPOT_RESOLUTION`` in bias, and reports
    the maximum power over the refined interval.
    """
    if len(s.bias_grid) < 2:
        raise ValueError("sweet_spot needs a bias grid spanning the candidate region")
    grid = np.asarray(s.bias_grid, dtype=float)
    p0 = no_borrowing_power(s)

    def feasible(biases):
        ties, powers = oc_curve(s, biases, exact=True)
        ok = [t <= s.alpha + 1e-12 and p >= p0 - 1e-12 for t, p in zip(ties, powers)]
        return ok, tuple(zip(ties, powers))

    ok, curve = feasible(grid)
    # Runs of feasible grid points as (first, last) index pairs.
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

    # Coarse argmax then golden-section refinement around it.
    coarse = np.linspace(lower, upper, 41)
    powers = np.array(oc_curve(s, coarse, exact=True)[1])
    j = int(np.argmax(powers))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, coarse.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = hybrid_power_exact(s, c)
    fd = hybrid_power_exact(s, d)
    while hi - lo > _SWEET_SPOT_RESOLUTION:
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
    return SweetSpot(
        float(lower), float(upper), float(best), float(argmax), False, len(runs) == 1, curve
    )


def delta_restricted_summary(s: HybridScenario, delta: float, *, exact: bool = False):
    """Worst TIE and best calibrated power gain when |bias| <= delta.

    The grid has step delta/20 including both endpoints. The gain is the
    best power with borrowing minus the no-borrowing power calibrated to
    the worst TIE over the same range.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta!r}")
    ties, powers = oc_curve(s, np.linspace(-delta, delta, 41), exact=exact)
    max_tie = max(ties)
    gain = max(powers) - calibrated_power_no_borrowing(max_tie, s)
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
    external = replace(s.external, mean=s.external.mean + analysis_shift)
    return _control_pass(s, external, _design_draws(s, design), effect)


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
