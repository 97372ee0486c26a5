"""One-arm operating characteristics.

Monte Carlo estimates of the type-I-error rate, power, RMSE and mean
posterior informative weight of the borrowing test, and a deterministic
route via the rejection region in the observed mean (the decision depends
on the data only through it). Because of that dependence the Monte Carlo
TIE and power are counts of the sorted common draws that fall in the
rejection region, not posterior passes. The RMSE and the mean weight are
read off one tail-free posterior pass. A cell's TIE and power share one
region, and its RMSE and mean weight one pass, through a per-thread slot.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .inference import bank_chunks, posterior_bank
from .priors import EXACT_T_NODES, StudentT, bank_means, prior_bank_params
from .scenarios import OneArmScenario, base_normals, sorted_normals

__all__ = [
    "one_arm_tie",
    "one_arm_power",
    "one_arm_rmse",
    "one_arm_rejection_region",
    "one_arm_tie_exact",
    "one_arm_power_exact",
]

# Largest disagreement allowed between the exact-t banks at the node count
# a cell uses and at twice as many, over the cell's scan; the node counts
# tried after EXACT_T_NODES (needed where the t scale is narrow against se).
EXACT_T_TOL = 1e-12
_EXACT_T_FALLBACK = (80, 160)

# Absolute tolerance of the region's boundary refinement, and the half-width
# (in se) of the band around a finite boundary whose draws the Monte Carlo
# count re-decides one by one: far wider than the refinement's tolerance
# (added on top, see ``_guard``) and the kernel's rounding at a crossing.
_BRENTQ_XTOL = 1e-12
_GUARD_SE = 1e-9


def _bank_stats(s: OneArmScenario, bank, ybar: np.ndarray, tails: bool = True):
    """Per-draw tail (None unless ``tails``: the ndtr is half the cost of a
    101-component pass), posterior mean and informative weight."""
    variances, log_w, info_mean, robust_loc = bank
    J = variances.size
    ybar = np.asarray(ybar, dtype=float)
    tail = np.empty_like(ybar) if tails else None
    pmeans = np.empty_like(ybar)
    w_info = np.empty_like(ybar)
    for sl in bank_chunks(ybar.size, J):
        yb = ybar[sl]
        means = bank_means(info_mean, robust_loc, J, yb)
        W, pm, pv = posterior_bank(means, variances, log_w, yb, s.n, s.sigma)
        if tails:
            sd = np.sqrt(pv)[:, None]
            tail[sl] = np.einsum("jr,jr->r", W, ndtr((s.null_mean - pm) / sd))
        pmeans[sl] = np.einsum("jr,jr->r", W, pm)
        w_info[sl] = W[0]
    return tail, pmeans, w_info


def _tail_function(s: OneArmScenario, bias: float):
    """Posterior tail at the null as a function of observed means, with the
    cell's prior bank built once."""
    bank = prior_bank_params(s.prior, s.external_at(bias))
    return lambda ys: _bank_stats(s, bank, ys)[0]


def _draws(s: OneArmScenario, at_mean: float) -> np.ndarray:
    z = base_normals(s.seed, s.scenario_id, "current", s.reps)
    return at_mean + s.se * z


def _guard(se: float, c: float) -> float:
    """Half-width of the band around boundary ``c`` whose draws are
    re-decided: 1e-9 se plus twice brentq's tolerance at ``c``."""
    return _GUARD_SE * se + 2.0 * (_BRENTQ_XTOL + 4.0 * np.finfo(float).eps * abs(c))


def _count_rejections(z, at_mean, se, intervals, window, decide) -> int:
    """Rejections among the observed means ``at_mean + se * z``, z ascending.

    The observed means stay sorted (float multiply-add is monotone). Draws
    inside ``window`` and clear of every finite boundary's guard band are
    decided by ``intervals``, with one search pair per interval; the others
    (outside the window, where the region's infinite ends are only assumed,
    or within a guard band) by ``decide``, the per-draw rule, on the same
    floats the per-draw route forms. The searches run on z, so a draw
    within a few ulps of a band's edge may land on either side of it; both
    sides decide it alike, because the band is far wider than the error of
    its boundary. The count therefore equals the per-draw decisions.
    """
    n = z.size

    def first(c: float, strict: bool = False) -> int:
        """First index whose observed mean is >= c (> c when ``strict``)."""
        return int(np.searchsorted(z, (c - at_mean) / se, side="right" if strict else "left"))

    lo, hi = window
    i_lo, i_hi = first(lo), first(hi, strict=True)
    count = 0
    one_by_one = [(0, i_lo), (i_hi, n)]
    for a, b in intervals:
        start = i_lo if math.isinf(a) else max(i_lo, first(a + _guard(se, a), strict=True))
        stop = i_hi if math.isinf(b) else min(i_hi, first(b - _guard(se, b)))
        count += max(0, stop - start)
        for c in (a, b):
            if math.isfinite(c):
                g = _guard(se, c)
                one_by_one.append((max(i_lo, first(c - g)), min(i_hi, first(c + g, strict=True))))
    # Guard bands of close boundaries overlap: decide each draw once.
    idx = np.unique(np.concatenate([np.arange(a, b) for a, b in one_by_one]))
    if idx.size:
        count += int(np.count_nonzero(decide(at_mean + se * z[idx])))
    return count


# The last cell's shared value on each thread: its default-route rejection
# region, or its tail-free pass. A sweep computes a cell's TIE and power,
# then its RMSE and mean weight, one after the other on one worker thread,
# so each pair shares one computation; the slot dies with the sweep's
# workers, so no later run's call counts depend on what ran before.
_last_cell = threading.local()


def _shared(s: OneArmScenario, bias: float, centre, compute):
    """``compute()``, or the value this thread last stored under the same
    (scenario, bias, observed-mean centre)."""
    last = getattr(_last_cell, "value", None)
    if last is None or last[0] != (s, bias, centre):
        last = _last_cell.value = ((s, bias, centre), compute())
    return last[1]


def _shared_region(s: OneArmScenario, bias: float) -> tuple:
    """Default-route rejection region of a cell, computed once for the
    cell's TIE and power (either route) when they run back to back."""
    return _shared(s, bias, None, lambda: tuple(one_arm_rejection_region(s, bias)))


def _tail_free_pass(s: OneArmScenario, bias: float, centre: float) -> tuple[float, float]:
    """RMSE of the posterior mean around ``centre`` and mean informative
    weight, over the common draws at ``centre``: one pass that skips the
    tails, shared by a cell's RMSE and mean weight at the same centre."""

    def compute():
        bank = prior_bank_params(s.prior, s.external_at(bias))
        _, pmeans, w_info = _bank_stats(s, bank, _draws(s, centre), tails=False)
        return float(np.sqrt(np.mean((pmeans - centre) ** 2))), float(np.mean(w_info))

    return _shared(s, bias, centre, compute)


def _rejection_rate(s: OneArmScenario, bias: float, at_mean: float) -> float:
    """Share of the common draws at ``at_mean`` that the test rejects."""
    z = sorted_normals(s.seed, s.scenario_id, "current", s.reps)

    def decide(ys):
        return _tail_function(s, bias)(ys) <= s.alpha

    region = _shared_region(s, bias)
    return _count_rejections(z, at_mean, s.se, region, _scan_window(s), decide) / s.reps


def one_arm_tie(s: OneArmScenario, bias: float) -> float:
    """Monte Carlo rejection rate with the truth at the null boundary."""
    return _rejection_rate(s, bias, s.null_mean)


def one_arm_power(s: OneArmScenario, bias: float) -> float:
    """Monte Carlo rejection rate with the truth at the alternative."""
    return _rejection_rate(s, bias, s.alt_mean)


def one_arm_rmse(s: OneArmScenario, bias: float, true_mean: float | None = None):
    """RMSE of the posterior mean around the truth, raw and standardized.

    Standardization divides by the exact RMSE of the maximum-likelihood
    estimate, sigma / sqrt(n).
    """
    if true_mean is None:
        true_mean = s.null_mean
    rmse = _tail_free_pass(s, bias, true_mean)[0]
    return rmse, rmse / s.se


def mean_posterior_weight(s: OneArmScenario, bias: float) -> float:
    """Monte Carlo mean of the posterior informative weight at the null."""
    return _tail_free_pass(s, bias, s.null_mean)[1]


def _scan_window(s: OneArmScenario) -> tuple[float, float]:
    return s.null_mean - 12.0 * s.se, s.null_mean + 12.0 * s.se


def _exact_t_shifts(form: StudentT, near: float, far: float) -> np.ndarray:
    """Rate shifts of the exact-t banks covering conflicts in [near, far]:
    a bank shifted by d serves conflicts up to sqrt(2 d**2 + df scale**2),
    which leaves at most exp(-u) of the conflict factor to its rule."""
    shifts = [near]
    while (reach := math.sqrt(2.0 * shifts[-1] ** 2 + form.df * form.scale**2)) < far:
        shifts.append(reach)
    return np.array(shifts)


def _exact_t_tails(s: OneArmScenario, bias: float, nodes: int):
    """Exact-t posterior tail as a function of observed means in the scan
    window: one Gauss-Laguerre bank (``t_laguerre_bank``) per band of
    conflict to the robust location, shifted by the band's smallest."""
    if not isinstance(s.prior.form, StudentT):
        raise TypeError("exact-t decisions need a StudentT robust form")
    external = s.external_at(bias)
    robust_loc = prior_bank_params(s.prior, external)[3]
    lo, hi = _scan_window(s)
    if robust_loc is None:  # the location tracks the observed mean
        near = far = 0.0
    else:
        near = max(0.0, lo - robust_loc, robust_loc - hi)
        far = max(robust_loc - lo, hi - robust_loc)
    shifts = _exact_t_shifts(s.prior.form, near, far)
    banks = [prior_bank_params(s.prior, external, t_shift=d, t_nodes=nodes) for d in shifts]

    def tails(ys):
        dist = np.zeros_like(ys) if robust_loc is None else np.abs(ys - robust_loc)
        band = np.clip(np.searchsorted(shifts, dist, side="right") - 1, 0, None)
        out = np.empty_like(ys)
        for b in np.unique(band):
            out[band == b] = _bank_stats(s, banks[b], ys[band == b])[0]
        return out

    return tails


def _checked_exact_t(s: OneArmScenario, bias: float, ys: np.ndarray):
    """Exact-t tail function and its values on ``ys`` at the first node
    count whose double agrees to EXACT_T_TOL on ``ys``; RuntimeError when
    none does."""
    tails = _exact_t_tails(s, bias, EXACT_T_NODES)
    scan = tails(ys)
    for nodes in (EXACT_T_NODES,) + _EXACT_T_FALLBACK:
        finer = _exact_t_tails(s, bias, 2 * nodes)
        finer_scan = finer(ys)
        residual = float(np.max(np.abs(scan - finer_scan)))
        if residual <= EXACT_T_TOL:
            return tails, scan, nodes
        tails, scan = finer, finer_scan
    raise RuntimeError(
        f"exact-t bank unconverged: {nodes} and {2 * nodes} nodes differ "
        f"by {residual:g} (> {EXACT_T_TOL:g}) on the scan at t scale "
        f"{s.prior.form.scale:g} and current-data se {s.se:g}; the route "
        f"covers t scales down to about se/2 ({0.5 * s.se:g})"
    )


def one_arm_rejection_region(
    s: OneArmScenario,
    bias: float,
    *,
    use_exact_t: bool = False,
    scan_points: int | None = None,
):
    """Intervals of observed means where the test rejects.

    Boundaries come from a sign scan of tail(ybar) - alpha over
    null +- 12 se followed by root refinement; under prior-data conflict
    the region can be a union of two intervals, which is exactly the
    mechanism behind non-monotone error rates. Open ends are +-inf.

    ``use_exact_t`` takes the robust t exactly rather than as its k-point
    bank, and checks its own node count (``_checked_exact_t``). Both
    routes scan 2001 points unless ``scan_points`` says otherwise.
    """
    lo, hi = _scan_window(s)
    ys = np.linspace(lo, hi, 2001 if scan_points is None else scan_points)
    if use_exact_t:
        tails, scan, _ = _checked_exact_t(s, bias, ys)
    else:
        tails = _tail_function(s, bias)
        scan = tails(ys)
    vals = scan - s.alpha

    def tail(y: float) -> float:
        return float(tails(np.array([float(y)]))[0])

    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    crossings = [
        brentq(lambda y: tail(y) - s.alpha, ys[i], ys[i + 1], xtol=_BRENTQ_XTOL)
        for i in idx
    ]
    edges = [lo] + crossings + [hi]
    intervals: list[tuple[float, float]] = []
    for a, b in zip(edges[:-1], edges[1:]):
        if tail(0.5 * (a + b)) <= s.alpha:
            left = -math.inf if a == lo else a
            right = math.inf if b == hi else b
            if intervals and intervals[-1][1] == left:
                intervals[-1] = (intervals[-1][0], right)
            else:
                intervals.append((left, right))
    return intervals


def _region_probability(intervals, mean: float, se: float) -> float:
    total = 0.0
    for a, b in intervals:
        hi = 1.0 if math.isinf(b) else float(ndtr((b - mean) / se))
        lo = 0.0 if math.isinf(a) else float(ndtr((a - mean) / se))
        total += hi - lo
    return total


def _region(s: OneArmScenario, bias: float, kwargs):
    return one_arm_rejection_region(s, bias, **kwargs) if kwargs else _shared_region(s, bias)


def one_arm_tie_exact(s: OneArmScenario, bias: float, **kwargs) -> float:
    """Noise-free TIE: Gaussian mass of the rejection region at the null."""
    return _region_probability(_region(s, bias, kwargs), s.null_mean, s.se)


def one_arm_power_exact(s: OneArmScenario, bias: float, **kwargs) -> float:
    return _region_probability(_region(s, bias, kwargs), s.alt_mean, s.se)
