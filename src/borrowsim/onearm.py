"""One-arm operating characteristics.

Monte Carlo estimates of the type-I-error rate, power, RMSE and mean
posterior informative weight of the borrowing test, and a deterministic
route via the rejection region in the observed mean (the decision depends
on the data only through it). Both routes' TIE and power are made per
curve (``oc_curve``; a cell is a one-point curve) from one decision
boundary: one kernel pass scans every point's tail, and the scan's sorted
``_brackets`` are narrowed by bisection to count the sorted common draws
(those near a crossing re-decided in one batched kernel call), or refined
by ``brentq`` into the exact region (the exact scan covers the whole
window, the Monte Carlo one the grid points that bracket its draws). The
RMSE and the mean weight are read off one tail-free posterior pass. Each
curve is built by the call that asks for it (a one-point rate scans alone);
only a cell's RMSE and mean weight share one pass, through a single-entry
per-thread memo.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import ndtr

from .gaussian import bisect, brentq
from . import inference
# posterior_bank stays bound here unused: perfbench/tests/test_perfbench.py
# asserts that the tracer's wrapper replaces this binding.
from .inference import bank_chunks, posterior_bank, work_array  # noqa: F401
from .priors import EXACT_T_NODES, AxisBank, StudentT, robust_location
from .scenarios import OneArmScenario, base_normals, sorted_normals

__all__ = [
    "one_arm_tie",
    "one_arm_power",
    "one_arm_rmse",
    "one_arm_rejection_region",
    "one_arm_tie_exact",
    "one_arm_power_exact",
    "oc_curve",
]

# Largest disagreement allowed between the exact-t banks at the node count
# a cell uses and at twice as many, over the cell's scan; the node counts
# tried after EXACT_T_NODES (needed where the t scale is narrow against se).
EXACT_T_TOL = 1e-12
_EXACT_T_FALLBACK = (80, 160)

# Points of the sign scan grid of tail - alpha over null +- 12 se (the
# exact route scans them all, the Monte Carlo count those that bracket its
# draws), and the absolute tolerance of the region's boundary refinement.
_SCAN_POINTS = 2001
_BRENTQ_XTOL = 1e-12


def _job_points(s: OneArmScenario) -> int:
    """Points per TIE/power job of a sweep's one-arm curve: as many as one
    kernel chunk of full-grid scans holds (131 at 2 components, 2 at 101)."""
    scan = AxisBank(s.prior, [s.external]).variances.size * _SCAN_POINTS
    return max(inference._CHUNK_ELEMENTS // scan, 1)


# The guard (in se) by which the Monte Carlo count widens the bands of draws
# it re-decides: far wider than the kernel's rounding at a crossing.
_GUARD_SE = 1e-9


def _bank_stats(s: OneArmScenario, bank: AxisBank, ybar: np.ndarray, tails: bool = True, point=None):
    """Per-draw tail (a new array), or without ``tails`` the per-draw
    posterior mean and informative weight (this thread's "pmeans" and
    "w_info" buffers; the ndtr is half the cost of a 101-component pass),
    under ``bank``'s prior at point[r] (0 if ``point`` is None) for
    ``ybar[r]``. Each chunk works in this thread's buffers and allocates
    nothing of size J x R."""
    J = bank.variances.size
    ybar = np.asarray(ybar, dtype=float)
    if tails:
        tail = np.empty_like(ybar)
    else:
        pmeans, w_info = work_array("pmeans", ybar.size), work_array("w_info", ybar.size)
    for sl in bank_chunks(ybar.size, J):
        yb = ybar[sl]
        W, pm, pv = bank.kernel(None if point is None else point[sl], yb, s.n, s.sigma)
        if tails:  # the ndtr argument goes into the spent "means" buffer
            scratch = np.subtract(s.null_mean, pm, out=work_array("means", J, yb.size))
            np.divide(scratch, np.sqrt(pv)[:, None], out=scratch)
            np.einsum("jr,jr->r", W, ndtr(scratch, out=scratch), out=tail[sl])
        else:
            np.einsum("jr,jr->r", W, pm, out=pmeans[sl])
            w_info[sl] = W[0]
    return tail if tails else (pmeans, w_info)


def _draws(s: OneArmScenario, at_mean: float, out=None) -> np.ndarray:
    """The common observed means at ``at_mean``, written into ``out`` if given."""
    z = base_normals(s.seed, s.scenario_id, "current", s.reps)
    return np.add(at_mean, np.multiply(s.se, z, out=out), out=out)


def _scan(s: OneArmScenario, biases, points: int = _SCAN_POINTS, use_exact_t: bool = False, span=None):
    """The grid ``ys`` over null +- 12 se, a curve's tail - alpha there (a
    row per point, one chunked kernel pass over banks built once) and its
    per-draw ``tails(ys, point)``; with ``use_exact_t``, one point's
    ``_checked_exact_t`` scan and tail. A ``span`` (lo, hi) keeps the points
    from the one at or below lo to the one at or above hi (two at least),
    each row value the full grid's to the bit (a kernel column is chunk-free)."""
    ys = np.linspace(*_scan_window(s), points)
    if span is not None:
        lo = min(max(np.searchsorted(ys, span[0], side="right") - 1, 0), points - 2)
        ys = ys[lo:max(np.searchsorted(ys, span[1]), lo + 1) + 1]
    if use_exact_t:
        tails, scan, _ = _checked_exact_t(s, *biases, ys)
        return ys, scan[None] - s.alpha, tails
    bank = AxisBank(s.prior, [s.external_at(b) for b in biases])

    def tails(ys, point):
        return _bank_stats(s, bank, ys, point=point)

    scans = tails(np.tile(ys, len(biases)), np.repeat(np.arange(len(biases)), ys.size)) - s.alpha
    return ys, scans.reshape(len(biases), -1), tails


def _brackets(ys, scans):
    """Sorted brackets (point, lo, hi, above, cut) of ``scans`` (tail -
    alpha at ``ys``, a row per point): each sign change's scan interval
    (cut NaN), the two scan intervals beside a zero (cut at the zero) and
    either side of the window (cut -+inf). ``above``: whether the scan
    rejects past the cut, up to the point's next bracket (never past +inf)."""
    sign = np.sign(scans)
    n_points, n = sign.shape
    p, k = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    zp, zk = np.nonzero(sign == 0)
    zk_above = np.minimum(zk + 1, n - 1)
    every, edge = np.arange(n_points), np.ones(n_points)
    point = np.concatenate((p, zp, every, every))
    lo = np.concatenate((ys[k], ys[np.maximum(zk - 1, 0)], -np.inf * edge, ys[-1] * edge))
    hi = np.concatenate((ys[k + 1], ys[zk_above], ys[0] * edge, np.inf * edge))
    above = np.concatenate((sign[p, k + 1], sign[zp, zk_above], sign[:, 0], edge)) <= 0
    cut = np.concatenate((np.full(k.size, np.nan), ys[zk], -np.inf * edge, np.inf * edge))
    order = np.lexsort((lo, point))
    return point[order], lo[order], hi[order], above[order], cut[order]


def _curve(s: OneArmScenario, biases):
    """A curve's ``_bands``, from one scan of every point's tail where its
    TIE and power draws fall, and its per-draw rule ``decide(ys, point)``."""
    z = sorted_normals(s.seed, s.scenario_id, "current", s.reps)
    span = (min(s.null_mean, s.alt_mean) + s.se * z[0], max(s.null_mean, s.alt_mean) + s.se * z[-1])
    ys, scans, tails = _scan(s, biases, span=span)

    def decide(ys, point):
        return tails(ys, point) <= s.alpha

    # A bracket stops once it holds under one draw on expectation.
    stop = s.se * math.sqrt(2.0 * math.pi) / s.reps
    return _bands(ys, scans, decide, stop, _GUARD_SE * s.se), decide


def _bands(ys, scans, decide, stop: float, guard: float):
    """Bands (point, lo, hi, whether the scan rejects above hi) of observed
    means to re-decide: the ``_brackets`` of ``scans``, sign changes bisected
    on the rule ``decide(ys, point)`` to under ``stop`` wide, all widened by
    ``guard``. Between a band and the next of its point the sign holds."""
    point, lo, hi, above, cut = _brackets(ys, scans)
    i = np.flatnonzero(np.isnan(cut))
    p, left_rejects = point[i], ~above[i]
    lo[i], hi[i] = bisect(lo[i], hi[i], lambda mid: decide(mid, p) == left_rejects, stop)
    return point, lo - guard, hi + guard, above


def _regions(ys, scans, tails, alpha: float):
    """Each point's rejection region, a tuple of (lo, hi) intervals with
    -+inf open ends, from the ``_brackets`` of ``scans``: each sign change
    refined by ``brentq`` on the one-draw tail ``tails(ys, point)``, and
    the region's side past each cut read off the scan."""
    point, lo, hi, above, cut = _brackets(ys, scans)
    for i in np.flatnonzero(np.isnan(cut)):
        cut[i] = brentq(lambda y: float(tails(np.array([y]), point[i:i + 1])[0]) - alpha,
                        lo[i], hi[i], xtol=_BRENTQ_XTOL)
    # The region ends where the side changes. The scan rejects nothing past
    # +inf, so each point's first bracket follows an unrejected side.
    ends = above != np.concatenate(([False], above[:-1]))
    bounds = cut[ends].tolist()
    regions = [()] * scans.shape[0]
    for p, a, b in zip(point[ends][::2], bounds[::2], bounds[1::2]):
        regions[p] += ((a, b),)
    return regions


def _count_rejections(z, at_mean, se, bands, decide) -> np.ndarray:
    """Rejections at each point among the observed means ``at_mean + se *
    z``, z ascending: the draws between a band and the next of its point
    count if the scan rejects there, and each point's band draws are
    decided once, in one ``decide`` call on the floats the per-draw route
    forms. A draw within a few ulps of a band's end (the searches run on
    z) decides alike on either side, the guard being far wider than the
    scan's error, so the counts equal the per-draw decisions."""
    point, lo, hi, above = bands
    i_lo = np.searchsorted(z, (lo - at_mean) / se)
    i_hi = np.searchsorted(z, (hi - at_mean) / se, side="right")
    gaps = np.where(above[:-1] & (point[1:] == point[:-1]), np.maximum(i_lo[1:] - i_hi[:-1], 0), 0)
    counts = np.bincount(point[:-1], gaps, point[-1] + 1).astype(np.int64)
    sizes = np.maximum(i_hi - i_lo, 0)
    idx = np.arange(sizes.sum()) + np.repeat(i_lo - np.cumsum(sizes) + sizes, sizes)
    # A point's bands overlap where its brackets or zeros are close.
    point, idx = np.divmod(np.unique(np.repeat(point, sizes) * z.size + idx), z.size)
    if idx.size:
        counts += np.bincount(point[decide(at_mean + se * z[idx], point)], minlength=counts.size)
    return counts


# The last tail-free pass on each thread, with its key. A sweep computes a
# cell's RMSE and mean weight one after the other on one worker thread, so
# they share it; a worker's memo dies with it at the end of the run.
_last_pass = threading.local()


def _tail_free_pass(s: OneArmScenario, bias: float, centre: float) -> tuple[float, float]:
    """RMSE of the posterior mean around ``centre`` and mean informative
    weight, over the common draws at ``centre``: one pass that skips the
    tails, shared by a cell's RMSE and mean weight at the same centre."""
    key = (s, bias, centre)
    if getattr(_last_pass, "key", None) != key:
        bank = AxisBank(s.prior, [s.external_at(bias)])
        ybar = _draws(s, centre, out=work_array("draws", s.reps))
        pmeans, w_info = _bank_stats(s, bank, ybar, tails=False)
        dev = np.subtract(pmeans, centre, out=pmeans)
        _last_pass.value = float(np.sqrt(np.mean(np.square(dev, out=dev)))), float(np.mean(w_info))
        _last_pass.key = key
    return _last_pass.value


def oc_curve(s: OneArmScenario, biases, *, exact: bool = False, rates=("tie", "power")):
    """TIE and power (those named in ``rates``) at each bias, as lists of
    floats: Monte Carlo counts of the sorted common draws, or with
    ``exact`` the normal mass of each point's rejection region. One scan
    serves the curve."""
    if not len(biases):
        return tuple([] for _ in rates)
    at = {"tie": s.null_mean, "power": s.alt_mean}
    if exact:
        regions = _exact_curve(s, biases)
        return tuple([_region_probability(r, at[rate], s.se) for r in regions] for rate in rates)
    bands, decide = _curve(s, biases)
    z = sorted_normals(s.seed, s.scenario_id, "current", s.reps)
    counts = (_count_rejections(z, at[rate], s.se, bands, decide) for rate in rates)
    return tuple([int(c) / s.reps for c in count] for count in counts)


def one_arm_tie(s: OneArmScenario, bias: float) -> float:
    """Monte Carlo rejection rate with the truth at the null boundary."""
    return oc_curve(s, (bias,), rates=("tie",))[0][0]


def one_arm_power(s: OneArmScenario, bias: float) -> float:
    """Monte Carlo rejection rate with the truth at the alternative."""
    return oc_curve(s, (bias,), rates=("power",))[0][0]


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
    robust_loc = robust_location(s.prior, external)
    lo, hi = _scan_window(s)
    if robust_loc is None:  # the location tracks the observed mean
        near = far = 0.0
    else:
        near = max(0.0, lo - robust_loc, robust_loc - hi)
        far = max(robust_loc - lo, hi - robust_loc)
    shifts = _exact_t_shifts(s.prior.form, near, far)
    banks = [AxisBank(s.prior, [external], t_shift=d, t_nodes=nodes) for d in shifts]

    def tails(ys, point=None):
        dist = np.zeros_like(ys) if robust_loc is None else np.abs(ys - robust_loc)
        band = np.clip(np.searchsorted(shifts, dist, side="right") - 1, 0, None)
        out = np.empty_like(ys)
        for b in np.unique(band):
            out[band == b] = _bank_stats(s, banks[b], ys[band == b])
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


def _exact_curve(s: OneArmScenario, biases, use_exact_t: bool = False, scan_points=None):
    """Each point's ``_regions`` off the curve's ``_scan``."""
    points = _SCAN_POINTS if scan_points is None else scan_points
    if points < 2:
        raise ValueError(f"scan_points must be at least 2 (the window's ends), got {scan_points}")
    return _regions(*_scan(s, biases, points, use_exact_t), s.alpha)


def one_arm_rejection_region(
    s: OneArmScenario,
    bias: float,
    *,
    use_exact_t: bool = False,
    scan_points: int | None = None,
):
    """Intervals of observed means where the test rejects.

    Boundaries come from a sign scan of tail(ybar) - alpha over
    null +- 12 se, each crossing refined by ``brentq``; under prior-data
    conflict the region can be a union of two intervals, which is exactly
    the mechanism behind non-monotone error rates. Open ends are +-inf.

    ``use_exact_t`` takes the robust t exactly rather than as its k-point
    bank, and checks its own node count (``_checked_exact_t``). Both
    routes scan 2001 points unless ``scan_points`` (at least 2) says
    otherwise.
    """
    return list(_exact_curve(s, (bias,), use_exact_t, scan_points)[0])


def _region_probability(intervals, mean: float, se: float) -> float:
    total = 0.0
    for a, b in intervals:
        hi = 1.0 if math.isinf(b) else float(ndtr((b - mean) / se))
        lo = 0.0 if math.isinf(a) else float(ndtr((a - mean) / se))
        total += hi - lo
    return total


def one_arm_tie_exact(s: OneArmScenario, bias: float, **kwargs) -> float:
    """Noise-free TIE: Gaussian mass of the rejection region at the null."""
    return _region_probability(_exact_curve(s, (bias,), **kwargs)[0], s.null_mean, s.se)


def one_arm_power_exact(s: OneArmScenario, bias: float, **kwargs) -> float:
    return _region_probability(_exact_curve(s, (bias,), **kwargs)[0], s.alt_mean, s.se)
