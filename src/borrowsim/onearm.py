"""One-arm operating characteristics.

Monte Carlo estimates of the type-I-error rate, power, RMSE and mean
posterior informative weight of the borrowing test, and a deterministic
route via the rejection region in the observed mean (the decision depends
on the data only through it). Both routes' TIE and power are made per
curve (``oc_curve``; a cell is a one-point curve) from one decision
boundary: one kernel pass scans every point's tail, and the scan's sorted
``_brackets`` are narrowed by bisection to count the sorted common draws
(those near a crossing re-decided in one batched kernel call), or refined
by ``gaussian.brentq`` (SciPy's Brent solve, transcribed bit for bit) into
the exact region (the exact scan covers the whole window, the Monte Carlo
one the grid points that bracket its draws). The
RMSE and the mean weight are read off one tail-free posterior pass. Each
curve is built by the call that asks for it; the sorted draws and a cell's
tail-free pass are run values, one per sweep run (``scenarios._run_shared``).
The exact route has one curve entry (``oc_curve(exact=True)``) and one
one-point entry, ``one_arm_tie_exact``, the only way into the exact-t
route (the robust t taken exactly, not as its k-point bank: one normal
bank per cell from the trapezoid rule in the t's log precision, checked
against the rule at half its step).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .gaussian import bisect, brentq
from . import inference
# posterior_bank stays bound here unused: perfbench/tests/test_perfbench.py
# asserts that the tracer's wrapper replaces this binding.
from .inference import bank_chunks, posterior_bank, work_array  # noqa: F401
from .priors import AxisBank, StudentT, robust_location, t_trapezoid_bank
from .scenarios import OneArmScenario, _run_shared, base_normals, sorted_normals

__all__ = [
    "one_arm_rmse",
    "one_arm_tie_exact",
    "oc_curve",
]

# Largest disagreement allowed between the exact-t bank at its step and at
# half of it, over the cell's scan.
EXACT_T_TOL = 1e-12

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
        if tails:  # the ndtr argument goes into pm, spent once it is formed
            np.divide(np.subtract(s.null_mean, pm, out=pm), np.sqrt(pv)[:, None], out=pm)
            np.einsum("jr,jr->r", W, ndtr(pm, out=pm), out=tail[sl])
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
    ``_checked_exact_t`` scan and tail (one trapezoid-rule bank over every
    conflict in the window). A ``span`` (lo, hi) keeps the points
    from the one at or below lo to the one at or above hi (two at least),
    each row value the full grid's to the bit (a kernel column is chunk-free)."""
    ys = np.linspace(*_scan_window(s), points)
    if span is not None:
        lo = min(max(np.searchsorted(ys, span[0], side="right") - 1, 0), points - 2)
        ys = ys[lo:max(np.searchsorted(ys, span[1]), lo + 1) + 1]
    if use_exact_t:
        tails, scan = _checked_exact_t(s, *biases, ys)
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


def _curve(s: OneArmScenario, biases, z, centres):
    """A curve's ``_bands``, from one scan of every point's tail where the
    draws it counts fall, the sorted ``z`` about each of ``centres`` (the
    true means of the rates asked for: a TIE-only curve scans no power
    draw), and its rule ``decide(ys, point)``."""
    span = (min(centres) + s.se * z[0], max(centres) + s.se * z[-1])
    ys, scans, tails = _scan(s, biases, span=span)

    def decide(ys, point):
        return tails(ys, point) <= s.alpha

    # A bracket stops once it holds under one draw on expectation.
    stop = s.se * math.sqrt(2.0 * math.pi) / s.reps
    return _bands(ys, scans, decide, stop, inference._GUARD_SE * s.se), decide


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


def _tail_free_pass(s: OneArmScenario, bias: float, centre: float) -> tuple[float, float]:
    """RMSE of the posterior mean around ``centre`` and mean informative
    weight, over the common draws at ``centre``: one pass that skips the
    tails, a run value shared by a cell's RMSE and mean weight at the same centre."""
    def compute():
        bank = AxisBank(s.prior, [s.external_at(bias)])
        ybar = _draws(s, centre, out=work_array("draws", s.reps))
        pmeans, w_info = _bank_stats(s, bank, ybar, tails=False)
        dev = np.subtract(pmeans, centre, out=pmeans)
        return float(np.sqrt(np.mean(np.square(dev, out=dev)))), float(np.mean(w_info))

    return _run_shared(("tail-free", s, bias, centre), compute)


def oc_curve(s: OneArmScenario, biases, *, exact: bool = False, rates=("tie", "power")):
    """TIE and power (those named in ``rates``) at each bias, as lists of
    floats: Monte Carlo counts of the sorted common draws, or with
    ``exact`` the normal mass of each point's rejection region. One scan
    serves the curve."""
    if not (len(biases) and rates):
        return tuple([] for _ in rates)
    at = {"tie": s.null_mean, "power": s.alt_mean}
    if exact:
        regions = _exact_curve(s, biases)
        return tuple([_region_probability(r, at[rate], s.se) for r in regions] for rate in rates)
    z = sorted_normals(s.seed, s.scenario_id, "current", s.reps)
    bands, decide = _curve(s, biases, z, [at[rate] for rate in rates])
    counts = (_count_rejections(z, at[rate], s.se, bands, decide) for rate in rates)
    return tuple([int(c) / s.reps for c in count] for count in counts)


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


def _exact_t_tails(s: OneArmScenario, bias: float, halve: bool = False):
    """Exact-t posterior tail as a function of observed means: one normal
    bank (``t_trapezoid_bank``, at half its step with ``halve``) serving
    every conflict to the robust location in the scan window."""
    if not isinstance(s.prior.form, StudentT):
        raise TypeError("exact-t decisions need a StudentT robust form")
    external = s.external_at(bias)
    robust_loc = robust_location(s.prior, external)
    lo, hi = _scan_window(s)
    # Where the location tracks the observed mean, there is no conflict.
    far = 0.0 if robust_loc is None else max(robust_loc - lo, hi - robust_loc)
    bank = AxisBank(s.prior, [external], block=t_trapezoid_bank(s.prior.form, far, halve))
    return lambda ys, point=None: _bank_stats(s, bank, ys)


def _checked_exact_t(s: OneArmScenario, bias: float, ys: np.ndarray):
    """Exact-t tail function and its values on ``ys``, checked against the
    rule at half its step to EXACT_T_TOL on ``ys``; RuntimeError if they
    disagree."""
    tails = _exact_t_tails(s, bias)
    scan = tails(ys)
    residual = float(np.max(np.abs(scan - _exact_t_tails(s, bias, halve=True)(ys))))
    if not residual <= EXACT_T_TOL:
        raise RuntimeError(
            f"exact-t bank unconverged: the trapezoid rule's tails at steps h and h/2 "
            f"differ by {residual:g} (> {EXACT_T_TOL:g}) on the scan at t scale "
            f"{s.prior.form.scale:g}"
        )
    return tails, scan


def _exact_curve(s: OneArmScenario, biases, use_exact_t: bool = False, scan_points=None):
    """Each point's rejection region, the intervals of observed means where
    the test rejects (open ends -+inf; under prior-data conflict a union of
    two, the mechanism behind non-monotone error rates): the ``_regions``
    off the curve's ``_scan``."""
    points = _SCAN_POINTS if scan_points is None else scan_points
    if points < 2:
        raise ValueError(f"scan_points must be at least 2 (the window's ends), got {scan_points}")
    return _regions(*_scan(s, biases, points, use_exact_t), s.alpha)


def _region_probability(intervals, mean: float, se: float) -> float:
    total = 0.0
    for a, b in intervals:
        hi = 1.0 if math.isinf(b) else float(ndtr((b - mean) / se))
        lo = 0.0 if math.isinf(a) else float(ndtr((a - mean) / se))
        total += hi - lo
    return total


def one_arm_tie_exact(s: OneArmScenario, bias: float, *, use_exact_t: bool = False,
                      scan_points: int | None = None) -> float:
    """Noise-free TIE at one bias: the Gaussian mass at the null of the
    rejection region (``_exact_curve``), with ``use_exact_t`` under the
    robust t taken exactly rather than as its k-point bank (the trapezoid
    rule in log precision, checked by ``_checked_exact_t`` against its half
    step to 1e-12 on the scan), over ``scan_points`` (default 2001, at
    least 2) of the sign scan."""
    region = _exact_curve(s, (bias,), use_exact_t, scan_points)[0]
    return _region_probability(region, s.null_mean, s.se)
