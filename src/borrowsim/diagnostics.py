"""Posterior shape diagnostics for two-component normal mixtures.

Mode and antimode finding by derivative sign scan plus bisection, the
mode-to-antimode density ratio used to grade bimodality strength, a
(weight x conflict) map of that ratio, and level-set highest-density
intervals which may come out disjoint when the posterior splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianMixture, SufficientStat, brentq, mixture_cdf, mixture_density, mixture_pdf
from .priors import Normal
from . import inference, priors

__all__ = [
    "BimodalityReport",
    "find_modes",
    "bimodality_ratio",
    "obm",
    "bimodality_map",
    "MAP_WEIGHTS",
    "map_biases",
    "hpd_disjoint",
]

_SCAN_POINTS = 2000
_REFINE_TOL = 1e-9
# Mixtures per block of the derivative scan: bounds its (2000 x block) arrays.
_BATCH = 16


@dataclass(frozen=True)
class BimodalityReport:
    """Stationary-point summary of a two-component mixture density.

    ``ratio`` is the smaller mode density divided by the antimode density
    (1 when unimodal, by the merging-modes limit).
    """

    n_modes: int
    modes: tuple[tuple[float, float], ...]
    antimode: tuple[float, float] | None
    ratio: float


def _pdf_derivative(x, weights, means, sds):
    """Derivative of ``mixture_density`` in x, each step written into this
    thread's buffers (the result is "pdf_out")."""
    out, d, z, phi = (inference.work_array("pdf_" + name, *x.shape) for name in ("out", "d", "z", "phi"))
    out.fill(0.0)
    for w, mu, sd in zip(weights, means, sds):
        np.divide(np.subtract(x, mu, out=d), sd, out=z)
        np.exp(np.multiply(np.multiply(-0.5, z, out=phi), z, out=phi), out=phi)
        np.divide(phi, sd * math.sqrt(2 * math.pi), out=phi)
        out += np.divide(np.multiply(np.multiply(-w, phi, out=phi), d, out=phi), sd * sd, out=phi)
    return out


def _modes(weights, means, sds):
    """Modes and antimodes of R two-component mixtures at once.

    Column r of the (2, R) arrays is one mixture. Stationary points are
    bracketed by a derivative sign scan on a 2000-point grid spanning
    [min mean - 6 max sd, max mean + 6 max sd], ``_BATCH`` mixtures at a
    time, over the grid points from the last at or below the lower mean to
    the first at or above the upper one (no sign change lies outside
    them), and every sign change of the batch is refined by one masked
    bisection to width 1e-9; a mixture of two normals has at most two
    modes, so the grid is not binding.
    Returns ``(n_modes, x, f, ratio)``: x and f (R, 3) hold the first mode,
    the last mode and the antimode between them (NaN when unimodal).
    """
    R = weights.shape[1]
    lo = means.min(axis=0) - 6.0 * sds.max(axis=0)
    hi = means.max(axis=0) + 6.0 * sds.max(axis=0)
    flips = []
    for start in range(0, R, _BATCH):
        sl = slice(start, start + _BATCH)
        grid = np.linspace(lo[sl], hi[sl], _SCAN_POINTS)
        # Every term of the derivative is >= 0 at or below the lower mean and
        # <= 0 at or above the upper one (the sign of x - mean is exact), so
        # every sign change lies between the last grid point at or below the
        # one and the first at or above the other: only those rows are scanned.
        first = (grid <= means[:, sl].min(axis=0)).sum(axis=0) - 1
        last = _SCAN_POINTS - (grid >= means[:, sl].max(axis=0)).sum(axis=0)
        rows = np.minimum(first + np.arange(int((last - first).max()) + 1)[:, None], _SCAN_POINTS - 1)
        scan = np.take_along_axis(grid, rows, axis=0)
        deriv = _pdf_derivative(scan, weights[:, sl], means[:, sl], sds[:, sl])
        up, down = deriv > 0, deriv < 0
        col, idx = np.nonzero(((up[:-1] & down[1:]) | (down[:-1] & up[1:])).T)
        flips.append((start + col, scan[idx, col], scan[idx + 1, col], deriv[idx, col]))
    col, a, b, f_a = (np.concatenate(v) for v in zip(*flips))

    # Masked bisection of every sign change at once.
    w, mu, sd = weights[:, col], means[:, col], sds[:, col]
    rising = f_a > 0
    roots = np.full(col.size, np.nan)
    active = b - a > _REFINE_TOL
    while active.any():
        mid = 0.5 * (a + b)
        f_mid = _pdf_derivative(mid, w, mu, sd)
        hit = active & (f_mid == 0.0)
        roots[hit] = mid[hit]
        active &= ~hit
        same = (f_a > 0) == (f_mid > 0)
        a = np.where(active & same, mid, a)
        f_a = np.where(active & same, f_mid, f_a)
        b = np.where(active & ~same, mid, b)
        active &= b - a > _REFINE_TOL
    roots = np.where(np.isnan(roots), 0.5 * (a + b), roots)

    # Per mixture (flips run in column order): the first and last maximum,
    # and the first minimum strictly between them.
    x = np.full((R, 3), np.nan)
    n_max = np.bincount(col[rising], minlength=R)
    ends = np.cumsum(n_max)
    has, two = n_max > 0, n_max > 1
    x[has, 0] = roots[rising][ends[has] - n_max[has]]
    x[two, 1] = roots[rising][ends[two] - 1]
    inside = ~rising & (roots > x[col, 0]) & (roots < x[col, 1])
    cols, first = np.unique(col[inside], return_index=True)
    x[cols, 2] = roots[inside][first]

    # A mixture with no refined maximum takes the grid's highest point; a
    # dead zone between far-separated modes (the density underflowed to 0
    # on the whole stretch, so no sign change) takes the lowest grid point
    # between the modes.
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


def find_modes(m: GaussianMixture) -> BimodalityReport:
    """Locate the modes (and antimode, if any) of a 2-component mixture
    (the batch finder ``_modes`` on one column)."""
    if len(m) != 2:
        raise ValueError(f"mode finding is defined for 2 components, got {len(m)}")
    n_modes, x, f, ratio = _modes(
        np.asarray(m.weights)[:, None], m.means()[:, None], m.sds()[:, None]
    )
    points = [(float(a), float(b)) for a, b in zip(x[0], f[0])]
    if n_modes[0] == 1:
        return BimodalityReport(1, (points[0],), None, 1.0)
    return BimodalityReport(2, tuple(points[:2]), points[2], float(ratio[0]))


def bimodality_ratio(m: GaussianMixture) -> float:
    """min(mode densities) / antimode density; 1 for a unimodal mixture."""
    return find_modes(m).ratio


# Short alias matching the result-table column name.
obm = bimodality_ratio


# Default axes of the map, which the config's defaults read: weights
# 0, 0.01, ..., 1 and biases 0, sd_ext/10, ..., 4 sd_ext.
MAP_WEIGHTS = tuple(round(0.01 * i, 10) for i in range(101))


def map_biases(sd_ext: float) -> list[float]:
    return [round(i * sd_ext / 10.0, 12) for i in range(41)]


def bimodality_map(scenario, w_grid=None, bias_grid=None) -> np.ndarray:
    """Posterior bimodality ratio over a (weight x bias) grid.

    The posterior is built with the observed current mean pinned to the
    true mean (the scenario's null value); the external mean sits at
    null + bias. The prior is one ``AxisBank`` over every (weight, bias)
    point, a log-weight column each, and the map is one ``posterior_bank``
    call over its component means, fed to one run of the batch mode
    finder. Requires the Normal robust form (the k-component heavy-tail
    bank can have more than two modes and is out of scope).

    Returns an array of shape (len(w_grid), len(bias_grid)).
    """
    if not isinstance(scenario.prior.form, Normal):
        raise TypeError("bimodality is assessed for the Normal robust form only")
    if w_grid is None:
        w_grid = MAP_WEIGHTS
    if bias_grid is None:
        bias_grid = map_biases(scenario.sd_ext)
    shape = (len(w_grid), len(bias_grid))
    if 0 in shape:
        return np.empty(shape)
    data = SufficientStat(scenario.null_mean, scenario.n, scenario.sigma)
    externals = [scenario.external_at(b) for b in bias_grid] * shape[0]
    weights = np.repeat(np.asarray(w_grid, dtype=float), shape[1])
    bank = priors.AxisBank(scenario.prior, externals, weights=weights)
    P = weights.size
    means = bank.means(np.arange(P), np.full(P, data.mean), np.empty((2, P)))
    W, post_means, post_vars = inference.posterior_bank(
        means, bank.variances, bank.log_w, data.mean, data.n, data.sigma
    )
    # The exact renormalization a GaussianMixture applies to its weights.
    W = W / (W[0] + W[1])
    sds = np.broadcast_to(np.sqrt(post_vars)[:, None], W.shape)
    return _modes(W, post_means, sds)[3].reshape(shape)


def hpd_disjoint(m: GaussianMixture, level: float):
    """Highest-density region of the mixture at the given mass level.

    Finds the density cutoff whose superlevel set carries exactly
    ``level`` mass (root search on the cutoff; set mass via CDF
    differences at the level-set boundaries) and returns
    ``(is_disjoint, intervals)``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    means = m.means()
    sds = m.sds()
    lo = float(means.min() - 9.0 * sds.max())
    hi = float(means.max() + 9.0 * sds.max())
    grid = np.linspace(lo, hi, 8001)
    pdf_grid = mixture_pdf(grid, m)
    peak = float(pdf_grid.max())

    def intervals_at(c):
        vals = pdf_grid - c
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        crossings = [
            brentq(lambda x: mixture_pdf(x, m) - c, grid[i], grid[i + 1],
                   xtol=1e-13, rtol=8.9e-16)
            for i in idx
        ]
        # The density dips below any positive cutoff at the grid edges, so
        # crossings pair up as (enter, leave).
        if len(crossings) % 2 == 1:
            crossings = crossings[:-1] if vals[0] > 0 else crossings[1:]
        return [(crossings[i], crossings[i + 1]) for i in range(0, len(crossings), 2)]

    def mass_minus_level(c):
        return sum(
            mixture_cdf(b, m) - mixture_cdf(a, m) for a, b in intervals_at(c)
        ) - level

    c_hi = peak * (1.0 - 1e-9)
    c_lo = peak * 1e-12
    cutoff = brentq(mass_minus_level, c_lo, c_hi, xtol=peak * 1e-14, rtol=8.9e-16)
    result = intervals_at(cutoff)
    mass = mass_minus_level(cutoff) + level
    if abs(mass - level) > 1e-6:
        raise RuntimeError(
            f"level-set root search left mass {mass:.8f} != {level:.8f}"
        )
    return len(result) > 1, result
