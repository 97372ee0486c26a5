"""Hybrid-control operating characteristics.

The test rejects exactly when the treatment mean exceeds a threshold
T(control mean) that does not depend on the true effect and does not
fall as the control mean rises (the normal likelihood has a monotone
likelihood ratio). Vectorized bisection solves T for the deterministic
route, and checked Newton steps for the Monte Carlo one (``_threshold_brackets``).
The Monte Carlo TIE, power and design-prior averages work per curve (a
bias axis, ``oc_curve``, or an analysis-shift axis under a design prior,
``average_curve``), built by the call that asks for it: T solved once
for every point on a grid of control means whose interval count is the
power of two nearest sqrt(reps), the common joint draws bucket-sorted by
exact grid cell once per stream and run and counted by searches against
T at their cell's two ends, and the draws too close to it re-decided by
the per-draw kernel in one batched pass per effect. The deterministic route integrates the
treatment mean's tail above T over Gauss-Hermite nodes of the control
mean. Also the mean posterior weight, calibrated no-borrowing power,
bias-restricted summaries, and the sweet spots, those of a weight block
(curves differing only in the informative weight) advanced in lockstep,
one Gauss-Hermite threshold solve per step for all of them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import ndtr, ndtri

from . import inference
from .gaussian import bisect, gauss_rule
# posterior_bank stays bound here unused: perfbench/tests/test_perfbench.py
# asserts that the tracer's wrapper replaces this binding.
from .inference import bank_chunks, posterior_bank, work_array  # noqa: F401
from .priors import AxisBank, Normal
from .scenarios import (
    HybridScenario,
    OneArmScenario,
    SweetSpot,
    TreatmentPrior,
    _run_shared,
    base_normals,
    base_uniforms,
)

__all__ = [
    "calibrated_power_no_borrowing",
    "oc_curve",
    "sweet_spots",
    "delta_grid",
    "restricted_summary",
    "average_curve",
]

_GH_NODES = 160
# Half-width of the Gauss-Hermite route's initial threshold bracket, in sds
# of the widest superiority component.
_BRACKET_SDS = 14.0
# Bias resolution of the sweet spot's endpoints and argmax.
_SWEET_SPOT_RESOLUTION = 1e-3
# The Monte Carlo threshold curve: the bracket width (in se_t) its solve
# ends below (a checked Newton bracket is 1/8 of it) and the Newton steps it
# takes. Its grid size comes from the stream (``_grid_points``).
_MC_STOP_SE = 1e-2
_NEWTON_STEPS = 3
# Band draws re-decided per kernel call, which bounds the memory a count holds.
_BAND_DRAWS = 1 << 13


def _treatment_params(s: HybridScenario, analysis_external_mean: float):
    """Posterior of the treatment arm as mean = a + b * ybar_t, var."""
    if s.treatment_prior is TreatmentPrior.FLAT:
        return 0.0, 1.0, s.se_t**2
    # Unit-information prior centered at the external mean.
    post_var = s.sigma**2 / (s.n_t + 1)
    a = analysis_external_mean / (s.n_t + 1)
    b = s.n_t / (s.n_t + 1)
    return a, b, post_var


class _Bank(AxisBank):
    """The control arm's prior along an axis of external means
    (``AxisBank``; ``w`` the informative weight at each point) and the
    treatment posterior, mean ``a[point] + b * ybar_t`` and variance ``t_var``."""

    def __init__(self, s: HybridScenario, externals, weights=None):
        super().__init__(s.prior, externals, weights=weights)
        self.s = s
        self.w = np.broadcast_to(s.prior.informative_weight if weights is None else weights, len(externals))
        self.a = np.array([_treatment_params(s, e.mean)[0] for e in externals])
        _, self.b, self.t_var = _treatment_params(s, externals[0].mean)

    def posterior(self, yc, point):
        """The control posterior at control means ``yc`` under the prior at
        ``externals[point[r]]``, one ``AxisBank.kernel`` call: (W, pm, sj,
        a, pnb, dpnb), W and pm in this thread's buffers, sj the superiority
        components' sds and pnb, a function of treatment means (written
        into ``out`` if given), the probability that the treatment mean is
        not above the control mean (the test rejects where it is <= alpha),
        and dpnb its derivative, -b sum_j W_j phi(z_j) / sj_j at z_j = (pm_j
        - a - b * ybar_t) / sj_j. Both work in the "means" and "col"
        buffers: W and pm stay valid."""
        J, R = self.variances.size, yc.size
        W, pm, pv = self.kernel(point, yc, self.s.n_c, self.s.sigma)
        a, sj = self.a[point], np.sqrt(self.t_var + pv)[:, None]

        def z_at(yt):
            shift = np.multiply(self.b, yt, out=work_array("col", R))
            np.add(a, shift, out=shift)
            z = np.subtract(pm, shift[None, :], out=work_array("means", J, R))
            return np.divide(z, sj, out=z)

        def pnb(yt, out=None):
            z = z_at(yt)
            return np.einsum("jr,jr->r", W, ndtr(z, out=z), out=out)

        def dpnb(yt):
            z = z_at(yt)
            np.exp(np.multiply(-0.5, np.square(z, out=z), out=z), out=z)
            return np.einsum("jr,jr->r", W, np.divide(z, sj, out=z)) * (-self.b / math.sqrt(2 * math.pi))

        return W, pm, sj, a, pnb, dpnb

    def __call__(self, ybar_c, ybar_t=None, point=None) -> np.ndarray:
        """The per-draw kernel, in slices from bank_chunks: at control means
        ``ybar_c`` the posterior's informative weight, or with ``ybar_t``
        pnb, under the prior at ``externals[point[r]]`` (``externals[0]``
        if ``point`` is None). A chunk allocates nothing of size J x R."""
        point = np.zeros(ybar_c.size, np.intp) if point is None else point
        out = np.empty_like(ybar_c)
        for sl in bank_chunks(ybar_c.size, self.variances.size):
            W, _, _, _, pnb, _ = self.posterior(ybar_c[sl], point[sl])
            if ybar_t is None:
                out[sl] = W[0]
            else:
                pnb(ybar_t[sl], out=out[sl])
        return out


def _threshold_brackets(s: HybridScenario, bank: _Bank, biases, yc, stop=None):
    """Brackets (lo, hi) of the treatment-mean rejection threshold, each of
    shape (len(biases), yc.size): at control mean ``yc[k]``, under the
    bank's prior at point i (bias ``biases[i]``, for messages), the test
    does not reject at treatment mean ``lo[i, k]`` and rejects at
    ``hi[i, k]``. An error names the point's bias and weight.

    The superiority probability is strictly decreasing in the treatment
    mean, so every threshold can be found at once by at most 80 steps of
    vectorized bisection, from brackets first checked to enclose them.
    With ``stop`` unset (the Gauss-Hermite route) the brackets start at
    +-14 sds of the widest component and shrink to adjacent floats.

    With ``stop`` set (the Monte Carlo route, whose counts hold for any
    bracket that encloses the threshold) every threshold takes
    ``_NEWTON_STEPS`` (3) Newton steps on pnb - alpha from the posterior-
    weighted mean of the per-component crossings, each clipped to the
    crossings widened by ``stop`` (the threshold is a weighted mean's
    crossing, so it lies between them). The result x is kept as [x - h,
    x + h], h = stop / 16, where pnb(x - h) > alpha >= pnb(x + h). Only
    where that check fails does the bracket fall back to the widened
    crossings, checked as above, and bisection until every bracket is
    narrower than ``stop``; a checked Newton bracket stays valid under it.
    """
    yc = np.asarray(yc, dtype=float)
    nodes, b = yc.size, bank.b
    lo_out = np.empty((len(biases), nodes))
    hi_out = np.empty_like(lo_out)
    for sl in bank_chunks(len(biases), bank.variances.size * nodes):
        points = np.repeat(np.arange(sl.start, sl.stop), nodes)
        W, pm, sj, a, pnb, dpnb = bank.posterior(np.tile(yc, sl.stop - sl.start), points)
        if stop is None:
            span = _BRACKET_SDS * float(sj.max())
            lo = (pm.min(axis=0) - span - a) / b
            hi = (pm.max(axis=0) + span - a) / b
        else:
            crossings = (pm - sj * ndtri(s.alpha) - a) / b
            lo = crossings.min(axis=0) - stop
            hi = crossings.max(axis=0) + stop
            x, h = np.einsum("jr,jr->r", W, crossings), stop / 16
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                for _ in range(_NEWTON_STEPS):
                    x = np.clip(x - (pnb(x) - s.alpha) / dpnb(x), lo, hi)
            newton = (pnb(x - h) > s.alpha) & (pnb(x + h) <= s.alpha)
            lo, hi = np.where(newton, x - h, lo), np.where(newton, x + h, hi)
        if stop is None or not newton.all():
            for end, ok in (("lower", pnb(lo) > s.alpha), ("upper", pnb(hi) <= s.alpha)):
                if not ok.all():
                    i, node = divmod(int(np.argmin(ok)), nodes)
                    point = "Gauss-Hermite node" if stop is None else "control-mean grid point"
                    raise RuntimeError(
                        f"scenario {s.scenario_id!r}: the {end} end of the rejection-threshold "
                        f"bracket is on the wrong side at bias {float(biases[sl][i])!r} and weight "
                        f"{float(bank.w[sl][i])!r}, {point} {node} of {nodes}"
                    )
            lo, hi = bisect(lo, hi, lambda mid: pnb(mid) > s.alpha, stop)
        lo_out[sl] = lo.reshape(-1, nodes)
        hi_out[sl] = hi.reshape(-1, nodes)
    return lo_out, hi_out


def _grid_points(reps: int) -> int:
    """Points G of the Monte Carlo grid: G - 1 is the power of two nearest
    sqrt(reps), so the solve and search (growing with G) and the band
    (growing with reps / G) both stay small."""
    low = 1 << (math.isqrt(reps).bit_length() - 1)  # the largest power of two <= sqrt(reps)
    return 1 + (2 * low if math.sqrt(reps) > 1.5 * low else low)


class _Layout:
    """One stream's common joint draws sorted by grid cell k (distribution
    counting, Knuth TAOCP vol. 3, 5.2), then by the treatment mean at
    effect 0: ``keys`` is k * reps + the draw's rank among those means, so
    one integer search answers every (point, cell) query exactly. The grid
    has ``_grid_points(reps)`` points over the observed control means; a
    draw is in cell k when grid[k] <= its control mean < grid[k + 1], the
    last point being a cell of its own (at reps 1 the points coincide).
    It keeps the control and treatment streams ``zc`` and ``zt``."""

    def __init__(self, s: HybridScenario, design):
        self.theta = s.control_mean if design is None else _design_draws(s, design)
        self.zc, self.zt = (base_normals(s.seed, s.scenario_id, r, s.reps) for r in ("control", "treatment"))
        ybar_c = self.theta + s.se_c * self.zc
        y0, y1, G = float(ybar_c.min()), float(ybar_c.max()), _grid_points(s.reps)
        self.grid = np.linspace(y0, y1, G)
        # Floor arithmetic is at most one cell off: one comparison each way.
        k = np.minimum(((ybar_c - y0) / ((y1 - y0) / (G - 1) or 1.0)).astype(np.intp), G - 1)
        k -= ybar_c < self.grid[k]
        k += ybar_c >= np.append(self.grid[1:], np.inf)[k]
        k = k.astype(np.min_scalar_type(G - 1))
        v = self.theta + s.se_t * self.zt
        by_v = np.argsort(v)
        perm = np.argsort(k[by_v], kind="stable")  # a radix sort of the 8- or 16-bit cells
        self.order, self.v = by_v[perm], v[by_v]
        self.keys = k[self.order].astype(np.int64) * s.reps + perm
        self.ends = np.cumsum(np.bincount(k, minlength=G))


class _Curve:
    """Monte Carlo rejection counts along an axis of biases (``design``
    None), or of analysis shifts under the design prior of informative weight
    ``design``: one threshold solve for every point on the layout's grid,
    then one count of every point per effect. At a draw in grid cell k, T
    lies between the lower bracket end at point k and the upper end at k + 1
    (k for the last point) if T is monotone, which the grid checks."""

    def __init__(self, s: HybridScenario, design, axis):
        self.s, points = s, tuple(dict.fromkeys(axis))
        self.index = {p: i for i, p in enumerate(points)}
        externals = [
            s.external_at(p) if design is None else replace(s.external, mean=s.external.mean + p)
            for p in points
        ]
        self.bank = _Bank(s, externals)
        theta = s.control_mean if design is None else (design, s.external, _design_robust_variance(s))
        self.layout = _run_shared(
            (s.seed, s.scenario_id, s.reps, s.se_c, s.se_t, theta), lambda: _Layout(s, design)
        )
        lo, hi = _threshold_brackets(s, self.bank, points, self.layout.grid, _MC_STOP_SE * s.se_t)
        falls = np.argwhere(hi[:, 1:] < lo[:, :-1])
        if falls.size:
            i, k = (int(v) for v in falls[0])
            raise RuntimeError(
                f"scenario {s.scenario_id!r}: the rejection threshold falls between "
                f"control-mean grid points {k} and {k + 1} of {lo.shape[1]} at bias "
                f"{float(points[i])!r}, and the Monte Carlo counts need it non-decreasing"
            )
        guard = inference._GUARD_SE * s.se_t
        self.below = lo - guard
        self.above = np.concatenate((hi[:, 1:], hi[:, -1:]), axis=1) + guard  # hi[min(k + 1, G - 1)]

    def count(self, effect: float) -> np.ndarray:
        """Rejections at every point at treatment - control = ``effect``: a
        draw whose treatment mean is above the upper bracket end plus the
        guard (1e-9 se_t) rejects, one at or below the lower end minus it
        does not, and the band between is re-decided. The searches compare
        theta_c + se_t * z_t with an end minus the effect, which differs from
        the treatment mean by rounding only, far less than the guard: the
        counts equal the per-draw decisions."""
        s, lay = self.s, self.layout
        G = lay.grid.size
        cells = np.arange(G) * s.reps
        r_lo, r_hi = (np.searchsorted(lay.v, end - effect, side="right") for end in (self.below, self.above))
        p_hi = np.searchsorted(lay.keys, cells + r_hi).ravel()
        p_lo = np.minimum(np.searchsorted(lay.keys, cells + r_lo).ravel(), p_hi)
        counts = (lay.ends - p_hi.reshape(-1, G)).sum(axis=1)
        band_ends = np.cumsum(p_hi - p_lo)  # of each (point, cell) in the points' joint band
        for start in range(0, int(band_ends[-1]), _BAND_DRAWS):
            i = np.arange(start, min(start + _BAND_DRAWS, int(band_ends[-1])))
            c = np.searchsorted(band_ends, i, side="right")
            draw = lay.order[p_hi[c] - band_ends[c] + i]
            theta = lay.theta if np.ndim(lay.theta) == 0 else lay.theta[draw]
            p = self.bank(theta + s.se_c * lay.zc[draw], theta + effect + s.se_t * lay.zt[draw], c // G)
            counts += np.bincount(c[p <= s.alpha] // G, minlength=counts.size)
        return counts


def _rates(s: HybridScenario, design, axis, rates):
    """The named Monte Carlo rates at each point of ``axis`` (biases, or
    analysis shifts under ``design``): one curve, counted once per rate."""
    curve = _Curve(s, design, axis)
    effects = {"tie": 0.0, "power": s.effect}
    counts = {rate: curve.count(effects[rate]) for rate in rates}
    return tuple([int(counts[rate][curve.index[p]]) / s.reps for p in axis] for rate in rates)


def mean_posterior_weight(s: HybridScenario, bias: float) -> float:
    """MC mean of the control posterior informative weight under the null."""
    zc = base_normals(s.seed, s.scenario_id, "control", s.reps)
    return float(np.mean(_Bank(s, [s.external_at(bias)])(s.control_mean + s.se_c * zc)))


def _gh_thresholds(s: HybridScenario, biases, nodes: int = _GH_NODES, weights=None) -> np.ndarray:
    """Treatment-mean rejection thresholds, shape (len(biases), nodes): row i
    holds, at each Gauss-Hermite node of the control mean, the midpoint of the
    collapsed bracket at bias ``biases[i]`` (informative weight ``weights[i]``)."""
    biases = np.atleast_1d(np.asarray(biases, dtype=float))
    x, _ = gauss_rule("hermite", nodes)
    yc = s.control_mean + math.sqrt(2.0) * s.se_c * x
    lo, hi = _threshold_brackets(s, _Bank(s, [s.external_at(b) for b in biases], weights), biases, yc)
    return 0.5 * (lo + hi)


def _gh_curve(s: HybridScenario, biases, rates=("tie", "power"), nodes: int = _GH_NODES, weights=None):
    """``oc_curve``'s Gauss-Hermite route (``weights`` as in ``_gh_thresholds``): each rate
    sums the treatment mean's normal tail above the threshold over the nodes."""
    _, wts = gauss_rule("hermite", nodes)
    thresholds = _gh_thresholds(s, biases, nodes, weights)
    effects = {"tie": 0.0, "power": s.effect}
    tails = (1.0 - ndtr((thresholds - (s.control_mean + effects[r])) / s.se_t) for r in rates)
    return tuple([float(np.dot(wts, g) / math.sqrt(math.pi)) for g in tail] for tail in tails)


def oc_curve(s: HybridScenario, biases, *, exact: bool = False, rates=("tie", "power")):
    """TIE and power (those named in ``rates``) at each bias, as lists of
    floats.

    Monte Carlo (one threshold solve serves the curve, counted only at the
    rates' effects), or with ``exact`` the Gauss-Hermite route: one
    threshold solve per bias serves both rates (``_gh_curve``).
    """
    if not np.size(biases):
        return tuple([] for _ in rates)
    if not exact:
        return _rates(s, None, biases, rates)
    return _gh_curve(s, biases, rates)


def calibrated_power_no_borrowing(max_tie: float, s) -> float:
    """Closed-form z-test power at significance level ``max_tie``.

    Fair-comparison baseline: the no-borrowing test is rerun at the error
    rate the borrowing test actually achieved. A level of 0 (Monte Carlo
    TIEs can all be 0 at small reps) gives power 0: a z test at level 0
    never rejects.
    """
    if not 0.0 <= max_tie <= 1.0:
        raise ValueError(f"max_tie must be in [0, 1], got {max_tie!r}")
    if max_tie in (0.0, 1.0):
        return float(max_tie)
    z = float(ndtri(1.0 - max_tie))
    if isinstance(s, OneArmScenario):
        shift = (s.alt_mean - s.null_mean) * math.sqrt(s.n) / s.sigma
    elif isinstance(s, HybridScenario):
        shift = s.effect / s.se_diff
    else:
        raise TypeError(f"unsupported scenario {type(s).__name__}")
    return float(ndtr(shift - z))


def sweet_spots(block, grid) -> list[SweetSpot]:
    """The sweet spots (bias ranges with TIE at most alpha and power at
    least the plain test's) of a weight block (scenarios that differ only
    in the informative weight) over one bias ``grid``, in lockstep: each
    step is one threshold solve over the (weight, bias) points every open
    curve of ``_sweet_spot_steps`` asks for, and a curve drops out once its
    spot is found. A point's floats are those of a solve of its own."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("a sweet spot needs a bias grid spanning the candidate region")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("a sweet spot needs a strictly increasing bias grid")
    if not block:
        return []
    s = block[0]
    w0, p0 = s.prior.informative_weight, calibrated_power_no_borrowing(s.alpha, s)
    if any(replace(t, prior=replace(t.prior, informative_weight=w0)) != s for t in block):
        raise ValueError("the scenarios of a weight block may differ only in the informative weight")
    curves = [_sweet_spot_steps(grid) for _ in block]
    asks, spots = {c: next(curve) for c, curve in enumerate(curves)}, [None] * len(block)
    while asks:
        sizes = [len(biases) for biases in asks.values()]
        weights = np.repeat([block[c].prior.informative_weight for c in asks], sizes)
        ties, powers = _gh_curve(s, np.concatenate(list(asks.values())), weights=weights)
        ok = [t <= s.alpha + 1e-12 and p >= p0 - 1e-12 for t, p in zip(ties, powers)]
        for c, stop, size in zip(list(asks), np.cumsum(sizes), sizes):
            try:
                asks[c] = curves[c].send(tuple(v[stop - size:stop] for v in (ok, ties, powers)))
            except StopIteration as done:
                spots[c] = done.value
                del asks[c]
    return spots


def _sweet_spot_steps(grid):
    """One curve's sweet spot as a coroutine that yields the biases it needs
    next, is sent their (feasible, TIE, power) lists, and returns the spot:
    a scan of the bias grid (strictly increasing, at least two points; kept
    on the result as ``curve``), the widest contiguous feasible run
    (``contiguous`` False if the feasible set is split), both its ends
    bisected to ``_SWEET_SPOT_RESOLUTION`` in bias, and the maximum power
    over the refined interval."""
    ok, ties, powers = yield grid
    curve = tuple(zip(ties, powers))
    # Runs of feasible grid points as (first, last) index pairs.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.array(ok, dtype=int), [0]))))
    runs = list(zip(edges[::2], edges[1::2] - 1))
    if not runs:
        return SweetSpot(math.nan, math.nan, math.nan, math.nan, True, curve=curve)
    i0, i1 = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    # Both ends as [inside, outside], bisected together (one on the grid's edge starts collapsed).
    ends = [[grid[i0], grid[max(i0 - 1, 0)]], [grid[i1], grid[min(i1 + 1, grid.size - 1)]]]
    while todo := [e for e in ends if abs(e[1] - e[0]) > _SWEET_SPOT_RESOLUTION]:
        mids = [0.5 * (inside + outside) for inside, outside in todo]
        for end, mid, inside in zip(todo, mids, (yield mids)[0]):
            end[0 if inside else 1] = mid
    lower, upper = ends[0][0], ends[1][0]

    # Coarse argmax then golden-section refinement around it.
    coarse = np.linspace(lower, upper, 41)
    powers = np.array((yield coarse)[2])
    j = int(np.argmax(powers))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, coarse.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = (yield [c, d])[2]
    while hi - lo > _SWEET_SPOT_RESOLUTION:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            (fd,) = (yield [d])[2]
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            (fc,) = (yield [c])[2]
    argmax = 0.5 * (lo + hi)
    best = max(float(powers[j]), (yield [argmax])[2][0])
    if best == powers[j]:
        argmax = float(coarse[j])
    return SweetSpot(
        float(lower), float(upper), float(best), float(argmax), False, len(runs) == 1, curve
    )


def delta_grid(delta: float) -> np.ndarray:
    """Biases of the |bias| <= delta summaries: step delta/20, ends included."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    return np.linspace(-delta, delta, 41)


def restricted_summary(s: HybridScenario, ties, powers) -> tuple[float, float]:
    """Worst TIE and best power with borrowing minus the no-borrowing power
    calibrated to it: on the curve over ``delta_grid(delta)``, the summary
    of |bias| <= delta."""
    max_tie = max(ties)
    return max_tie, max(powers) - calibrated_power_no_borrowing(max_tie, s)


def _design_robust_variance(s: HybridScenario) -> float:
    if isinstance(s.prior.form, Normal):
        return s.prior.resolved_robust_variance()
    return s.prior.form.scale ** 2


def _design_draws(s: HybridScenario, weight: float) -> np.ndarray:
    """True control means drawn from the design prior: the scenario's
    mixture at informative weight ``weight``, centered at its external mean.
    Only a weight strictly between 0 and 1 draws each draw's component."""
    sd_rob = math.sqrt(_design_robust_variance(s))
    if 0.0 < weight < 1.0:
        u = base_uniforms(s.seed, s.scenario_id, "design-component", s.reps)
        sd = np.where(u < weight, s.sd_ext, sd_rob)
    else:
        sd = s.sd_ext if weight == 1.0 else sd_rob
    return s.external.mean + sd * base_normals(s.seed, s.scenario_id, "design", s.reps)


def average_curve(s: HybridScenario, weight: float, shifts):
    """TIE and power averaged over control means drawn from the design
    prior (``_design_draws`` at informative weight ``weight``), at each
    analysis shift, as lists of floats: one threshold solve serves the curve.

    Data are generated with equal arm means (TIE) or at the scenario's
    effect (power) conditional on each draw; the analysis prior is the
    scenario's mixture with its external mean shifted by the shift.
    """
    if weight is None or not 0.0 <= weight <= 1.0:  # _Curve reads None as the fixed control mean
        raise ValueError(f"the design prior's informative weight must be in [0, 1], got {weight!r}")
    if not len(shifts):
        return [], []
    return _rates(s, weight, shifts, ("tie", "power"))
