"""The one-arm TIE and power against a curve's scans: Monte Carlo counts
and exact regions.

The one-arm decision depends on the data only through the observed mean,
so the library scans the posterior tail of every point of a curve once,
narrows the brackets of its sign changes, and counts the sorted common
draws between them instead of taking a posterior tail per draw. Draws in
a narrowed bracket, beside a zero scan value, and outside the scan window
where the scan's sign is only assumed to hold, are re-decided by the
per-draw kernel. The counts must therefore equal the brute-force
per-draw rates exactly, not within Monte Carlo error. The exact route
reads each rejection region off the same scan and brackets, and must
equal the per-cell scan-and-midpoint region of ``oracles`` exactly.
"""

import collections
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borrowsim import (
    CurrentMean,
    ExternalMean,
    HybridScenario,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    OneArmScenario,
    StudentT,
    SufficientStat,
    one_arm_tie_exact,
)
from borrowsim import hybrid, onearm, scenarios
from borrowsim.config import normalize_config
from borrowsim.onearm import _bands, _count_rejections, _exact_curve, _region_probability, _regions
from borrowsim.priors import AxisBank
from borrowsim.recipes import recipe_config
from borrowsim.scenarios import join_run
from borrowsim.sweep import _curves, _grid_cell, run_config
from oracles import (
    bank_params_expression,
    bank_stats_expression,
    brute_force_power,
    brute_force_tie,
    cell_tails,
    rejection_region,
    scan_brentq_region,
)

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)
N = 20
SE = 1.0 / math.sqrt(N)

forms = st.one_of(
    st.builds(
        lambda n_robust: (Normal(), n_robust),
        st.floats(1.0 / 400.0, 2.0),
    ),
    st.builds(
        lambda df, scale, k: (StudentT(df, scale, k), 1.0),
        st.floats(2.0, 30.0, exclude_min=True),
        st.floats(0.3, 3.0),
        st.integers(2, 100),
    ),
)

cells = st.fixed_dictionaries({
    "form": forms,
    "w": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    "location": st.sampled_from([ExternalMean(), NullBoundary(0.0), CurrentMean()]),
    "conflict": st.floats(-1e3, 1e3),
    # Alternative in current-data se units above the null; beyond 12 the
    # draws leave the scan window.
    "alt": st.floats(0.01, 30.0),
    "reps": st.integers(1_000, 20_000),
    "seed": st.sampled_from([7, 20260810]),
})


def build(p):
    form, n_robust = p["form"]
    spec = MixturePriorSpec(p["w"], EXT, p["location"], form, n_robust=n_robust)
    s = OneArmScenario(0.0, p["alt"] * SE, N, 1.0, EXT, spec, seed=p["seed"], reps=p["reps"])
    return s, p["conflict"] * SD_EXT


def one_point(s, bias, rate, exact=False):
    """One rate at one bias: a one-point ``onearm.oc_curve``."""
    return onearm.oc_curve(s, [bias], exact=exact, rates=(rate,))[0][0]


def sorted_draws(s):
    """The scenario's sorted common draws, as ``oc_curve`` hands them to ``_curve``."""
    return scenarios.sorted_normals(s.seed, s.scenario_id, "current", s.reps)


@settings(max_examples=60, deadline=None)
@given(cells)
def test_counts_equal_the_brute_force_rates(p):
    s, bias = build(p)
    assert one_point(s, bias, "tie") == brute_force_tie(s, bias)
    assert one_point(s, bias, "power") == brute_force_power(s, bias)


@settings(max_examples=40, deadline=None)
@given(cells)
def test_extreme_conflicts_give_finite_bounded_numbers(p):
    # Conflicts to 1e3 sd-ext with n_robust down to 1/400: no NaN, no
    # underflow warning, and every rate and weight a probability.
    s, bias = build(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rmse_std = onearm.one_arm_rmse(s, bias)[1]
        assert math.isfinite(rmse_std) and rmse_std > 0.0
        for value in (onearm.mean_posterior_weight(s, bias), one_arm_tie_exact(s, bias),
                      one_point(s, bias, "power", exact=True)):
            assert 0.0 <= value <= 1.0
        if not isinstance(p["location"], NullBoundary):
            h = HybridScenario(N, N, 1.0, EXT, s.prior, effect=p["alt"] * SE, seed=p["seed"],
                               reps=p["reps"])
            assert 0.0 <= hybrid.mean_posterior_weight(h, bias) <= 1.0
            assert 0.0 <= hybrid.oc_curve(h, [bias], exact=True)[0][0] <= 1.0


@pytest.mark.parametrize("location", [ExternalMean(), NullBoundary(0.0), CurrentMean()],
                         ids=["external", "null-boundary", "current"])
@pytest.mark.parametrize("form, n_robust", [
    (Normal(), 1.0 / 400.0), (Normal(), 1.0), (Normal(), 2.0),
    (StudentT(3.0, 1.0, 100), 1.0), (StudentT(2.05, 0.3, 20), 1.0),
], ids=["normal-1/400", "normal-1", "normal-2", "t3-k100", "t2.05-k20"])
def test_rmse_and_weights_are_finite_on_the_extreme_grid(location, form, n_robust):
    # The grid's corners, not random draws: every weight, n_robust from
    # 1/400 to 2, both t banks, and conflicts to 1e3 sd-ext on either side.
    # RMSE, its standardized form and the one-arm and hybrid mean weights
    # are finite, the weights probabilities, and no step warns.
    for w in (0.0, 0.5, 1.0):
        spec = MixturePriorSpec(w, EXT, location, form, n_robust=n_robust)
        s = OneArmScenario(0.0, 2.8 * SE, N, 1.0, EXT, spec, seed=7, reps=2_000)
        h = None
        if not isinstance(location, NullBoundary):
            h = HybridScenario(N, N, 1.0, EXT, spec, effect=2.8 * SE, seed=7, reps=2_000)
        for conflict in (0.0, 10.0, -10.0, 100.0, -100.0, 1e3, -1e3):
            bias = conflict * SD_EXT
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rmse, rmse_std = onearm.one_arm_rmse(s, bias)
                weights = [onearm.mean_posterior_weight(s, bias)]
                if h is not None:
                    weights.append(hybrid.mean_posterior_weight(h, bias))
            assert math.isfinite(rmse) and math.isfinite(rmse_std) and rmse_std > 0.0, (w, conflict)
            assert all(0.0 <= v <= 1.0 for v in weights), (w, conflict, weights)


@settings(max_examples=40, deadline=None)
@given(cells, st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6), st.integers(1_000, 5_000))
def test_a_cell_counts_alike_on_a_curve_and_alone(p, conflicts, reps):
    # Each point of a multi-point curve is counted as it is alone, and as
    # the brute-force per-draw rates.
    s, _ = build({**p, "reps": reps})
    biases = [c * SD_EXT for c in conflicts]
    ties, powers = onearm.oc_curve(s, biases)
    for bias, tie, power in zip(biases, ties, powers):
        assert tie == one_point(s, bias, "tie") == brute_force_tie(s, bias)
        assert power == one_point(s, bias, "power") == brute_force_power(s, bias)


@settings(max_examples=40, deadline=None)
@given(cells, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
def test_exact_regions_equal_the_scan_and_midpoint_oracle(p, conflicts):
    # The exact route reads each region off the curve's scan and brackets;
    # on a curve, each point alone and the per-cell oracle (scan, brentq,
    # a tail at each interval's midpoint, merge) give the same intervals
    # and the same TIE and power, to the last bit.
    s, _ = build(p)
    biases = [c * SD_EXT for c in conflicts]
    regions = _exact_curve(s, biases)
    ties, powers = onearm.oc_curve(s, biases, exact=True)
    for bias, region, tie, power in zip(biases, regions, ties, powers):
        oracle = rejection_region(s, bias)
        assert list(region) == list(_exact_curve(s, (bias,))[0]) == oracle
        assert tie == one_arm_tie_exact(s, bias) == _region_probability(oracle, s.null_mean, s.se)
        assert power == one_point(s, bias, "power", exact=True) == _region_probability(
            oracle, s.alt_mean, s.se)


def test_a_scan_zero_is_a_boundary_the_midpoint_oracle_misses():
    # tail - alpha = c - y hits zero exactly at a scan point c: the test
    # rejects from c on. The scan has no sign change there, so the oracle,
    # which looks for boundaries only at sign changes, decides the whole
    # window by the tail at its midpoint and finds no region.
    alpha, ys = 0.025, np.linspace(-12.0, 12.0, 2001)
    c = ys[1100]

    def tails(y, point=None):
        return alpha + (c - y)

    scans = (tails(ys) - alpha)[None]
    assert np.count_nonzero(scans == 0.0) == 1 and scans[0, 1100] == 0.0
    assert _regions(ys, scans, tails, alpha) == [((c, math.inf),)]
    assert scan_brentq_region(tails, ys, alpha) == []
    # A zero the scan touches without changing side is no boundary: one
    # point (measure zero) where the test does not reject nearby, and no
    # gap where it rejects on both sides.
    for side, region in ((1.0, ()), (-1.0, ((-math.inf, math.inf),))):
        def touch(y, point=None, side=side):
            return alpha + side * (y - c) ** 2

        scans = (touch(ys) - alpha)[None]
        assert np.count_nonzero(scans == 0.0) == 1 and scans[0, 1100] == 0.0
        assert _regions(ys, scans, touch, alpha) == [region]
    # Two zeros in a row: the test rejects at both (tail = alpha), so the
    # region starts at the first when it rejects above, and ends at the
    # second when it rejects below.
    c2 = ys[1101]
    for side, region in ((1.0, ((c, math.inf),)), (-1.0, ((-math.inf, c2),))):
        def plateau(y, point=None, side=side):
            return alpha + side * np.where(y < c, c - y, np.where(y > c2, c2 - y, 0.0))

        scans = (plateau(ys) - alpha)[None]
        assert np.flatnonzero(scans == 0.0).tolist() == [1100, 1101]
        assert _regions(ys, scans, plateau, alpha) == [region]


def scenario(location=None, form=None, w=0.5):
    spec = MixturePriorSpec(
        w, EXT, location if location is not None else ExternalMean(),
        form if form is not None else Normal(),
    )
    return OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=3, reps=2_000)


class Recorder:
    """A per-draw rule that remembers which (observed mean, point) pairs it
    decided."""

    def __init__(self, rule):
        self.rule = rule
        self.seen = []

    def __call__(self, ys, point):
        self.seen.extend(zip(ys.tolist(), np.broadcast_to(point, ys.shape).tolist()))
        return self.rule(ys, point)


# A synthetic scan at se 1: null 0, window +-12, 2001 points 0.012 apart.
YS = np.linspace(-12.0, 12.0, 2001)
GUARD = 1e-9


def region_rule(bounds):
    """Rejects at or below bounds[0] and from bounds[1] to bounds[2]."""
    return lambda y: (y <= bounds[0]) | ((y >= bounds[1]) & (y <= bounds[2]))


def probes(bands, window=(YS[0], YS[-1])):
    """Observed means at, inside and around every band's ends and the
    window's edges, and beyond the window."""
    lo, hi = window
    out = [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf), -13.0, 13.0]
    for a, b in zip(*bands[1:3]):
        for c in (a, b):
            if math.isfinite(c):
                out += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
                out += [c + side * 1e-3 * GUARD for side in (-1.0, 1.0)]
                out += [c + side * 1e-3 for side in (-1.0, 1.0)]
        if math.isfinite(a) and math.isfinite(b):
            out.append(0.5 * (a + b))
    return np.sort(np.array(out + out[:4]))  # a few duplicates too


def in_band(y, point, bands):
    return any(p == point and a <= y <= b for p, a, b in zip(*bands[:3]))


def check_count(z, at_mean, se, bands, rule):
    """The counter's counts equal the rule's, each band's draws are decided
    once and the draws clear of every band are not decided."""
    points = int(bands[0].max()) + 1
    decide = Recorder(rule)
    counts = _count_rejections(z, at_mean, se, bands, decide)
    ys = at_mean + se * z
    assert counts.tolist() == [int(np.count_nonzero(rule(ys, np.full(ys.size, p)))) for p in range(points)]
    copies = collections.Counter(ys.tolist())
    assert all(n <= copies[y] for (y, _), n in collections.Counter(decide.seen).items())
    seen = set(decide.seen)
    margin = 1e-6 * GUARD * se
    for p in range(points):
        for y in ys:
            if in_band(y, p, bands):
                assert (y, p) in seen
            elif not any(q == p and a - margin <= y <= b + margin for q, a, b in zip(*bands[:3])):
                assert (y, p) not in seen
    return counts


class TestCounter:
    def test_real_region_boundary(self):
        # Brackets where the kernel's tail crosses alpha: the draws in and at
        # the edges of a narrowed bracket's band are re-decided, the draws
        # just past it follow the scan, those beyond the window are
        # re-decided, and the totals equal the per-draw decisions.
        s = scenario(location=CurrentMean())
        biases = (2 * SD_EXT, -20 * SD_EXT)
        bands, decide = onearm._curve(s, biases, sorted_draws(s), (s.null_mean, s.alt_mean))
        assert len(bands[0]) > 2 * len(biases)  # brackets besides the window's bands
        z = (probes(bands) - s.null_mean) / s.se
        check_count(z, s.null_mean, s.se, bands, decide)

    @pytest.mark.parametrize("c", [(-0.5, 0.25, 1.0), (YS[958] - 2.5e-10, YS[958] + 2.5e-10, 1.0)])
    @pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (0.5, -0.5, 0.9), (-0.9, 0.9, -0.5)])
    def test_two_interval_region(self, c, offsets):
        # A union of two intervals at point 0 and its mirror image at point
        # 1, where the per-draw rule crosses up to 0.9e-10 away from where
        # the scan saw it (the kernel's rounding differs between a scan and
        # a draw). In the second case the gap is one scan point wide and
        # narrower than a band, so the bands of the brackets beside it
        # overlap and their shared draws must be decided once.
        true = [b + f * 1e-10 for b, f in zip(c, offsets)]
        seen_by_scan, rule = region_rule(c), region_rule(true)
        scans = np.array([np.where(seen_by_scan(YS), -1.0, 1.0), np.where(seen_by_scan(-YS), -1.0, 1.0)])

        def two_points(y, point):
            return np.where(point == 0, rule(y), rule(-y))

        bands = _bands(YS, scans, two_points, 1e-13, GUARD)
        assert len(bands[0]) == 4 + 2 * 3
        if c[1] - c[0] < GUARD:
            near = sorted((a, b) for p, a, b in zip(*bands[:3]) if p == 0 and abs(a - c[0]) < 1e-6)
            assert len(near) == 2 and near[0][1] > near[1][0]
        ys = probes(bands)
        check_count(ys, 0.0, 1.0, bands, two_points)

    def test_zero_scan_values_wide_brackets_and_the_window(self):
        # A scan value exactly zero at a crossing, brackets left a whole
        # scan interval wide (a stop wider than the scan's spacing), and a
        # rule that rejects beyond the window where the scan does not: every
        # draw beside the zero, in a bracket or beyond the window is
        # re-decided, the rest follow the scan.
        in_region = region_rule((YS[700], 0.3, 1.0))

        def rule(y):
            return in_region(y) | (y > 12.5)

        scans = np.where(rule(YS), -1.0, 1.0)[None, :]
        scans[0, 700] = 0.0
        bands = _bands(YS, scans, lambda y, p: rule(y), 1.0, GUARD)
        assert sorted(zip(*bands[1:3]))[1] == (YS[699] - GUARD, YS[701] + GUARD)
        z = np.sort(np.concatenate((probes(bands), np.random.default_rng(3).normal(0.0, 5.0, 20_000))))
        check_count(z, 0.0, 1.0, bands, lambda y, p: rule(y))

    def test_affine_observed_means_are_formed_like_the_draws(self):
        # The counter forms at_mean + se * z itself; those floats decide.
        s = scenario()
        z = np.sort(np.random.default_rng(5).standard_normal(5_000))
        bands, decide = onearm._curve(s, (0.0,), sorted_draws(s), (s.null_mean, s.alt_mean))
        tails = cell_tails(s, 0.0)
        for at_mean in (s.null_mean, s.alt_mean, s.null_mean + 11.5 * s.se):
            counts = _count_rejections(z, at_mean, s.se, bands, decide)
            assert counts.tolist() == [int(np.count_nonzero(tails(at_mean + s.se * z) <= s.alpha))]


def draw_span(s, lo_q=0.0, hi_q=1.0):
    """The observed means from the TIE draws' ``lo_q`` quantile to the
    power draws' ``hi_q`` quantile, as ``_curve`` forms the draws' span."""
    z = sorted_draws(s)
    lo, hi = z[round(lo_q * (z.size - 1))], z[round(hi_q * (z.size - 1))]
    return min(s.null_mean, s.alt_mean) + s.se * lo, max(s.null_mean, s.alt_mean) + s.se * hi


@pytest.mark.parametrize("location", [ExternalMean(), NullBoundary(0.0), CurrentMean()],
                         ids=["external", "null-boundary", "current"])
@pytest.mark.parametrize("form", [Normal(), StudentT(3.0, 1.0, 100)], ids=["J2", "J101"])
def test_the_windowed_scan_matches_the_full_scan(location, form):
    # The Monte Carlo scan keeps a slice of the full grid; its rows at the
    # kept points equal the full scan's to the bit, whatever the span cuts.
    s = replace(scenario(location=location, form=form), reps=10_000)
    biases = (-30 * SD_EXT, 0.0, 0.7 * SD_EXT, 2 * SD_EXT)
    ys, scans, _ = onearm._scan(s, biases)
    for span in (draw_span(s), draw_span(s, 0.3, 0.6), (ys[700], ys[900]), (-1e3, 1e3)):
        ys_w, scans_w, _ = onearm._scan(s, biases, span=span)
        first = int(np.flatnonzero(ys == ys_w[0])[0])
        kept = slice(first, first + ys_w.size)
        assert ys_w.size >= 2 and ys_w[0] <= max(span[0], ys[0]) and ys_w[-1] >= min(span[1], ys[-1])
        assert ys_w.size < ys.size or span == (-1e3, 1e3)
        assert np.array_equal(ys_w.view(np.int64), ys[kept].view(np.int64))
        assert np.array_equal(scans_w.view(np.int64), scans[:, kept].view(np.int64))


def fig1_t_curve(reps):
    """fig1-t's w 0.5 curve: its scenario and biases."""
    cfg = normalize_config({**recipe_config("fig1-t"), "reps": reps})
    return next(s for s, _, w in _curves(cfg) if w == 0.5), cfg["sweep"]["bias"]


def test_the_window_stays_small_and_its_edges_hold_no_draws(monkeypatch):
    # At 1e4 reps the Monte Carlo scan of a fig1-t curve keeps under half
    # the grid, and no TIE or power draw lands in an edge band, where the
    # scan's sign is only assumed and each draw is re-decided.
    s, biases = fig1_t_curve(10_000)
    kept = []

    def recording_scan(*args, **kwargs):
        out = scan(*args, **kwargs)
        kept.append(out[0].size)
        return out

    scan = onearm._scan
    monkeypatch.setattr(onearm, "_scan", recording_scan)
    z = sorted_draws(s)
    point, lo, hi, _ = onearm._curve(s, biases, z, (s.null_mean, s.alt_mean))[0]
    assert kept == [kept[0]] and kept[0] <= 0.45 * onearm._SCAN_POINTS
    for at_mean in (s.null_mean, s.alt_mean):
        ybar = at_mean + s.se * z
        assert ybar[0] > hi[np.isneginf(lo)].max() and ybar[-1] < lo[np.isposinf(hi)].min()


def test_a_cut_window_still_counts_every_draw():
    # A span cut to the middle half of the draws leaves a quarter of them
    # beyond each edge: the edge bands re-decide those, so TIE and power
    # still equal the per-draw rates.
    s, biases = fig1_t_curve(10_000)
    biases = biases[::8]
    ys, scans, tails = onearm._scan(s, biases, span=draw_span(s, 0.25, 0.75))

    def decide(ys, point):
        return tails(ys, point) <= s.alpha

    bands = _bands(ys, scans, decide, s.se * math.sqrt(2.0 * math.pi) / s.reps, GUARD * s.se)
    z = sorted_draws(s)
    ties, powers = (_count_rejections(z, at, s.se, bands, decide) for at in (s.null_mean, s.alt_mean))
    assert ties.tolist() == [round(brute_force_tie(s, b) * s.reps) for b in biases]
    assert powers.tolist() == [round(brute_force_power(s, b) * s.reps) for b in biases]


def test_tie_and_power_of_a_cell_share_one_region(monkeypatch):
    # One scan per Monte Carlo curve and one set of regions per exact curve,
    # made by the call that asks for it: a second identical call, a
    # one-point rate and another thread each make their own.
    scans, regions = [], []
    curve, region = onearm._curve, onearm._regions

    def counting_curve(s, biases, z, centres):
        scans.append(tuple(biases))
        return curve(s, biases, z, centres)

    def counting_region(*args, **kwargs):
        regions.append(args)
        return region(*args, **kwargs)

    monkeypatch.setattr(onearm, "_curve", counting_curve)
    monkeypatch.setattr(onearm, "_regions", counting_region)
    s = scenario(location=NullBoundary(0.0), form=StudentT(3.0, 1.0, 20))
    biases = (0.0, SD_EXT, 2 * SD_EXT)
    ties, powers = onearm.oc_curve(s, biases)
    assert len(scans) == 1
    assert onearm.oc_curve(s, biases, rates=("power", "tie")) == (powers, ties)
    assert len(scans) == 2
    assert (one_point(s, SD_EXT, "tie"), one_point(s, SD_EXT, "power")) == (ties[1], powers[1])
    assert len(scans) == 4
    exact_ties, exact_powers = onearm.oc_curve(s, biases, exact=True)
    assert len(regions) == 1
    assert one_arm_tie_exact(s, SD_EXT) == exact_ties[1]
    assert one_point(s, SD_EXT, "power", exact=True) == exact_powers[1]
    assert len(regions) == 3
    assert one_arm_tie_exact(s, 2 * SD_EXT) == exact_ties[2]
    assert len(regions) == 4 and len(scans) == 4
    # Another thread (another sweep worker) computes its own, to equal values.
    results = []
    worker = threading.Thread(
        target=lambda: results.append((one_point(s, 2 * SD_EXT, "power"), one_arm_tie_exact(s, 2 * SD_EXT))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [(powers[2], exact_ties[2])]
    assert len(scans) == 5 and len(regions) == 5


@pytest.mark.parametrize("alt", [0.5, -0.5], ids=["alt-above", "alt-below"])
def test_a_tie_only_curve_scans_only_its_own_draws(monkeypatch, alt):
    # A TIE-only curve's scan spans the TIE draws alone: per point, the scan
    # points between the two true means fewer kernel columns than a (TIE,
    # power) curve, and the same counts as that curve's TIE and as the
    # per-draw decisions. OneArmScenario takes an alternative above the
    # null only; the span reads the true means in either order, so the
    # mirror case is set past that check.
    s = scenario(location=CurrentMean(), form=StudentT(3.0, 1.0, 20))
    object.__setattr__(s, "alt_mean", alt)
    biases = (-2 * SD_EXT, 0.0, SD_EXT, 3 * SD_EXT)
    columns, kernel = [], AxisBank.kernel

    def counting_kernel(self, point, ybar, n, sigma):
        columns.append(ybar.size)
        return kernel(self, point, ybar, n, sigma)

    monkeypatch.setattr(AxisBank, "kernel", counting_kernel)
    (ties,) = onearm.oc_curve(s, biases, rates=("tie",))
    tie_columns = sum(columns)
    columns.clear()
    both = onearm.oc_curve(s, biases)
    between = abs(alt - s.null_mean) / (24.0 * s.se / (onearm._SCAN_POINTS - 1))
    assert tie_columns <= sum(columns) - len(biases) * (math.floor(between) - 2)
    assert ties == both[0]
    ybar = s.null_mean + s.se * sorted_draws(s)
    per_draw = [bank_stats_expression(s, bank_params_expression(s.prior, s.external_at(b)), ybar) <= s.alpha
                for b in biases]
    assert ties == [int(np.count_nonzero(d)) / s.reps for d in per_draw]


def test_monte_carlo_rates_refine_no_boundary(monkeypatch):
    # The counts come from the scan's brackets: no Monte Carlo TIE or power
    # reaches brentq or the rejection region, on any location or form, in
    # the library or in a sweep.
    def forbidden(*args, **kwargs):
        raise AssertionError("a Monte Carlo rate refined a boundary")

    monkeypatch.setattr(onearm, "brentq", forbidden)
    monkeypatch.setattr(onearm, "_regions", forbidden)
    for location in (ExternalMean(), NullBoundary(0.0), CurrentMean()):
        for form in (Normal(), StudentT(3.0, 1.0, 20)):
            s = scenario(location=location, form=form)
            one_point(s, SD_EXT, "tie")
            one_point(s, -SD_EXT, "power")
            onearm.oc_curve(s, (0.0, 2 * SD_EXT, 30 * SD_EXT))
    for recipe in ("a1-dispersion", "fig1-t"):
        cfg = {**recipe_config(recipe), "reps": 1_000}
        cfg["sweep"] = {**cfg["sweep"], "bias": [-0.5, 0.0, 0.5]}
        assert all(row.tie is not None for row in run_config(cfg, threads=2).rows)


def test_rmse_and_weight_of_a_cell_share_one_tail_free_pass(monkeypatch):
    # In a run (a sweep worker's thread) a cell's RMSE and w̃ share one pass.
    passes = []
    original = onearm._bank_stats

    def counting(*args, tails=True, **kwargs):
        passes.append(tails)
        return original(*args, tails=tails, **kwargs)

    def in_run(*args):
        with ThreadPoolExecutor(1, initializer=join_run, initargs=({},)) as pool:
            return pool.submit(_grid_cell, *args).result(timeout=120)

    monkeypatch.setattr(onearm, "_bank_stats", counting)
    cfg = normalize_config({**recipe_config("fig1"), "reps": 2_000})
    assert cfg["metrics"] == ["tie", "rmse", "w_tilde"] and cfg["rmse_true_mean"] is None
    s = _curves(cfg)[0][0]
    out = in_run(cfg, s, SD_EXT)
    assert passes.count(False) == 1
    # Outside a run each quantity takes a pass of its own, to the same value.
    assert out["w_tilde"] == onearm.mean_posterior_weight(s, SD_EXT)
    assert out["rmse_std"] == onearm.one_arm_rmse(s, SD_EXT)[1]
    assert passes.count(False) == 3
    # RMSE around another true mean needs its own pass over other draws.
    passes.clear()
    cfg = normalize_config({**recipe_config("fig1"), "reps": 2_000, "rmse_true_mean": 0.3})
    in_run(cfg, _curves(cfg)[0][0], SD_EXT)
    assert passes.count(False) == 2

