"""The hybrid Monte Carlo TIE and power as counts against a threshold curve.

The hybrid test rejects exactly when the treatment mean exceeds a
threshold that depends on the control mean alone and does not fall as it
rises. The library solves that curve once per curve of cells (a bias or
analysis-shift axis, one per call) on a grid over the control means,
counts the common joint draws clearly above or below it, and re-decides
the rest with the per-draw kernel. The counts must therefore equal the
per-draw rates of ``tests/oracles.py`` exactly, not within Monte Carlo
error.
"""

import gc
import hashlib
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borrowsim import (
    CurrentMean,
    ExternalMean,
    HybridScenario,
    Informative,
    MixturePriorSpec,
    Normal,
    OneArmScenario,
    RobustMixture,
    StudentT,
    SufficientStat,
    TreatmentPrior,
    UnitInfo,
    average_power,
    average_tie,
    hybrid_power,
    hybrid_tie,
)
from borrowsim import hybrid, onearm, priors
from borrowsim.config import normalize_config
from borrowsim.recipes import recipe_config
from borrowsim.sweep import _curves, run_config
import oracles
from oracles import (
    per_draw_average_power,
    per_draw_average_tie,
    per_draw_power,
    per_draw_tie,
)

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)

forms = st.one_of(
    st.builds(lambda n_robust: (Normal(), n_robust), st.floats(1.0 / 400.0, 2.0)),
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
    "location": st.sampled_from([ExternalMean(), CurrentMean()]),
    "treatment_prior": st.sampled_from(list(TreatmentPrior)),
    "conflict": st.floats(-1e3, 1e3),
    "n_t": st.integers(5, 80),
    "n_c": st.integers(5, 80),
    "effect": st.floats(0.05, 3.0),
    "control_mean": st.floats(-2.0, 2.0),
    "reps": st.integers(1_000, 10_000),
    "seed": st.sampled_from([7, 20260810]),
})

designs = st.one_of(
    st.just(Informative()), st.just(UnitInfo()), st.builds(RobustMixture, st.floats(0.0, 1.0))
)


def build(p):
    form, n_robust = p["form"]
    spec = MixturePriorSpec(p["w"], EXT, p["location"], form, n_robust=n_robust)
    s = HybridScenario(
        p["n_t"], p["n_c"], 1.0, EXT, spec, effect=p["effect"], seed=p["seed"],
        reps=p["reps"], treatment_prior=p["treatment_prior"],
        control_mean=p["control_mean"],
    )
    return s, p["conflict"] * SD_EXT


@settings(max_examples=50, deadline=None)
@given(cells)
def test_counts_equal_the_per_draw_rates(p):
    s, bias = build(p)
    assert hybrid_tie(s, bias) == per_draw_tie(s, bias)
    assert hybrid_power(s, bias) == per_draw_power(s, bias)


@settings(max_examples=40, deadline=None)
@given(cells, designs)
def test_design_prior_averages_equal_the_per_draw_rates(p, design):
    s, shift = build(p)
    assert average_tie(s, design, shift) == per_draw_average_tie(s, design, shift)
    assert average_power(s, design, shift) == per_draw_average_power(s, design, shift)


@st.composite
def axes(draw):
    """1 to 11 conflicts (in sd-ext) in any order, one of them twice."""
    points = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=11))
    points.append(draw(st.sampled_from(points)))
    return [x * SD_EXT for x in draw(st.permutations(points))]


@settings(max_examples=20, deadline=None)
@given(cells, designs, axes(), st.floats(-1e3, 1e3), st.one_of(st.integers(1, 3), st.none()))
def test_every_point_of_a_curve_equals_the_per_draw_rates(p, design, axis, off, tiny_reps):
    # ``off`` is a point called alone: a curve of its own.
    s, _ = build({**p, "reps": tiny_reps or p["reps"]})
    off *= SD_EXT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ties, powers = hybrid.oc_curve(s, axis)
        assert ties == [per_draw_tie(s, b) for b in axis]
        assert powers == [per_draw_power(s, b) for b in axis]
        assert hybrid_tie(s, off) == per_draw_tie(s, off)
        ties, powers = hybrid.average_curve(s, design, axis)
        assert ties == [per_draw_average_tie(s, design, x) for x in axis]
        assert powers == [per_draw_average_power(s, design, x) for x in axis]
        assert average_tie(s, design, off) == per_draw_average_tie(s, design, off)
        assert average_power(s, design, off) == per_draw_average_power(s, design, off)


def scenario(reps=5_000, **kwargs):
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal(), n_robust=1.0)
    return HybridScenario(20, 20, 1.0, EXT, spec, effect=0.83, seed=11, reps=reps, **kwargs)


@pytest.mark.parametrize("reps", [1, 2, 3])
def test_tiny_reps_match_the_oracle_without_warnings(reps):
    # At reps 1 every control mean is one value: the grid's two points
    # coincide and the draw is in the last cell, a cell of its own.
    s = scenario(reps=reps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bias in (-1.0, 0.0, 0.3):
            assert hybrid_tie(s, bias) == per_draw_tie(s, bias)
            assert hybrid_power(s, bias) == per_draw_power(s, bias)
        for design in (Informative(), UnitInfo(), RobustMixture(0.5)):
            assert average_tie(s, design, 0.2) == per_draw_average_tie(s, design, 0.2)


@pytest.mark.parametrize(
    "reps, points", [(1, 2), (2, 2), (3, 3), (17, 5), (700, 33), (5_000, 65), (20_000, 129)]
)
def test_every_grid_size_counts_the_per_draw_rates(monkeypatch, reps, points):
    # The grid has 1 + (the power of two nearest sqrt(reps)) points.
    s = scenario(reps=reps)
    assert hybrid._grid_points(reps) == points
    assert hybrid._Layout(s, None).grid.size == points
    biases = (-1.0, 0.0, 0.3)
    ties, powers = hybrid.oc_curve(s, biases)
    assert ties == [per_draw_tie(s, b) for b in biases]
    assert powers == [per_draw_power(s, b) for b in biases]
    for design in (Informative(), UnitInfo(), RobustMixture(0.5)):
        assert hybrid._Layout(s, design).grid.size == points
        for shift in (-0.4, 0.2):
            assert average_tie(s, design, shift) == per_draw_average_tie(s, design, shift)
            assert average_power(s, design, shift) == per_draw_average_power(s, design, shift)
        ties, powers = hybrid.average_curve(s, design, (-0.4, 0.2))
        assert ties == [per_draw_average_tie(s, design, x) for x in (-0.4, 0.2)]
        assert powers == [per_draw_average_power(s, design, x) for x in (-0.4, 0.2)]


def test_control_means_on_grid_points_take_the_cell_they_open(monkeypatch):
    # se_c is 1 and the control mean 0, so the control means are the draws
    # themselves: all 33 points of the grid over [-1, 1] (step 1/16, exact),
    # the largest three times, the floats just below each point, and
    # uniform draws. A draw is in cell k when grid[k] <= it < grid[k + 1],
    # the last point being a cell of its own.
    rng = np.random.default_rng(5)
    grid = np.linspace(-1.0, 1.0, 33)
    zc = np.concatenate((grid, [1.0, 1.0], np.nextafter(grid[1:], -np.inf)))
    zc = rng.permutation(np.concatenate((zc, rng.uniform(-1.0, 1.0, 700 - zc.size))))
    zt = rng.standard_normal(700)

    def stream(seed, scenario_id, role, reps):
        return {"control": zc, "treatment": zt}[role]

    for module in (hybrid, oracles):
        monkeypatch.setattr(module, "base_normals", stream)
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal(), n_robust=1.0)
    s = HybridScenario(20, 4, 2.0, EXT, spec, effect=0.83, seed=11, reps=700)
    assert s.se_c == 1.0
    layout = hybrid._Layout(s, None)
    assert layout.grid.tolist() == grid.tolist()
    cells = layout.keys // s.reps
    assert layout.ends.tolist() == np.cumsum(np.bincount(cells, minlength=grid.size)).tolist()
    mean = zc[layout.order]
    assert np.all(grid[cells] <= mean)
    assert np.all((mean < np.append(grid[1:], np.inf)[cells]) | (cells == grid.size - 1))
    assert (cells == grid.size - 1).sum() == 3
    biases = (-1.0, -0.2, 0.0, 0.3, 1.0)
    ties, powers = hybrid.oc_curve(s, biases)
    assert ties == [per_draw_tie(s, b) for b in biases]
    assert powers == [per_draw_power(s, b) for b in biases]


def test_every_redecided_draw_lies_in_its_own_cells_band(monkeypatch):
    # A draw in cell k is re-decided only if its treatment mean is within
    # the guard of [lo[k], hi[k + 1]] (hi[k] at the last point), and at
    # 2e4 reps no fig10 rate re-decides more than 8% of its draws: fig10's
    # design draws spread the control means widest of the hybrid recipes.
    solves, counts = {}, []
    solve, decide, count = hybrid._threshold_brackets, hybrid._Bank.__call__, hybrid._Curve.count

    def recording_solve(s, bank, points, yc, stop=None):
        lo, hi = solve(s, bank, points, yc, stop)
        solves[id(bank)] = (bank, yc, lo, hi, hybrid._GUARD_SE * s.se_t)
        return lo, hi

    def recording_count(curve, effect):
        counts.append((curve.bank, len(curve.index), []))
        return count(curve, effect)

    def recording_decide(bank, ybar_c, ybar_t=None, point=None):
        if ybar_t is not None and id(bank) in solves:
            counts[-1][2].append((ybar_c, ybar_t, point))
        return decide(bank, ybar_c, ybar_t, point)

    monkeypatch.setattr(hybrid, "_threshold_brackets", recording_solve)
    monkeypatch.setattr(hybrid._Curve, "count", recording_count)
    monkeypatch.setattr(hybrid._Bank, "__call__", recording_decide)
    cfg = {**recipe_config("fig10"), "reps": 20_000, "seed": 20260810}
    run_config(cfg, threads=1)
    assert len(counts) == 36  # 6 curves x 3 design priors x (TIE, power)
    worst = 0.0
    for bank, n_points, calls in counts:
        _, grid, lo, hi, guard = solves[id(bank)]
        assert grid.size == 129 and calls
        ybar_c, ybar_t, point = (np.concatenate(v) for v in zip(*calls))
        k = np.searchsorted(grid, ybar_c, side="right") - 1
        # The guard, and as much again for the rounding of the searched means.
        assert np.all(ybar_t > lo[point, k] - 2 * guard)
        assert np.all(ybar_t <= hi[point, np.minimum(k + 1, grid.size - 1)] + 2 * guard)
        worst = max(worst, np.bincount(point, minlength=n_points).max() / 20_000)
    assert worst <= 0.08


GH_THRESHOLD_DIGESTS = {
    "fig7": "b0cce01ac0ff6490eb36ee3c742a8495e3cd6ec456bf725f1899063a10eb3720",
    "fig8": "e2ac821679211d44f77adcf62602b94982ec4bb595a8752c038fb4cd982d93c6",
}


@pytest.mark.parametrize("recipe", sorted(GH_THRESHOLD_DIGESTS))
def test_gauss_hermite_thresholds_keep_their_bits(recipe):
    # The Gauss-Hermite route's thresholds at every curve of the recipe over
    # its bias axis, as sha256 of their float64 bytes, from before the Monte
    # Carlo grid was sized to the stream: that grid shares the solve, but
    # not its stopping rule or its control means.
    cfg = normalize_config(recipe_config(recipe))
    h = hashlib.sha256()
    for s, _, _ in _curves(cfg):
        h.update(hybrid._gh_thresholds(s, cfg["sweep"]["bias"]).tobytes())
    assert h.hexdigest() == GH_THRESHOLD_DIGESTS[recipe]


@pytest.mark.parametrize("rate", ["tie", "average"])
def test_a_curve_that_falls_raises(monkeypatch, rate):
    solve = hybrid._threshold_brackets

    def reversed_curve(*args, **kwargs):
        return tuple(v[:, ::-1] for v in solve(*args, **kwargs))

    monkeypatch.setattr(hybrid, "_threshold_brackets", reversed_curve)
    s = scenario()
    with pytest.raises(RuntimeError, match=r"'hybrid'.*falls.*of 65 at bias 0\.25"):
        if rate == "tie":
            hybrid_tie(s, 0.25)
        else:
            average_tie(s, UnitInfo(), 0.25)


def test_a_bracket_on_the_wrong_side_raises(monkeypatch):
    # A negative widening puts the lower ends far above every threshold.
    monkeypatch.setattr(hybrid, "_MC_STOP_SE", -50.0)
    with pytest.raises(RuntimeError, match=r"'hybrid'.*lower end.*bias 0\.25.*grid point 0 of 65"):
        hybrid_power(scenario(), 0.25)


def test_the_slope_is_the_superiority_probabilitys_derivative():
    # Against central differences, under both treatment priors and a
    # 20-component t form: the Newton steps of the Monte Carlo solve use it.
    t_spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(4.0, 1.0, 20))
    for s in (scenario(), scenario(treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN),
              replace(scenario(), prior=t_spec)):
        bank = hybrid._Bank(s, [s.external_at(b) for b in (-1.0, 0.0, 0.4)])
        yc = np.linspace(-0.6, 0.6, 9)
        _, _, _, _, pnb, dpnb = bank.posterior(np.tile(yc, 3), np.repeat(np.arange(3), 9))
        yt = np.linspace(-0.2, 1.2, 27)
        eps = 1e-6
        numeric = (pnb(yt + eps) - pnb(yt - eps)) / (2 * eps)
        slope = dpnb(yt)
        assert np.all(slope < 0.0)
        np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=1e-9)


def recording_solves(monkeypatch):
    """Record every Monte Carlo threshold solve (s, bank, points, grid, lo,
    hi, stop) and every step of the bisection it falls back to."""
    solves, steps = [], []
    solve, bisect = hybrid._threshold_brackets, hybrid.bisect

    def recording_solve(s, bank, points, yc, stop=None):
        lo, hi = solve(s, bank, points, yc, stop)
        if stop is not None:
            solves.append((s, bank, points, yc, lo, hi, stop))
        return lo, hi

    def recording_bisect(a, b, keeps_a, stop=None):
        def step(mid):
            steps.append(stop)
            return keeps_a(mid)
        return bisect(a, b, step, stop)

    monkeypatch.setattr(hybrid, "_threshold_brackets", recording_solve)
    monkeypatch.setattr(hybrid, "bisect", recording_bisect)
    return solves, steps


def assert_every_bracket_encloses_its_threshold(s, bank, points, yc, lo, hi):
    # The per-draw kernel does not reject at a lower end and rejects at an upper one.
    point, ybar_c = np.repeat(np.arange(len(points)), yc.size), np.tile(yc, len(points))
    assert np.all(bank(ybar_c, lo.ravel(), point) > s.alpha)
    assert np.all(bank(ybar_c, hi.ravel(), point) <= s.alpha)


@pytest.mark.parametrize("recipe", ["fig7", "fig10", "table1", "a14-treatment-prior-unbalanced"])
def test_every_newton_bracket_passes_its_check(monkeypatch, recipe):
    # Three Newton steps from the weighted mean of the component crossings
    # land within h = stop / 16 of every threshold of the recipe at 2e4
    # reps, so the solve returns [x - h, x + h] and never bisects.
    solves, steps = recording_solves(monkeypatch)
    run_config({**recipe_config(recipe), "reps": 20_000, "seed": 20260810}, threads=1)
    assert solves and not [stop for stop in steps if stop is not None]
    for s, bank, points, yc, lo, hi, stop in solves:
        assert stop == hybrid._MC_STOP_SE * s.se_t
        assert_every_bracket_encloses_its_threshold(s, bank, points, yc, lo, hi)
        assert np.all(hi - lo <= 2 * (stop / 16) * (1 + 1e-9))


@pytest.mark.parametrize("fault", ["zero", "nan", "sign"])
def test_a_failed_newton_bracket_falls_back_to_bisection(monkeypatch, fault):
    # A slope of 0 or NaN, or of the wrong sign, at every third element
    # sends its Newton steps off: those brackets fail their check and are
    # bisected from the crossing brackets, and the counts still equal the
    # per-draw decisions, without a numerical warning.
    posterior = hybrid._Bank.posterior

    def faulty_posterior(bank, yc, point):
        *rest, dpnb = posterior(bank, yc, point)

        def faulty(yt):
            d = dpnb(yt)
            d[::3] = {"zero": 0.0, "nan": np.nan, "sign": -d[::3]}[fault]
            return d
        return (*rest, faulty)

    monkeypatch.setattr(hybrid._Bank, "posterior", faulty_posterior)
    solves, steps = recording_solves(monkeypatch)
    s = replace(scenario(reps=3_000), treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN)
    axis = (-1.0, 0.0, 0.25, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ties, powers = hybrid.oc_curve(s, axis)
        assert ties == [per_draw_tie(s, b) for b in axis]
        assert powers == [per_draw_power(s, b) for b in axis]
        ties, powers = hybrid.average_curve(s, RobustMixture(0.5), axis)
        assert ties == [per_draw_average_tie(s, RobustMixture(0.5), x) for x in axis]
        assert powers == [per_draw_average_power(s, RobustMixture(0.5), x) for x in axis]
    assert len(solves) == 2 and steps and all(stop == solves[0][6] for stop in steps)
    for s, bank, points, yc, lo, hi, stop in solves:
        # The faulty elements took the bisection, which halves every bracket
        # (the checked Newton ones too) until all are narrower than stop.
        assert np.all(hi - lo < stop)
        assert_every_bracket_encloses_its_threshold(s, bank, points, yc, lo, hi)


def test_tie_and_power_of_a_cell_share_one_curve(monkeypatch):
    # One solve per oc_curve or average_curve call, whatever its rates; a
    # one-point rate is a curve of its own.
    solves = []
    solve = hybrid._threshold_brackets

    def counting(*args, **kwargs):
        solves.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(hybrid, "_threshold_brackets", counting)
    s = scenario()
    tie, power = hybrid_tie(s, 0.25), hybrid_power(s, 0.25)
    assert len(solves) == 2
    assert hybrid.oc_curve(s, (0.25,)) == ([tie], [power])
    assert len(solves) == 3
    tie, power = average_tie(s, UnitInfo(), 0.25), average_power(s, UnitInfo(), 0.25)
    assert len(solves) == 5
    assert hybrid.average_curve(s, UnitInfo(), (0.25,)) == ([tie], [power])
    assert hybrid.average_curve(s, UnitInfo(), (0.25,), rates=("power",)) == ([power],)
    assert len(solves) == 7
    # Another design prior draws other control means: a curve of its own.
    average_tie(s, Informative(), 0.25)
    assert len(solves) == 8
    # A Monte Carlo curve solves every bias at once.
    ties, powers = hybrid.oc_curve(s, (-0.5, 0.0, 0.5))
    assert len(solves) == 9
    assert ties == [per_draw_tie(s, b) for b in (-0.5, 0.0, 0.5)]
    assert powers == [per_draw_power(s, b) for b in (-0.5, 0.0, 0.5)]
    # Another thread (another sweep worker) solves its own, to equal values.
    results = []
    worker = threading.Thread(target=lambda: results.append(hybrid_power(s, 0.5)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(solves) == 10
    assert results == [powers[2]]


def onearm_scenario():
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal(), n_robust=1.0)
    return OneArmScenario(0.0, 0.5, 20, 1.0, EXT, spec, seed=3, reps=2_000)


@pytest.mark.parametrize("route", [
    lambda rates: onearm.oc_curve(onearm_scenario(), [], rates=rates),
    lambda rates: onearm.oc_curve(onearm_scenario(), [], exact=True, rates=rates),
    lambda rates: hybrid.oc_curve(scenario(), [], rates=rates),
    lambda rates: hybrid.oc_curve(scenario(), [], exact=True, rates=rates),
    lambda rates: hybrid.average_curve(scenario(), UnitInfo(), [], rates=rates),
], ids=["onearm-mc", "onearm-exact", "hybrid-mc", "hybrid-exact", "average"])
def test_an_empty_axis_gives_one_empty_list_per_rate(route):
    for rates in (("tie", "power"), ("power",)):
        assert route(rates) == tuple([] for _ in rates)


@pytest.mark.parametrize("exact", [False, True])
def test_a_curve_builds_each_point_prior_bank_once(monkeypatch, exact):
    # The solve and the per-draw kernel read the curve's one AxisBank, whose
    # variances and log weights come from one prior_bank_params call.
    calls = []
    build = priors.prior_bank_params

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(priors, "prior_bank_params", counting)
    biases = (-0.5, 0.0, 0.25, 0.5)
    hybrid.oc_curve(scenario(), biases, exact=exact)
    assert len(calls) == 1


@pytest.mark.parametrize("recipe", ["fig7", "a14-treatment-prior-unbalanced"])
def test_monte_carlo_within_four_standard_errors_of_gauss_hermite(recipe):
    # Every cell of the recipe at weight 0.5, at 1e5 reps.
    cfg = normalize_config({**recipe_config(recipe), "reps": 100_000})
    curves = [s for s, _, w in _curves(cfg) if w == 0.5]
    biases = cfg["sweep"]["bias"]
    assert len(curves) == 2 and len(biases) == 61
    worst = 0.0
    for s in curves:
        mc = hybrid.oc_curve(s, biases)
        gh = hybrid.oc_curve(s, biases, exact=True)
        for mc_rates, gh_rates in zip(mc, gh):
            for m, p in zip(mc_rates, gh_rates):
                worst = max(worst, abs(m - p) / math.sqrt(p * (1.0 - p) / s.reps))
    assert worst <= 4.0


def test_a_finished_run_keeps_no_layout(monkeypatch):
    # The bucket-sorted draws are shared by one run's threads and die with it.
    layouts = []

    class Recorded(hybrid._Layout):
        def __init__(self, *args):
            super().__init__(*args)
            layouts.append(weakref.ref(self))

    monkeypatch.setattr(hybrid, "_Layout", Recorded)
    cfg = {**recipe_config("fig10"), "reps": 500}
    cfg["sweep"].update(analysis_shift=[0.0, 0.5])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_config(cfg, threads=6)
    finally:
        sys.setswitchinterval(interval)
    gc.collect()
    # One per design prior (fig10's curves share a stream under each),
    # built once although six threads race for it.
    assert len(layouts) == 3
    assert all(ref() is None for ref in layouts)
