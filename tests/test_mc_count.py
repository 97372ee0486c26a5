"""The one-arm Monte Carlo TIE and power as counts in the rejection region.

The one-arm decision depends on the data only through the observed mean,
so the library counts the sorted common draws that fall in the cell's
rejection region instead of taking a posterior tail per draw. Draws close
to a finite boundary, and draws outside the scan window where the region's
infinite ends are only assumed, are re-decided by the per-draw kernel. The
counts must therefore equal the brute-force per-draw rates exactly, not
within Monte Carlo error.
"""

import math
import threading
import warnings

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
    one_arm_power,
    one_arm_power_exact,
    one_arm_rejection_region,
    one_arm_tie,
    one_arm_tie_exact,
)
from borrowsim import hybrid, onearm, scenarios
from borrowsim.config import normalize_config
from borrowsim.onearm import (
    _count_rejections,
    _guard,
    _scan_window,
    _tail_function,
)
from borrowsim.recipes import recipe_config
from borrowsim.sweep import _curves, _grid_cell
from oracles import brute_force_power, brute_force_tie

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


@settings(max_examples=60, deadline=None)
@given(cells)
def test_counts_equal_the_brute_force_rates(p):
    s, bias = build(p)
    assert one_arm_tie(s, bias) == brute_force_tie(s, bias)
    assert one_arm_power(s, bias) == brute_force_power(s, bias)


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
                      one_arm_power_exact(s, bias)):
            assert 0.0 <= value <= 1.0
        if not isinstance(p["location"], NullBoundary):
            h = HybridScenario(N, N, 1.0, EXT, s.prior, effect=p["alt"] * SE, seed=p["seed"],
                               reps=p["reps"])
            assert 0.0 <= hybrid.mean_posterior_weight(h, bias) <= 1.0
            assert 0.0 <= hybrid.hybrid_tie_exact(h, bias) <= 1.0


def scenario(location=None, form=None, w=0.5):
    spec = MixturePriorSpec(
        w, EXT, location if location is not None else ExternalMean(),
        form if form is not None else Normal(),
    )
    return OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=3, reps=2_000)


class Recorder:
    """A per-draw rule that remembers which observed means it decided."""

    def __init__(self, rule):
        self.rule = rule
        self.seen = []

    def __call__(self, ys):
        self.seen.extend(ys.tolist())
        return self.rule(ys)


def probes(boundaries, window):
    """Observed means at and around every boundary (guard bands at se 1)
    and the window edges."""
    lo, hi = window
    out = [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)]
    out += [-13.0 * SE, 13.0 * SE]  # beyond null +- 12 se
    for c in boundaries:
        g = _guard(1.0, c)
        out += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
        for side in (-1.0, 1.0):
            out += [c + side * g * (1.0 - 1e-6), c + side * g * (1.0 + 1e-6)]
            out += [c + side * 1e-3]
    return np.sort(np.array(out + out[:4]))  # a few duplicates too


class TestCounter:
    def test_real_region_boundary(self):
        # A boundary where the kernel's tail crosses alpha: the draws right
        # at it are re-decided, the draws just past the guard band follow
        # the region, and the total equals the per-draw decisions.
        s = scenario()
        window = _scan_window(s)
        region = one_arm_rejection_region(s, 2 * SD_EXT)
        bounds = [x for iv in region for x in iv if math.isfinite(x)]
        assert bounds
        tails = _tail_function(s, 2 * SD_EXT)
        ys = probes(bounds, window)
        decide = Recorder(lambda y: tails(y) <= s.alpha)
        count = _count_rejections(ys, 0.0, 1.0, region, window, decide)
        assert count == int(np.count_nonzero(tails(ys) <= s.alpha))
        seen = set(decide.seen)
        for c in bounds:
            g = _guard(1.0, c)
            for y in ys:
                if abs(y - c) <= g * (1.0 - 1e-6):
                    assert y in seen
                elif abs(y - c) >= g * (1.0 + 1e-6) and window[0] <= y <= window[1]:
                    assert y not in seen
        assert all(y in seen for y in ys if not window[0] <= y <= window[1])

    @pytest.mark.parametrize("c", [(-0.5, 0.25, 1.0), (-0.5, -0.5 + 5e-10, 1.0)])
    @pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (0.5, -0.5, 0.9), (-0.9, 0.9, -0.5)])
    def test_two_interval_region(self, c, offsets):
        # A union of two intervals whose per-draw rule crosses alpha up to
        # 0.9e-9 away from the region's boundaries (a root refinement
        # error), inside the guard band of observed means at se 1. In the
        # second case the gap is narrower than a band, so two bands overlap
        # and their shared draws must be decided once.
        window = (-12.0 * SE, 12.0 * SE)
        assert all(_guard(1.0, b) > 1e-9 for b in c)
        true = [b + f * 1e-9 for b, f in zip(c, offsets)]
        region = [(-math.inf, c[0]), (c[1], c[2])]

        def rule(y):
            return (y <= true[0]) | ((y >= true[1]) & (y <= true[2]))

        ys = probes(c, window)
        count = _count_rejections(ys, 0.0, 1.0, region, window, rule)
        assert count == int(np.count_nonzero(rule(ys)))

    def test_affine_observed_means_are_formed_like_the_draws(self):
        # The counter forms at_mean + se * z itself; those floats decide.
        s = scenario()
        z = np.sort(np.random.default_rng(5).standard_normal(5_000))
        region = one_arm_rejection_region(s, 0.0)
        tails = _tail_function(s, 0.0)
        for at_mean in (s.null_mean, s.alt_mean, s.null_mean + 11.5 * s.se):
            count = _count_rejections(
                z, at_mean, s.se, region, _scan_window(s), lambda y: tails(y) <= s.alpha
            )
            assert count == int(np.count_nonzero(tails(at_mean + s.se * z) <= s.alpha))


def test_tie_and_power_of_a_cell_share_one_region(monkeypatch):
    calls = []
    original = onearm.one_arm_rejection_region

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(onearm, "one_arm_rejection_region", counting)
    monkeypatch.setattr(scenarios, "_last_cell", threading.local())
    s = scenario(location=NullBoundary(0.0), form=StudentT(3.0, 1.0, 20))
    one_arm_tie(s, SD_EXT)
    one_arm_power(s, SD_EXT)
    one_arm_tie_exact(s, SD_EXT)
    one_arm_power_exact(s, SD_EXT)
    assert len(calls) == 1
    one_arm_tie(s, 2 * SD_EXT)
    assert len(calls) == 2
    # Another thread (another sweep worker) computes its own.
    worker = threading.Thread(target=one_arm_power, args=(s, 2 * SD_EXT))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(calls) == 3


def test_rmse_and_weight_of_a_cell_share_one_tail_free_pass(monkeypatch):
    passes = []
    original = onearm._bank_stats

    def counting(*args, tails=True, **kwargs):
        passes.append(tails)
        return original(*args, tails=tails, **kwargs)

    monkeypatch.setattr(onearm, "_bank_stats", counting)
    monkeypatch.setattr(scenarios, "_last_cell", threading.local())
    cfg = normalize_config({**recipe_config("fig1"), "reps": 2_000})
    assert cfg["metrics"] == ["tie", "rmse", "w_tilde"] and cfg["rmse_true_mean"] is None
    s = _curves(cfg)[0][0]
    out = _grid_cell(cfg, s, SD_EXT)
    assert passes.count(False) == 1
    # Each quantity from a pass of its own has the same value.
    monkeypatch.setattr(scenarios, "_last_cell", threading.local())
    assert out["w_tilde"] == onearm.mean_posterior_weight(s, SD_EXT)
    monkeypatch.setattr(scenarios, "_last_cell", threading.local())
    assert out["rmse_std"] == onearm.one_arm_rmse(s, SD_EXT)[1]
    assert passes.count(False) == 3
    # RMSE around another true mean needs its own pass over other draws.
    passes.clear()
    cfg = normalize_config({**recipe_config("fig1"), "reps": 2_000, "rmse_true_mean": 0.3})
    _grid_cell(cfg, _curves(cfg)[0][0], SD_EXT)
    assert passes.count(False) == 2

