"""Hybrid-control operating characteristics."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from borrowsim import (
    CurrentMean,
    ExternalMean,
    HybridScenario,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
    SufficientStat,
    TreatmentPrior,
    calibrated_power_no_borrowing,
)
from borrowsim import hybrid, sweep
from borrowsim.config import normalize_config
from borrowsim.hybrid import sweet_spots
from borrowsim.recipes import recipe_config
import oracles
from oracles import reject_prob_gh

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)


def scenario(w=0.5, location=None, n_robust=1.0, robust_variance=None,
             treatment_prior=TreatmentPrior.FLAT, effect=0.83,
             n_t=20, n_c=20, reps=100_000, seed=91):
    spec = MixturePriorSpec(
        w,
        EXT,
        location if location is not None else ExternalMean(),
        Normal(),
        n_robust=None if robust_variance is not None else n_robust,
        robust_variance=robust_variance,
    )
    return HybridScenario(
        n_t, n_c, 1.0, EXT, spec, effect=effect, seed=seed, reps=reps,
        treatment_prior=treatment_prior,
    )


def one_point(s, bias, rate, exact=False):
    """One rate at one bias: a one-point ``hybrid.oc_curve``."""
    return hybrid.oc_curve(s, [bias], exact=exact, rates=(rate,))[0][0]


class TestBaselines:
    def test_no_borrowing_tie(self):
        s = scenario(w=0.0, robust_variance=400.0, reps=400_000)
        mc = one_point(s, 0.0, "tie")
        exact = one_point(s, 0.0, "tie", exact=True)
        assert exact == pytest.approx(0.0249, abs=2e-4)
        assert abs(mc - exact) < 3 * math.sqrt(exact * (1 - exact) / s.reps)

    def test_no_borrowing_power_closed_form(self):
        # the two-sample z test at level 0.025 and effect 0.83 has power
        # 0.74689 (the often-quoted 0.75 is that value rounded)
        p0 = calibrated_power_no_borrowing(0.025, scenario())
        assert p0 == pytest.approx(0.746887, abs=1e-5)
        s = scenario(w=0.0, robust_variance=400.0, reps=400_000)
        mc = one_point(s, 0.0, "power")
        exact = one_point(s, 0.0, "power", exact=True)
        assert exact == pytest.approx(p0, abs=5e-4)
        assert abs(mc - exact) < 3 * math.sqrt(exact * (1 - exact) / s.reps)

    def test_borrowing_at_zero_bias_beats_the_plain_test(self):
        s = scenario(w=0.5, reps=200_000)
        assert one_point(s, 0.0, "power", exact=True) > 0.75

    def test_power_increases_with_the_effect(self):
        values = [
            one_point(scenario(effect=e, reps=10_000), 0.0, "power", exact=True)
            for e in (0.4, 0.83, 1.2)
        ]
        assert values[0] < values[1] < values[2]


class TestCrossPathAgreement:
    @pytest.mark.parametrize("location", [ExternalMean(), CurrentMean()])
    @pytest.mark.parametrize("bias", [-0.5, 0.0, 0.25, 0.5])
    def test_monte_carlo_matches_quadrature(self, location, bias):
        s = scenario(w=0.5, location=location, reps=200_000)
        exact = one_point(s, bias, "tie", exact=True)
        mc = one_point(s, bias, "tie")
        se = math.sqrt(max(exact * (1 - exact), 1e-8) / s.reps)
        assert abs(mc - exact) <= 3 * se

    def test_treatment_prior_variant_agrees_too(self):
        s = scenario(
            w=0.5, treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN,
            reps=200_000,
        )
        for bias in (0.0, 1.0):
            exact = one_point(s, bias, "tie", exact=True)
            mc = one_point(s, bias, "tie")
            se = math.sqrt(max(exact * (1 - exact), 1e-8) / s.reps)
            assert abs(mc - exact) <= 3 * se


class TestTreatmentArmPrior:
    def test_balanced_arms_cap_the_error_rate(self):
        s = scenario(
            w=0.5, treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN,
            reps=10_000,
        )
        far = [one_point(s, b, "tie", exact=True) for b in (5.0, 8.0, 12.0)]
        assert max(far) < 0.10
        assert abs(far[-1] - far[-2]) < 0.01

    def test_unbalanced_arms_resume_the_inflation(self):
        s_bal = scenario(
            w=0.5, treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN,
            reps=10_000,
        )
        s_unbal = scenario(
            w=0.5, treatment_prior=TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN,
            n_t=40, n_c=20, reps=10_000,
        )
        bias = 12.0
        unbalanced, balanced = (one_point(v, bias, "tie", exact=True) for v in (s_unbal, s_bal))
        assert unbalanced > balanced + 0.05

    def test_external_mean_normal_inflates_unboundedly_in_contrast(self):
        s = scenario(w=0.5, reps=10_000)
        values = [one_point(s, b, "tie", exact=True) for b in (2.0, 4.0, 8.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5


class TestCalibratedPower:
    def test_recovers_the_nominal_baselines(self):
        one_arm = __import__("borrowsim").OneArmScenario(
            0.0, 0.5, 20, 1.0, EXT,
            MixturePriorSpec(0.5, EXT, ExternalMean(), Normal()),
            seed=1, reps=10,
        )
        assert calibrated_power_no_borrowing(0.025, one_arm) == pytest.approx(
            0.608764, abs=1e-5
        )
        assert calibrated_power_no_borrowing(0.025, scenario()) == pytest.approx(
            0.746887, abs=1e-5
        )

    def test_degenerate_level_gives_full_power(self):
        assert calibrated_power_no_borrowing(1.0, scenario()) == 1.0

    def test_level_zero_gives_no_power(self):
        # A z test at level 0 never rejects (Monte Carlo TIEs can all be 0).
        assert calibrated_power_no_borrowing(0.0, scenario()) == 0.0

    def test_monotone_in_the_level(self):
        levels = [0.005, 0.025, 0.05, 0.2, 0.5]
        values = [calibrated_power_no_borrowing(m, scenario()) for m in levels]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_levels(self):
        for level in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError, match=r"max_tie must be in \[0, 1\]"):
                calibrated_power_no_borrowing(level, scenario())


class TestSweetSpot:
    def grid(self):
        return tuple(np.round(np.arange(-0.8, 0.45, 0.05), 10))

    def test_current_mean_spot_exists_and_beats_the_plain_test(self):
        s = scenario(w=0.5, location=CurrentMean(), reps=10_000)
        spot = sweet_spots([s], self.grid())[0]
        assert not spot.empty
        assert spot.lower < 0.0 < spot.upper or spot.lower < spot.upper
        assert spot.max_power > 0.75
        assert spot.lower <= spot.argmax_bias <= spot.upper
        # both constraints hold strictly inside
        mid = 0.5 * (spot.lower + spot.upper)
        assert one_point(s, mid, "tie", exact=True) <= s.alpha + 1e-9
        assert one_point(s, mid, "power", exact=True) >= calibrated_power_no_borrowing(s.alpha, s) - 1e-9

    def test_smaller_weight_widens_the_spot(self):
        widths = {}
        for w in (0.25, 0.75):
            s = scenario(w=w, location=CurrentMean(), reps=10_000)
            widths[w] = sweet_spots([s], self.grid())[0].width
        assert widths[0.25] > widths[0.75]

    def test_no_borrowing_spot_carries_no_real_gain(self):
        # with the near-flat robust component and no informative weight
        # the test is within a whisker of the plain z test: whatever
        # formally feasible band survives offers no material power gain
        # (an exactly flat prior would sit exactly on the boundary)
        s = scenario(w=0.0, robust_variance=400.0, reps=10_000)
        spot = sweet_spots([s], self.grid())[0]
        if not spot.empty:
            assert spot.max_power - calibrated_power_no_borrowing(s.alpha, s) < 1e-4
        real = sweet_spots([scenario(w=0.5, location=CurrentMean(), reps=10_000)], self.grid())[0]
        assert real.max_power - calibrated_power_no_borrowing(s.alpha, s) > 0.05

    def test_split_feasible_set_is_reported_as_data(self, monkeypatch):
        # Feasible on [-0.6, -0.4] and on [0.0, 0.3]: the wider run is kept
        # and the split is recorded, without a warning. The fake replaces
        # the Gauss-Hermite curve that every solve of the sweet spot reads.
        def fake_curve(s, biases, rates=("tie", "power"), nodes=160, weights=None):
            b = np.atleast_1d(biases)
            ok = ((b >= -0.6) & (b <= -0.4)) | ((b >= 0.0) & (b <= 0.3))
            return (np.where(ok, 0.01, 0.5).tolist(),
                    np.where(ok, 0.9 - 0.1 * (b - 0.1) ** 2, 0.5).tolist())

        monkeypatch.setattr(hybrid, "_gh_curve", fake_curve)
        s = scenario(w=0.5, location=CurrentMean())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spot = sweet_spots([s], self.grid())[0]
        assert not spot.empty and not spot.contiguous
        assert spot.lower == pytest.approx(0.0, abs=1e-3)
        assert spot.upper == pytest.approx(0.3, abs=1e-3)
        assert spot.argmax_bias == pytest.approx(0.1, abs=1e-3)
        assert len(spot.curve) == len(self.grid())

        cfg = recipe_config("fig8")
        cfg["sweep"].update(location=["current_mean"], n_robust=[1.0], w=[0.5],
                            bias=list(self.grid()))
        entry = sweep.run_config(cfg, threads=1).extras["sweet_spots"][0]
        assert entry["contiguous"] is False
        assert entry["lower"] == pytest.approx(0.0, abs=1e-3)
        assert entry["upper"] == pytest.approx(0.3, abs=1e-3)

    def grids(self):
        return {"wide": tuple(np.round(np.arange(-1.5, 1.5001, 0.1), 10)),
                "narrow": tuple(np.round(np.arange(-0.2, 0.2001, 0.05), 10))}

    @pytest.mark.parametrize("location,treatment_prior,n_robust,grid,weights,kinds", [
        # w 0 finds no spot; the others are inside the grid.
        (CurrentMean(), TreatmentPrior.FLAT, 1.0, "wide", (0.0, 0.25, 0.75), ("empty", "inner", "inner")),
        # An empty spot, a run touching the upper and one touching the lower edge.
        (ExternalMean(), TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN, 1 / 25, "narrow", (0.0, 0.1, 0.5),
         ("empty", "upper edge", "lower edge")),
    ])
    def test_a_block_gives_the_per_curve_spots_bit_for_bit(
            self, location, treatment_prior, n_robust, grid, weights, kinds):
        grid = self.grids()[grid]
        block = [scenario(w=w, location=location, n_robust=n_robust, treatment_prior=treatment_prior,
                          reps=10) for w in weights]
        spots = sweet_spots(block, grid)
        for s, spot, kind in zip(block, spots, kinds):
            want = oracles.sweet_spot(s, grid)
            assert (spot, spot.curve) == (want, want.curve)
            one = sweet_spots([s], grid)[0]
            assert (spot.contiguous, one, one.curve) == (True, want, want.curve)
            edges = (spot.lower == grid[0], spot.upper == grid[-1])
            assert {"empty": spot.empty, "inner": edges == (False, False),
                    "lower edge": edges == (True, False), "upper edge": edges == (False, True)}[kind]

    def test_a_block_with_a_split_feasible_set_gives_the_per_curve_spots(self, monkeypatch):
        # A fake curve by weight: w 0.5 split as above, w 0.25 one run from
        # the lower edge, w 0.9 empty. The lockstep block and the per-curve
        # reference read it at every point they ask for.
        def fake_curve(s, biases, rates=("tie", "power"), nodes=160, weights=None):
            b = np.atleast_1d(biases)
            w = np.full(b.size, s.prior.informative_weight) if weights is None else np.asarray(weights)
            ok = np.where(w == 0.5, ((b >= -0.6) & (b <= -0.4)) | ((b >= 0.0) & (b <= 0.3)),
                          (w == 0.25) & (b <= -0.13))
            return (np.where(ok, 0.01, 0.5).tolist(),
                    np.where(ok, 0.9 - 0.1 * (b - 0.1 + w) ** 2, 0.5).tolist())

        monkeypatch.setattr(hybrid, "_gh_curve", fake_curve)
        block = [scenario(w=w, location=CurrentMean()) for w in (0.5, 0.25, 0.9)]
        spots = sweet_spots(block, self.grid())
        assert [(s.empty, s.contiguous) for s in spots] == [(False, False), (False, True), (True, True)]
        assert spots[1].lower == self.grid()[0]
        for s, spot in zip(block, spots):
            want = oracles.sweet_spot(s, self.grid())
            assert (spot, spot.curve) == (want, want.curve)

    def test_a_block_differs_only_in_the_weight(self):
        with pytest.raises(ValueError, match="only in the informative weight"):
            sweet_spots([scenario(w=0.5), scenario(w=0.25, n_robust=0.25)], self.grid())

    def test_an_empty_block_has_no_spots(self):
        # An empty block used to raise IndexError on block[0]; its grid is
        # still checked.
        assert sweet_spots([], self.grid()) == []
        with pytest.raises(ValueError, match="strictly increasing"):
            sweet_spots([], self.grid()[::-1])

    def test_needs_a_grid(self):
        s = scenario(w=0.5, location=CurrentMean(), reps=10_000)
        with pytest.raises(ValueError):
            sweet_spots([s], ())

    @pytest.mark.parametrize("order", ["reversed", "shuffled", "repeated"])
    def test_needs_an_increasing_grid(self, order):
        # At the parent of this check, a reversed grid gave lower > upper and
        # a shuffled one a narrow, wrong interval, with no error.
        grid = self.grid()
        grid = {"reversed": grid[::-1], "shuffled": tuple(np.random.default_rng(0).permutation(grid)),
                "repeated": grid[:3] + grid[2:]}[order]
        s = scenario(w=0.5, location=CurrentMean(), reps=10_000)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweet_spots([s], grid)


class TestSharedThreshold:
    """One threshold solve per bias serves TIE, power and the sweet spot."""

    GRID = tuple(np.round(np.arange(-1.5, 1.5001, 0.25), 10))

    @pytest.mark.parametrize(
        "location,treatment_prior,w,form",
        [
            (ExternalMean(), TreatmentPrior.FLAT, 0.5, Normal()),
            (CurrentMean(), TreatmentPrior.FLAT, 0.0, Normal()),
            (CurrentMean(), TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN, 1.0, Normal()),
            (ExternalMean(), TreatmentPrior.UNIT_INFO_AT_EXTERNAL_MEAN, 0.25, Normal()),
            (CurrentMean(), TreatmentPrior.FLAT, 0.5, StudentT(3.0, 1.0, 10)),
            (ExternalMean(), TreatmentPrior.FLAT, 0.75, StudentT(3.0, 1.0, 100)),
        ],
    )
    def test_shared_solve_equals_single_effect_solves(self, location, treatment_prior, w, form):
        spec = MixturePriorSpec(w, EXT, location, form, n_robust=1.0)
        s = HybridScenario(
            20, 40, 1.0, EXT, spec, effect=0.83, seed=1, reps=10,
            treatment_prior=treatment_prior, control_mean=0.3,
        )
        ties, powers = hybrid.oc_curve(s, self.GRID, exact=True)
        assert ties == [reject_prob_gh(s, b, 0.0) for b in self.GRID]
        assert powers == [reject_prob_gh(s, b, s.effect) for b in self.GRID]
        assert one_point(s, self.GRID[3], "tie", exact=True) == ties[3]
        assert one_point(s, self.GRID[3], "power", exact=True) == powers[3]

    def test_a_bracket_on_the_wrong_side_raises(self, monkeypatch):
        # A negative half-width puts the lower end above every threshold.
        monkeypatch.setattr(hybrid, "_BRACKET_SDS", -30.0)
        s = scenario(w=0.5)
        with pytest.raises(RuntimeError, match=r"'hybrid'.*lower end.*bias 0\.25.*node 0 of 160"):
            one_point(s, 0.25, "tie", exact=True)

    def test_a_block_solve_names_the_failing_curves_weight(self, monkeypatch):
        monkeypatch.setattr(hybrid, "_BRACKET_SDS", -30.0)
        s = scenario(w=0.5)
        with pytest.raises(RuntimeError, match=r"'hybrid'.*lower end.*bias 0\.25 and weight 0\.75.*node 0 of 160"):
            hybrid._gh_thresholds(s, [0.25, 0.5], weights=[0.75, 0.5])
        with pytest.raises(RuntimeError, match=r"lower end.*bias -0\.8 and weight 0\.25, .*node 0 of 160"):
            sweet_spots([scenario(w=w) for w in (0.25, 0.5)], (-0.8, -0.75, -0.7))

    def test_the_sweep_solves_no_grid_bias_beyond_the_sweet_spot(self, monkeypatch):
        cfg = recipe_config("fig8")
        cfg["sweep"].update(location=["current_mean"], n_robust=[1.0], w=[0.25, 0.5])
        solved = []
        solve = hybrid._gh_thresholds

        def counting(s, biases, nodes=160, weights=None):
            b = np.atleast_1d(biases).tolist()
            w = [s.prior.informative_weight] * len(b) if weights is None else np.asarray(weights).tolist()
            solved.append(tuple(zip(w, b)))
            return solve(s, biases, nodes, weights)

        monkeypatch.setattr(hybrid, "_gh_thresholds", counting)
        rows = sweep.run_config(cfg, threads=1).rows
        from_sweep = list(solved)
        solved.clear()
        block = [s for s, _, _ in sweep._curves(normalize_config(cfg))]
        grid = normalize_config(cfg)["sweep"]["bias"]
        for s in block:
            oracles.sweet_spot(s, grid)
        # The grid scan is one solve over every curve's grid, and the curves
        # the sweep writes are that scan: the sweep solves exactly the
        # (weight, bias) points of the per-curve sweet spots, in fewer solves.
        assert from_sweep[0] == tuple((w, b) for w in (0.25, 0.5) for b in grid) and len(grid) == 61
        assert Counter(p for points in from_sweep for p in points) == Counter(
            p for points in solved for p in points)
        assert len(from_sweep) < len(solved) / 2
        assert [(r.tie, r.power) for r in rows] == [
            (reject_prob_gh(s, b, 0.0), reject_prob_gh(s, b, s.effect)) for s in block for b in grid
        ]

    def test_the_solve_stops_once_every_bracket_has_collapsed(self, monkeypatch):
        # One fig8 solve: two bracket checks and at most 80 bisection steps,
        # one ndtr call each; the brackets collapse before the 80th step.
        grid = normalize_config(recipe_config("fig8"))["sweep"]["bias"]
        s = scenario(w=0.5, location=CurrentMean())
        calls, ndtr = [], hybrid.ndtr
        monkeypatch.setattr(hybrid, "ndtr", lambda x, **kw: calls.append(1) or ndtr(x, **kw))
        hybrid._gh_thresholds(s, grid)
        assert len(calls) < 2 + 80
        monkeypatch.undo()
        ties, powers = hybrid.oc_curve(s, grid, exact=True)
        assert ties == [reject_prob_gh(s, b, 0.0) for b in grid]
        assert powers == [reject_prob_gh(s, b, s.effect) for b in grid]

    def test_160_nodes_agree_with_320(self):
        # fig8's (location x n_robust x w) product at every quarter bias.
        # The largest gap seen was 2.2e-8 (n_robust 1/400, w 0.9, where the
        # posterior weight switches sharply in the control mean); the median
        # cell's is 4e-13.
        worst = 0.0
        for location, n_robust, w in itertools.product(
            (ExternalMean(), CurrentMean()), (1 / 400, 1 / 25, 0.25, 1.0),
            (0.1, 0.25, 0.5, 0.75, 0.9),
        ):
            s = scenario(w=w, location=location, n_robust=n_robust)
            coarse = np.array(hybrid._gh_curve(s, self.GRID, nodes=160))
            fine = np.array(hybrid._gh_curve(s, self.GRID, nodes=320))
            worst = max(worst, float(np.abs(coarse - fine).max()))
        assert worst < 1e-7


class TestDeltaRestricted:
    def test_gains_shrink_as_the_restriction_loosens(self):
        s = scenario(w=0.5, reps=10_000)
        tie_01, gain_01 = hybrid.restricted_summary(
            s, *hybrid.oc_curve(s, hybrid.delta_grid(0.1), exact=True))
        tie_05, gain_05 = hybrid.restricted_summary(
            s, *hybrid.oc_curve(s, hybrid.delta_grid(0.5), exact=True))
        assert tie_05 > tie_01 > 0.02
        assert gain_01 > gain_05

    def test_reference_point_against_quadrature(self):
        s = scenario(w=0.5, reps=10_000)
        max_tie, gain = hybrid.restricted_summary(
            s, *hybrid.oc_curve(s, hybrid.delta_grid(0.1), exact=True))
        assert max_tie == pytest.approx(0.0238, abs=3e-4)
        assert gain == pytest.approx(0.0988, abs=2e-3)

    def test_table_at_small_reps_writes_every_row(self):
        # At 10 reps a delta's Monte Carlo TIEs can all be 0; the z test at
        # level 0 never rejects, so its calibrated power is 0, not an error.
        cfg = recipe_config("table1")
        cfg["reps"] = 10
        result = sweep.run_config(cfg, threads=2)
        assert len(result.rows) == 328
        summary = result.extras["delta_summary"]
        zero = [e for e in summary if e["max_tie_pct"] == 0.0]
        assert zero, "expected a delta whose Monte Carlo TIEs are all 0"
        assert all(math.isfinite(e["max_power_gain_pct"]) for e in summary)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -0.1])
    def test_a_delta_must_be_finite_and_positive(self, delta):
        # An infinite delta used to pass the check and give 41 NaN biases,
        # which failed later inside SufficientStat.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta must be finite and > 0"):
                hybrid.delta_grid(delta)

    def test_summary_at_level_zero_is_uncalibrated_power(self):
        s = scenario(w=0.5)
        assert hybrid.restricted_summary(s, [0.0, 0.0], [0.2, 0.3]) == (0.0, 0.3)
        assert hybrid.restricted_summary(s, [0.025, 0.01], [0.5, 0.8]) == (
            0.025, 0.8 - calibrated_power_no_borrowing(0.025, s)
        )


class TestAverageOCs:
    # A design prior is the scenario's mixture at an informative weight:
    # 1 the informative prior, 0.5 the mixture, 0 the vague component.
    @pytest.mark.parametrize("w", [1.0, 0.5, 0.0])
    def test_matched_design_and_analysis_hold_the_level(self, w):
        s = scenario(w=w, reps=400_000)
        tie = hybrid.average_curve(s, w, [0.0])[0][0]
        assert tie == pytest.approx(0.025, abs=0.0015)

    def test_degenerate_design_prior_reduces_to_plain_tie(self):
        # a design prior that is numerically a point mass at the external
        # mean reproduces the fixed-bias error rate at zero bias
        ext_huge = SufficientStat(0.0, 10**12, 1.0)
        spec = MixturePriorSpec(0.5, ext_huge, ExternalMean(), Normal(), n_robust=1.0)
        s = HybridScenario(20, 20, 1.0, ext_huge, spec, effect=0.83, seed=91, reps=200_000)
        avg = hybrid.average_curve(s, 1.0, [0.0])[0][0]
        fixed = one_point(s, 0.0, "tie")
        assert avg == pytest.approx(fixed, abs=2e-3)

    def test_current_mean_analysis_avoids_the_upward_trend(self):
        s_ext = scenario(w=0.5, location=ExternalMean(), reps=200_000)
        s_cur = scenario(w=0.5, location=CurrentMean(), reps=200_000)
        weight = 0.5
        # conflict direction that pulls the control posterior down
        ext_far = hybrid.average_curve(s_ext, weight, [-2.0])[0][0]
        cur_far = hybrid.average_curve(s_cur, weight, [-2.0])[0][0]
        assert ext_far > 0.04
        assert cur_far < ext_far - 0.01
        # and the external-mean trend keeps growing with the shift
        assert ext_far > hybrid.average_curve(s_ext, weight, [-0.5])[0][0]

    def test_average_power_behaves_like_power(self):
        s = scenario(w=0.5, reps=200_000)
        assert hybrid.average_curve(s, 0.5, [0.0])[1][0] > 0.7

    @pytest.mark.parametrize("weight", [None, math.nan, -0.1, 1.5])
    def test_design_prior_required(self, weight):
        # The design prior is an informative weight in [0, 1].
        s = scenario(w=0.5, reps=1000)
        with pytest.raises(ValueError, match=r"informative weight must be in \[0, 1\]"):
            hybrid.average_curve(s, weight, [0.0])


class TestScenarioValidation:
    def test_null_boundary_rejected_for_hybrid(self):
        spec = MixturePriorSpec(0.5, EXT, NullBoundary(0.0), Normal())
        with pytest.raises(ValueError):
            HybridScenario(20, 20, 1.0, EXT, spec, effect=0.83, seed=1, reps=10)

    def test_effect_must_be_positive(self):
        spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal())
        with pytest.raises(ValueError):
            HybridScenario(20, 20, 1.0, EXT, spec, effect=0.0, seed=1, reps=10)
