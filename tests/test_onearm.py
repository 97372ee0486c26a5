"""One-arm operating characteristics: closed-form and cross-path oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from borrowsim import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    OneArmScenario,
    StudentT,
    SufficientStat,
    one_arm_rmse,
    one_arm_tie_exact,
)
from borrowsim import onearm
from borrowsim.config import normalize_config
from borrowsim.onearm import _exact_curve, mean_posterior_weight
from borrowsim.recipes import recipe_config
from borrowsim.sweep import _curves
from oracles import posterior_stats, weight_propagation

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)


def scenario(w=0.5, location=None, n_robust=1.0, robust_variance=None, form=None,
             reps=100_000, seed=91, n=20):
    spec = MixturePriorSpec(
        w,
        EXT,
        location if location is not None else ExternalMean(),
        form if form is not None else Normal(),
        n_robust=None if robust_variance is not None else n_robust,
        robust_variance=robust_variance,
    )
    return OneArmScenario(0.0, 0.5, n, 1.0, EXT, spec, seed=seed, reps=reps)


def one_point(s, bias, rate, exact=False):
    """One rate at one bias: a one-point ``onearm.oc_curve``."""
    return onearm.oc_curve(s, [bias], exact=exact, rates=(rate,))[0][0]


def near_flat_tie_oracle(n_robust=1.0 / 400.0, n=20, alpha=0.025):
    """Closed-form TIE of the robust-only test with the prior at the null."""
    z = ndtri(1 - alpha)
    prior_prec = n_robust  # variance sigma^2/n_robust with sigma = 1
    post_prec = prior_prec + n
    # reject iff n*ybar/post_prec >= z/sqrt(post_prec)
    threshold = z * math.sqrt(post_prec) / n
    return 1 - ndtr(threshold * math.sqrt(n))


class TestNoBorrowingBaselines:
    def test_near_flat_robust_matches_z_test(self):
        s = scenario(w=0.0, location=NullBoundary(0.0), robust_variance=400.0,
                     reps=400_000)
        oracle = near_flat_tie_oracle()
        assert oracle == pytest.approx(0.0249, abs=1e-4)
        mc = one_point(s, 0.0, "tie")
        se = math.sqrt(oracle * (1 - oracle) / s.reps)
        assert abs(mc - oracle) < 3 * se
        assert one_arm_tie_exact(s, 0.0) == pytest.approx(oracle, abs=1e-9)

    def test_power_against_closed_form(self):
        s = scenario(w=0.0, location=NullBoundary(0.0), robust_variance=400.0,
                     reps=400_000)
        exact = one_point(s, 0.0, "power", exact=True)
        # the plain z test at alpha 0.025, n=20, effect 0.5 sits at 0.6088;
        # the 1/400-precision prior at the null shaves a few parts in 1e4
        assert exact == pytest.approx(0.6083, abs=5e-4)
        mc = one_point(s, 0.0, "power")
        assert abs(mc - exact) < 3 * math.sqrt(exact * (1 - exact) / s.reps)

    def test_power_far_alternative_saturates(self):
        s = scenario(w=0.0, location=NullBoundary(0.0), robust_variance=400.0,
                     reps=10_000)
        s = OneArmScenario(0.0, 5.0, 20, 1.0, EXT, s.prior, seed=3, reps=10_000)
        assert one_point(s, 0.0, "power") == pytest.approx(1.0, abs=1e-4)


class TestRejectionRegion:
    def test_no_borrowing_region_is_the_z_test_half_line(self):
        s = scenario(w=0.0, location=NullBoundary(0.0), robust_variance=400.0,
                     reps=10_000)
        region = list(_exact_curve(s, (0.0,))[0])
        assert len(region) == 1
        lo, hi = region[0]
        assert math.isinf(hi)
        z = ndtri(0.975)
        post_prec = 1.0 / 400.0 + 20.0
        expected = z * math.sqrt(post_prec) / 20.0
        assert lo == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("location", [ExternalMean(), NullBoundary(0.0), CurrentMean()])
    @pytest.mark.parametrize("bias_mult", [-4.0, 0.0, 2.0, 4.0])
    def test_monte_carlo_agrees_with_region_probability(self, location, bias_mult):
        s = scenario(w=0.5, location=location, reps=200_000)
        bias = bias_mult * SD_EXT
        exact = one_arm_tie_exact(s, bias)
        mc = one_point(s, bias, "tie")
        se = math.sqrt(max(exact * (1 - exact), 1e-8) / s.reps)
        assert abs(mc - exact) <= 3 * se

    @pytest.mark.parametrize("use_exact_t", [False, True])
    def test_a_scan_needs_two_points(self, use_exact_t):
        # At 0 or 1 scan points the region used to come out empty, so the
        # exact TIE read 0; from 2 points on the window's ends bound it.
        s = scenario(form=StudentT(3.0, 1.0, 100), reps=1, seed=7)
        for points in (0, 1):
            with pytest.raises(ValueError, match=f"scan_points must be at least 2.*got {points}"):
                _exact_curve(s, (0.5,), use_exact_t, points)
            with pytest.raises(ValueError, match=f"got {points}"):
                one_arm_tie_exact(s, 0.5, use_exact_t=use_exact_t, scan_points=points)
        for points in (2, 3, 11):
            (lo, hi), = _exact_curve(s, (0.5,), use_exact_t, points)[0]
            assert lo == pytest.approx(0.3125, abs=1e-4) and hi == math.inf

    def test_region_supports_t_bank_decisions(self):
        s = scenario(w=0.5, form=StudentT(3.0, 1.0, 50), reps=10_000)
        region = list(_exact_curve(s, (2 * SD_EXT,))[0])
        assert region
        tie = one_arm_tie_exact(s, 2 * SD_EXT)
        assert 0.0 < tie < 1.0

    def test_tie_curve_rises_then_falls_for_heavy_tail(self):
        # Non-monotone error rate in the conflict: the single rejection
        # threshold moves down then back up as the heavy-tailed component
        # discounts the external data.
        s = scenario(w=0.5, form=StudentT(3.0, 1.0, 50), reps=10_000)
        t0 = one_arm_tie_exact(s, 0.0)
        t_peak = one_arm_tie_exact(s, 2 * SD_EXT)
        t_far = one_arm_tie_exact(s, 12 * SD_EXT)
        assert t_peak > t0
        assert t_peak > t_far


class TestExtremeBiasLimits:
    def test_current_mean_cap_matches_variance_deflation_formula(self):
        s = scenario(w=0.5, location=CurrentMean(), reps=10_000)
        limit = 1 - ndtr(ndtri(0.975) * math.sqrt(20.0 / 21.0))
        assert one_arm_tie_exact(s, 30 * SD_EXT) == pytest.approx(limit, abs=2e-4)

    def test_null_boundary_cap_equals_robust_only_level(self):
        s = scenario(w=0.5, location=NullBoundary(0.0), reps=10_000)
        s0 = scenario(w=0.0, location=NullBoundary(0.0), reps=10_000)
        far = one_arm_tie_exact(s, 30 * SD_EXT)
        robust_only = one_arm_tie_exact(s0, 0.0)
        assert far == pytest.approx(robust_only, abs=1e-6)

    def test_location_choice_irrelevant_for_near_flat_robust(self):
        curves = []
        for loc in (ExternalMean(), NullBoundary(0.0), CurrentMean()):
            s = scenario(w=0.5, location=loc, robust_variance=400.0, reps=10_000)
            curves.append([one_arm_tie_exact(s, m * SD_EXT) for m in (0, 1, 2, 3, 4)])
        spread = np.max(np.ptp(np.array(curves), axis=0))
        assert spread <= 0.005


class TestPowerDominance:
    @pytest.mark.parametrize("bias_mult", [0.0, 1.0, 2.0, 4.0])
    def test_power_at_least_tie_when_alternative_above_null(self, bias_mult):
        s = scenario(w=0.5, reps=10_000)
        bias = bias_mult * SD_EXT
        assert one_point(s, bias, "power", exact=True) >= one_arm_tie_exact(s, bias)


class TestRmse:
    def test_robust_only_current_mean_is_the_mle(self):
        # the posterior mean is exactly the observed mean draw by draw, so
        # the standardized RMSE is the empirical second moment of the
        # standardized draws (one up to Monte Carlo noise)
        from borrowsim.onearm import _draws

        s = scenario(w=0.0, location=CurrentMean(), reps=50_000)
        ybar = _draws(s, 0.0)
        _, pmeans, _ = posterior_stats(s, 0.0, ybar)
        assert pmeans == pytest.approx(ybar, rel=1e-12)
        _, standardized = one_arm_rmse(s, 0.0)
        assert standardized == pytest.approx(
            math.sqrt(np.mean((ybar / s.se) ** 2)), rel=1e-12
        )
        assert standardized == pytest.approx(1.0, abs=4 * math.sqrt(0.5 / s.reps))

    def test_borrowing_without_conflict_beats_the_mle(self):
        # informative-only prior centered exactly at the truth
        s = scenario(w=1.0, reps=200_000)
        rmse, standardized = one_arm_rmse(s, 0.0, true_mean=0.0)
        shrink = 20.0 / 35.0  # posterior mean weight on the data
        oracle = shrink / math.sqrt(20.0)  # sd of the shrunken estimator
        assert standardized < 1.0
        assert rmse == pytest.approx(oracle, rel=0.02)

    def test_external_mean_conflict_inflates_rmse_without_bound(self):
        # once the informative component is fully discounted, the robust
        # component (also anchored at the external mean) keeps dragging
        # the estimate, so the error grows linearly in the conflict
        s = scenario(w=0.5, reps=100_000)
        values = [one_arm_rmse(s, m * SD_EXT)[1] for m in (0, 8, 30, 60)]
        assert values[1] > values[0]
        assert values[1] > 1.0
        assert values[3] > values[2] > values[1]
        assert values[3] > 3.0


class TestWeightPropagation:
    def test_boundary_columns(self):
        s = scenario(reps=20_000)
        wp = weight_propagation(s, [0.0, 0.5, 1.0], [0.0, 2 * SD_EXT], [1.0])
        assert np.all(wp.mean[:, :, 0] == 0.0)
        assert np.all(wp.mean[:, :, 2] == 1.0)
        assert np.all((wp.mean >= 0) & (wp.mean <= 1))

    def test_vague_robust_holds_weight_even_without_bias(self):
        s = scenario(reps=100_000)
        wp = weight_propagation(s, [0.5], [0.0], [1.0 / 400.0])
        assert wp.mean[0, 0, 0] > 0.9
        assert wp.at_expected[0, 0, 0] > 0.9

    def test_extreme_bias_discards_the_informative_component(self):
        s = scenario(reps=100_000)
        wp = weight_propagation(s, [0.25, 0.5, 0.75], [8 * SD_EXT], [1.0])
        assert np.all(wp.mean[0, 0, :] < 0.05)

    def test_plug_in_tracks_the_monte_carlo_mean(self):
        s = scenario(reps=200_000)
        wp = weight_propagation(s, [0.5], [2 * SD_EXT], [1.0])
        assert wp.mean[0, 0, 0] == pytest.approx(wp.at_expected[0, 0, 0], abs=0.05)

    def test_library_weight_matches_the_oracle_on_the_fig4_grid(self):
        # The library reads the weight off its posterior kernel; the oracle
        # forms it from hand-written log-marginals.
        cfg = normalize_config({**recipe_config("fig4"), "reps": 2_000})
        biases = cfg["sweep"]["bias"]
        curves = _curves(cfg)
        assert len(curves) * len(biases) == 5 * 3 * 51
        for s, _, w in curves:
            wp = weight_propagation(s, [w], biases, [s.prior.n_robust])
            for b, bias in enumerate(biases):
                assert abs(mean_posterior_weight(s, bias) - wp.mean[0, b, 0]) <= 1e-14


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = one_point(scenario(seed=5, reps=50_000), SD_EXT, "tie")
        b = one_point(scenario(seed=5, reps=50_000), SD_EXT, "tie")
        assert a == b

    def test_different_seeds_differ(self):
        a = one_point(scenario(seed=5, reps=50_000), SD_EXT, "tie")
        b = one_point(scenario(seed=6, reps=50_000), SD_EXT, "tie")
        assert a != b

    def test_common_random_numbers_across_bias(self):
        # identical draws across the bias axis make the TIE difference of
        # adjacent biases far less noisy than independent sampling would
        s1 = scenario(seed=5, reps=50_000)
        d1 = one_point(s1, 0.0, "tie") - one_point(s1, 0.01 * SD_EXT, "tie")
        assert abs(d1) < 5e-4

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_64_bits_is_rejected(self, seed):
        # The draw streams key on the seed's low 64 bits, so a seed 2**64
        # away from another would share its draws.
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            scenario(seed=seed)
