"""Mixture-prior construction, including the heavy-tail normal bank."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist
from scipy.stats import t as student_t

from borrowsim import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
    SufficientStat,
    build_informative,
    resolve_location,
)
from borrowsim import inference
from borrowsim.gaussian import gauss_rule
from borrowsim.priors import MAX_T_COMPONENTS, prior_bank_params
from mixtures import (
    build_mixture_prior,
    mixture_pdf,
    t_to_normal_mixture,
    unit_information_variance,
)

EXT = SufficientStat(0.0, 15, 1.0)


class TestInformative:
    def test_reference_external_study(self):
        c = build_informative(EXT)
        assert c.mean == 0.0
        assert c.variance == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_single_observation(self):
        c = build_informative(SufficientStat(0.3, 1, 2.0))
        assert (c.mean, c.variance) == (0.3, pytest.approx(4.0, rel=1e-14))

    def test_variance_halves_when_n_doubles(self):
        v1 = build_informative(SufficientStat(0.0, 10, 1.5)).variance
        v2 = build_informative(SufficientStat(0.0, 20, 1.5)).variance
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-14)


class TestUnitInformation:
    def test_values(self):
        assert unit_information_variance(1.0) == 1.0
        assert unit_information_variance(2.0) == 4.0

    def test_equals_one_patient_worth(self):
        spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal(), n_robust=1.0)
        assert spec.resolved_robust_variance() == unit_information_variance(EXT.sigma)


class TestResolveLocation:
    def test_external_mean(self):
        assert resolve_location(ExternalMean(), SufficientStat(0.4, 15, 1.0)) == 0.4

    def test_null_boundary(self):
        assert resolve_location(NullBoundary(0.0), EXT) == 0.0

    def test_current_mean(self):
        cur = SufficientStat(0.12, 20, 1.0)
        assert resolve_location(CurrentMean(), EXT, cur) == 0.12

    def test_current_mean_requires_data(self):
        with pytest.raises(ValueError):
            resolve_location(CurrentMean(), EXT, None)


def gamma_quantile_oracle(p, shape, rate):
    """Invert the regularized incomplete gamma by bracketed root search."""
    f = lambda x: gammainc(shape, rate * x) - p
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
    return brentq(f, 1e-12, hi, xtol=1e-14, rtol=8.9e-16)


class TestTApproximation:
    def test_quantile_grid_matches_independent_inversion(self):
        lam, _ = gauss_rule("gamma", 10, 3.0)
        for i, value in enumerate(lam):
            p = (i + 0.5) / 10
            assert value == pytest.approx(gamma_quantile_oracle(p, 1.5, 1.5), rel=1e-10)

    @pytest.mark.parametrize("df", [0.1, 0.5, 1, 1.5, 2, 2.05, 2.5, 3, 4, 5, 7.3, 10, 30, 100, 1000])
    def test_quantile_grid_is_scipy_stats_gamma_ppf_bit_for_bit(self, df):
        # The bank's precisions come from scipy.special.gammaincinv, the
        # expression scipy.stats.gamma.ppf evaluates. Every recipe's
        # fingerprint rests on the two agreeing in the last bit; a SciPy that
        # splits them fails here rather than moving results silently.
        for k in (1, 2, 5, 10, 20, 50, 100, 101, 200, 400, 1000):
            levels = (np.arange(1, k + 1) - 0.5) / k
            expected = gamma_dist.ppf(levels, a=df / 2.0, scale=2.0 / df)
            got = gauss_rule("gamma", k, df)[0]
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (df, k)

    def test_single_component_uses_the_median_precision(self):
        m = t_to_normal_mixture(0.3, StudentT(3.0, 1.0, 1))
        median = gamma_quantile_oracle(0.5, 1.5, 1.5)
        assert len(m) == 1
        assert m.components[0].mean == 0.3
        assert m.components[0].variance == pytest.approx(1.0 / median, rel=1e-10)

    def test_variances_strictly_decreasing(self):
        m = t_to_normal_mixture(0.0, StudentT(3.0, 1.0, 100))
        variances = np.array([c.variance for c in m.components])
        assert np.all(np.diff(variances) < 0)
        assert np.all(variances > 0)

    def test_k100_variance_approaches_exact_t_from_below(self):
        # Exact variance is scale**2 * df/(df-2) = 3. The midpoint-quantile
        # bank truncates the extreme low-precision stratum, whose share of
        # the variance decays like k**(-1/3) for df = 3, so at k = 100 the
        # bank sits about 13% below; the gap shrinks monotonically in k.
        target = 3.0
        gaps = []
        for k in (25, 50, 100, 200, 1000):
            var = t_to_normal_mixture(0.0, StudentT(3.0, 1.0, k)).variance()
            assert var < target
            gaps.append(target - var)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[2] == pytest.approx(3.0 - 2.6157831614840052, rel=1e-9)

    def test_large_df_recovers_the_normal_scale(self):
        var = t_to_normal_mixture(0.0, StudentT(1e6, 1.0, 100)).variance()
        assert var == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("df,scale", [(3.0, 1.0), (5.0, 0.7)])
    def test_density_refinement_with_more_components(self, df, scale):
        xs = np.linspace(-10 * scale, 10 * scale, 1501)
        exact = student_t.pdf(xs / scale, df) / scale
        prev = None
        for k in (10, 25, 50, 100, 200):
            m = t_to_normal_mixture(0.0, StudentT(df, scale, k))
            dist = float(np.max(np.abs(mixture_pdf(xs, m) - exact)))
            if prev is not None:
                assert dist <= prev
            prev = dist
        assert prev < 1e-4


class TestBuildMixturePrior:
    def test_informative_only_boundary(self):
        spec = MixturePriorSpec(1.0, EXT, ExternalMean(), Normal(), n_robust=1.0)
        m = build_mixture_prior(spec)
        assert m.weights == (1.0, 0.0)

    def test_reference_two_component_prior(self):
        spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal(), n_robust=1.0)
        m = build_mixture_prior(spec)
        assert m.weights == (0.5, 0.5)
        assert m.components[0].variance == pytest.approx(1.0 / 15.0, rel=1e-14)
        assert m.components[1].variance == pytest.approx(1.0, rel=1e-14)
        assert m.components[0].mean == m.components[1].mean == 0.0

    def test_t_form_splits_the_robust_weight_evenly(self):
        spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 1.0, 2))
        m = build_mixture_prior(spec)
        assert m.weights == pytest.approx((0.5, 0.25, 0.25))

    def test_component_zero_is_informative(self):
        spec = MixturePriorSpec(0.3, EXT, NullBoundary(-1.0), Normal(), n_robust=2.0)
        m = build_mixture_prior(spec)
        assert m.components[0].mean == EXT.mean
        assert m.components[1].mean == -1.0
        assert m.components[1].variance == pytest.approx(0.5, rel=1e-14)

    def test_current_mean_is_resolved_per_dataset(self):
        spec = MixturePriorSpec(0.5, EXT, CurrentMean(), Normal(), n_robust=1.0)
        cur = SufficientStat(0.42, 20, 1.0)
        m = build_mixture_prior(spec, current=cur)
        assert m.components[1].mean == 0.42
        with pytest.raises(ValueError):
            build_mixture_prior(spec)

    @pytest.mark.parametrize("form", [Normal(), StudentT(3.0, 0.7, 5)])
    @pytest.mark.parametrize("location", [ExternalMean(), CurrentMean(), NullBoundary(-1.0)])
    def test_is_a_view_of_the_array_form(self, form, location):
        ext = SufficientStat(0.3, 15, 1.0)
        spec = MixturePriorSpec(0.3, ext, location, form, n_robust=0.7)
        cur = SufficientStat(0.42, 20, 1.0)
        m = build_mixture_prior(spec, current=cur)
        variances, log_w, info_mean, robust_loc = prior_bank_params(spec, ext)
        loc = cur.mean if robust_loc is None else robust_loc
        assert m.means().tolist() == [info_mean] + [loc] * (variances.size - 1)
        assert m.sds().tolist() == np.sqrt(variances).tolist()
        weights = np.exp(log_w)
        assert m.weights == tuple(weights / weights.sum())

    def test_explicit_robust_variance(self):
        spec = MixturePriorSpec(
            0.5, EXT, ExternalMean(), Normal(), n_robust=None, robust_variance=400.0
        )
        m = build_mixture_prior(spec)
        assert m.components[1].variance == pytest.approx(400.0, rel=1e-14)
        assert spec.effective_n_robust() == pytest.approx(1.0 / 400.0, rel=1e-14)


class TestSpecValidation:
    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            MixturePriorSpec(1.2, EXT, ExternalMean(), Normal())

    def test_dispersion_exclusivity(self):
        with pytest.raises(ValueError):
            MixturePriorSpec(
                0.5, EXT, ExternalMean(), Normal(), n_robust=1.0, robust_variance=4.0
            )

    def test_student_t_parameter_bounds(self):
        with pytest.raises(ValueError):
            StudentT(df=2.0)
        with pytest.raises(ValueError):
            StudentT(scale=-1.0)
        with pytest.raises(ValueError):
            StudentT(k=0)

    def test_a_t_bank_holds_at_most_max_t_components(self):
        # A kernel chunk of two draws of the largest bank fits the budget.
        assert StudentT(k=MAX_T_COMPONENTS).k == MAX_T_COMPONENTS
        for k in (MAX_T_COMPONENTS + 1, 100_000):
            with pytest.raises(ValueError, match=f"in \\[1, {MAX_T_COMPONENTS}\\]"):
                StudentT(k=k)
        assert 2 * (MAX_T_COMPONENTS + 1) <= inference._CHUNK_ELEMENTS
