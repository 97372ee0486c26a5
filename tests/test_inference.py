"""Posterior updates, tail probabilities and the exact-t quadrature oracle
(a test-only reference, ``oracles.exact_t_tail_oracle``)."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from borrowsim import (
    CurrentMean,
    ExternalMean,
    GaussianComponent,
    GaussianMixture,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
    SufficientStat,
    build_mixture_prior,
    mixture_pdf,
    posterior,
    posterior_mean,
    prob_t_not_better,
    tail_probability,
)
from oracles import exact_t_tail_oracle

EXT = SufficientStat(0.0, 15, 1.0)
DATA = SufficientStat(0.0, 20, 1.0)


def two_component_prior(w, robust_var=1.0, robust_mean=0.0):
    return GaussianMixture(
        (
            GaussianComponent(EXT.mean, math.sqrt(1.0 / 15.0)),
            GaussianComponent(robust_mean, math.sqrt(robust_var)),
        ),
        (w, 1.0 - w),
    )


class TestPosteriorWeights:
    def test_weight_boundaries_are_fixed_points(self):
        for w in (0.0, 1.0):
            post = posterior(two_component_prior(w), DATA)
            assert post.w_informative == w

    def test_identical_components_leave_the_weight_alone(self):
        comp = GaussianComponent(0.2, 0.8)
        prior = GaussianMixture((comp, comp), (0.37, 0.63))
        post = posterior(prior, SufficientStat(1.1, 20, 1.0))
        assert post.w_informative == pytest.approx(0.37, rel=1e-12)

    def test_reference_update_against_marginal_oracle(self):
        # Oracle: marginal likelihoods by numeric integration of
        # prior times likelihood, then the weight-update identity.
        prior = two_component_prior(0.5)
        se = DATA.sigma / math.sqrt(DATA.n)

        def marg(comp):
            def f(theta):
                z1 = (theta - comp.mean) / comp.sd
                z2 = (DATA.mean - theta) / se
                return (
                    math.exp(-0.5 * (z1 * z1 + z2 * z2))
                    / (comp.sd * se * 2 * math.pi)
                )

            return quad(f, -12, 12, limit=200, epsrel=1e-12, epsabs=0)[0]

        m_ext = marg(prior.components[0])
        m_rob = marg(prior.components[1])
        expected = 0.5 * m_ext / (0.5 * m_ext + 0.5 * m_rob)
        post = posterior(prior, DATA)
        assert post.w_informative == pytest.approx(expected, rel=1e-9)
        # the predictive variance ratio here is exactly 9, so the weight
        # update lands on 3/4 exactly
        assert post.w_informative == pytest.approx(0.75, abs=1e-12)

    def test_weight_strictly_increasing_in_prior_weight(self):
        data = SufficientStat(0.35, 20, 1.0)
        values = [
            posterior(two_component_prior(w), data).w_informative
            for w in np.linspace(0.01, 0.99, 25)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_conflict_discards_the_external_data(self):
        # With the robust component anchored away from the external mean,
        # growing conflict drives the informative weight to zero.
        for loc in (NullBoundary(0.0), CurrentMean()):
            spec = MixturePriorSpec(0.5, SufficientStat(3.0, 15, 1.0), loc, Normal())
            prior = build_mixture_prior(spec, current=DATA)
            post = posterior(prior, DATA)
            assert post.w_informative < 1e-15

    def test_vague_robust_keeps_informative_weight_under_conflict(self):
        # A near-flat robust component loses the marginal-likelihood
        # comparison even at moderate conflict (two informative sds).
        sd_ext = math.sqrt(1.0 / 15.0)
        ext = SufficientStat(2 * sd_ext, 15, 1.0)
        spec = MixturePriorSpec(
            0.5, ext, ExternalMean(), Normal(), n_robust=None, robust_variance=400.0
        )
        post = posterior(build_mixture_prior(spec), DATA)
        assert post.w_informative > 0.9


class TestTailProbability:
    def test_symmetric_posterior_gives_half(self):
        post = posterior(two_component_prior(0.5), DATA)
        assert tail_probability(post, 0.0) == pytest.approx(0.5, abs=1e-12)
        with_tail = posterior(two_component_prior(0.5), DATA, null_value=0.0)
        assert with_tail.tail_at == (0.0, pytest.approx(0.5, abs=1e-12))

    def test_informative_only_equals_single_gaussian_tail(self):
        post = posterior(two_component_prior(1.0), DATA)
        comp = post.posterior.components[0]
        from borrowsim import gaussian_cdf

        assert tail_probability(post, 0.1) == pytest.approx(
            gaussian_cdf(0.1, comp), rel=1e-12
        )

    def test_matches_density_quadrature(self):
        data = SufficientStat(0.4, 20, 1.0)
        post = posterior(two_component_prior(0.5), data)
        oracle = quad(
            lambda x: mixture_pdf(x, post.posterior), -12, 0.1, limit=200,
            epsrel=1e-12, epsabs=0,
        )[0]
        assert tail_probability(post, 0.1) == pytest.approx(oracle, abs=1e-8)

    def test_bounded_and_continuous_in_the_observed_mean(self):
        values = []
        for ybar in np.linspace(-1.0, 1.5, 401):
            post = posterior(two_component_prior(0.5), SufficientStat(ybar, 20, 1.0))
            values.append(tail_probability(post, 0.0))
        values = np.array(values)
        assert np.all((values >= 0) & (values <= 1))
        assert np.max(np.abs(np.diff(values))) < 0.05


class TestPosteriorMean:
    def test_current_mean_robust_only_returns_the_data_mean(self):
        spec = MixturePriorSpec(0.0, EXT, CurrentMean(), Normal(), n_robust=1.0)
        data = SufficientStat(0.37, 20, 1.0)
        post = posterior(build_mixture_prior(spec, current=data), data)
        assert posterior_mean(post) == pytest.approx(0.37, rel=1e-14)

    def test_informative_only_is_the_conjugate_mean(self):
        data = SufficientStat(0.5, 20, 1.0)
        post = posterior(two_component_prior(1.0), data)
        assert posterior_mean(post) == pytest.approx((20 * 0.5) / 35.0, rel=1e-12)

    def test_matches_sampling_oracle(self):
        data = SufficientStat(0.45, 20, 1.0)
        post = posterior(two_component_prior(0.5), data)
        rng = np.random.default_rng(5150)
        n = 400_000
        comp = rng.random(n) < post.posterior.weights[0]
        c0, c1 = post.posterior.components
        draws = np.where(
            comp,
            rng.normal(c0.mean, c0.sd, n),
            rng.normal(c1.mean, c1.sd, n),
        )
        se = draws.std() / math.sqrt(n)
        assert abs(posterior_mean(post) - draws.mean()) < 3 * se

    def test_mean_identity_holds(self):
        post = posterior(two_component_prior(0.5), SufficientStat(0.9, 20, 1.0))
        manual = sum(
            w * c.mean for w, c in zip(post.posterior.weights, post.posterior.components)
        )
        assert post.mean == pytest.approx(manual, abs=1e-12)


class TestSuperiorityProbability:
    def test_exchangeable_posteriors_give_half(self):
        post_c = posterior(two_component_prior(0.5), DATA)
        post_t = GaussianComponent(post_c.mean, 0.9)
        # make it exactly symmetric: both centered at zero
        post_c0 = posterior(two_component_prior(0.5), SufficientStat(0.0, 20, 1.0))
        assert prob_t_not_better(post_c0, GaussianComponent(0.0, 0.9)) == pytest.approx(
            0.5, abs=1e-12
        )
        assert 0.0 <= prob_t_not_better(post_c, post_t) <= 1.0

    def test_dominant_treatment_limit(self):
        post_c = posterior(two_component_prior(0.5), DATA)
        assert prob_t_not_better(post_c, GaussianComponent(50.0, 0.3)) < 1e-12

    def test_matches_two_dimensional_monte_carlo(self):
        post_c = posterior(two_component_prior(0.5), SufficientStat(0.3, 20, 1.0))
        post_t = GaussianComponent(0.55, 0.25)
        rng = np.random.default_rng(777)
        n = 1_000_000
        comp = rng.random(n) < post_c.posterior.weights[0]
        c0, c1 = post_c.posterior.components
        theta_c = np.where(
            comp, rng.normal(c0.mean, c0.sd, n), rng.normal(c1.mean, c1.sd, n)
        )
        theta_t = rng.normal(post_t.mean, post_t.sd, n)
        hits = theta_t <= theta_c
        se = math.sqrt(hits.mean() * (1 - hits.mean()) / n)
        assert abs(prob_t_not_better(post_c, post_t) - hits.mean()) < 3 * se


class TestExactTOracle:
    def spec(self, w=0.5, ext_mean=0.0):
        return MixturePriorSpec(
            w, SufficientStat(ext_mean, 15, 1.0), ExternalMean(), StudentT(3.0, 1.0, 100)
        )

    def test_informative_only_matches_conjugate_tail(self):
        data = SufficientStat(0.4, 20, 1.0)
        oracle = exact_t_tail_oracle(self.spec(w=1.0), data, 0.0)
        post = posterior(two_component_prior(1.0), data)
        assert oracle == pytest.approx(tail_probability(post, 0.0), abs=1e-8)

    def test_symmetric_null_case(self):
        assert exact_t_tail_oracle(self.spec(), DATA, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_close_to_the_normal_bank_at_moderate_conflict(self):
        sd_ext = math.sqrt(1.0 / 15.0)
        data = SufficientStat(0.45, 20, 1.0)
        spec = self.spec(ext_mean=2 * sd_ext)
        oracle = exact_t_tail_oracle(spec, data, 0.0)
        approx = tail_probability(posterior(build_mixture_prior(spec), data), 0.0)
        assert approx == pytest.approx(oracle, abs=2e-4)

    def test_requires_student_t_form(self):
        spec = MixturePriorSpec(0.5, EXT, ExternalMean(), Normal())
        with pytest.raises(TypeError):
            exact_t_tail_oracle(spec, DATA, 0.0)
