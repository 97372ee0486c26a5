"""Distribution algebra: high-precision and quadrature oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from borrowsim import (
    GaussianComponent,
    GaussianMixture,
    SufficientStat,
    conjugate_update,
    gaussian_cdf,
    marginal_likelihood,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
)
from borrowsim.gaussian import bisect

mpmath.mp.dps = 40


def mp_normal_cdf(x):
    return float(mpmath.ncdf(x))


STD = GaussianComponent(0.0, 1.0)


class TestGaussianCdf:
    def test_symmetry_at_center(self):
        assert gaussian_cdf(0.0, STD) == 0.5

    def test_upper_critical_value(self):
        oracle = mp_normal_cdf(1.959964)
        assert abs(gaussian_cdf(1.959964, STD) - oracle) < 1e-12
        assert abs(gaussian_cdf(1.959964, STD) - 0.975) < 1e-8

    def test_far_left_limit(self):
        assert gaussian_cdf(-40.0, STD) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("x", np.linspace(-6, 6, 25).tolist())
    def test_matches_mpmath_everywhere(self, x):
        c = GaussianComponent(0.3, 2.5)
        assert abs(gaussian_cdf(x, c) - mp_normal_cdf((x - 0.3) / 2.5)) < 1e-12


class TestMixturePdfCdf:
    def test_single_component_degenerates(self):
        m = GaussianMixture((GaussianComponent(1.0, 2.0),), (1.0,))
        for x in (-3.0, 0.0, 4.5):
            z = (x - 1.0) / 2.0
            assert mixture_pdf(x, m) == pytest.approx(
                math.exp(-0.5 * z * z) / (2.0 * math.sqrt(2 * math.pi)), rel=1e-14
            )
            assert mixture_cdf(x, m) == pytest.approx(gaussian_cdf(x, m.components[0]), rel=1e-14)

    def test_equal_weight_pair_at_origin(self):
        m = GaussianMixture(
            (GaussianComponent(-2.0, 1.0), GaussianComponent(2.0, 1.0)), (0.5, 0.5)
        )
        phi2 = math.exp(-2.0) / math.sqrt(2 * math.pi)
        assert mixture_pdf(0.0, m) == pytest.approx(phi2, rel=1e-14)
        # normalization cross-check by quadrature
        total = quad(lambda x: mixture_pdf(x, m), -14.0, 14.0, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_cdf_normalizes(self):
        m = GaussianMixture(
            (GaussianComponent(-1.0, 0.5), GaussianComponent(3.0, 2.0)), (0.3, 0.7)
        )
        assert mixture_cdf(40.0, m) == pytest.approx(1.0, abs=1e-14)
        assert mixture_cdf(-40.0, m) == pytest.approx(0.0, abs=1e-14)

    def test_pdf_integrates_to_one_random_mixtures(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            j = rng.integers(1, 5)
            comps = tuple(
                GaussianComponent(rng.normal(0, 3), rng.uniform(0.2, 3.0))
                for _ in range(j)
            )
            w = rng.random(j)
            m = GaussianMixture(comps, tuple(w / w.sum()))
            lo = min(c.mean for c in comps) - 12 * max(c.sd for c in comps)
            hi = max(c.mean for c in comps) + 12 * max(c.sd for c in comps)
            total = quad(lambda x: mixture_pdf(x, m), lo, hi, limit=200)[0]
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_monotone(self):
        rng = np.random.default_rng(99)
        m = GaussianMixture(
            (GaussianComponent(-1.2, 0.4), GaussianComponent(1.8, 2.2)), (0.4, 0.6)
        )
        xs = np.sort(rng.uniform(-12, 12, 200))
        cdf = mixture_cdf(xs, m)
        assert np.all(np.diff(cdf) >= 0)


class TestMixtureQuantile:
    def test_symmetric_median(self):
        m = GaussianMixture(
            (GaussianComponent(-2.0, 1.0), GaussianComponent(2.0, 1.0)), (0.5, 0.5)
        )
        assert mixture_quantile(0.5, m) == pytest.approx(0.0, abs=1e-10)

    def test_standard_normal_quantile(self):
        m = GaussianMixture((STD,), (1.0,))
        oracle = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.975") - 1))
        q = mixture_quantile(0.975, m)
        assert q == pytest.approx(oracle, abs=1e-10)
        assert q == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("p", [0.001, 0.05, 0.31, 0.5, 0.77, 0.95, 0.999])
    def test_round_trip(self, p):
        m = GaussianMixture(
            (GaussianComponent(-0.5, 0.7), GaussianComponent(1.5, 1.8)), (0.65, 0.35)
        )
        assert mixture_cdf(mixture_quantile(p, m), m) == pytest.approx(p, abs=1e-9)

    def test_out_of_range_level_rejected(self):
        m = GaussianMixture((STD,), (1.0,))
        with pytest.raises(ValueError):
            mixture_quantile(0.0, m)
        with pytest.raises(ValueError):
            mixture_quantile(1.0, m)


class TestConjugateUpdate:
    def test_precision_weighting(self):
        post = conjugate_update(STD, SufficientStat(0.5, 20, 1.0))
        assert post.mean == pytest.approx(10.0 / 21.0, rel=1e-14)
        assert post.variance == pytest.approx(1.0 / 21.0, rel=1e-14)

    def test_flat_prior_limit(self):
        wide = GaussianComponent(3.0, 1e8)
        post = conjugate_update(wide, SufficientStat(0.5, 20, 1.0))
        assert post.mean == pytest.approx(0.5, abs=1e-12)
        assert post.variance == pytest.approx(0.05, rel=1e-12)

    def test_agreeing_single_observation(self):
        prior = GaussianComponent(0.7, 1.3)
        post = conjugate_update(prior, SufficientStat(0.7, 1, 2.0))
        assert post.mean == pytest.approx(0.7, rel=1e-14)

    def test_precision_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prior = GaussianComponent(rng.normal(), rng.uniform(0.1, 5.0))
            data = SufficientStat(rng.normal(), int(rng.integers(1, 200)), rng.uniform(0.2, 3.0))
            post = conjugate_update(prior, data)
            lhs = 1.0 / post.variance
            rhs = 1.0 / prior.variance + data.n / data.sigma**2
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMarginalLikelihood:
    def quad_oracle(self, prior, data):
        se = data.sigma / math.sqrt(data.n)

        def integrand(theta):
            z1 = (theta - prior.mean) / prior.sd
            z2 = (data.mean - theta) / se
            return (
                math.exp(-0.5 * z1 * z1) / (prior.sd * math.sqrt(2 * math.pi))
                * math.exp(-0.5 * z2 * z2) / (se * math.sqrt(2 * math.pi))
            )

        lo = min(prior.mean, data.mean) - 12 * max(prior.sd, se)
        hi = max(prior.mean, data.mean) + 12 * max(prior.sd, se)
        return quad(integrand, lo, hi, limit=200, epsrel=1e-12, epsabs=0)[0]

    def test_reference_case(self):
        prior = GaussianComponent(0.0, math.sqrt(1.0 / 15.0))
        data = SufficientStat(0.0, 20, 1.0)
        value = marginal_likelihood(prior, data)
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi * 7.0 / 60.0), rel=1e-14)
        assert value == pytest.approx(self.quad_oracle(prior, data), rel=1e-10)

    def test_tail_positivity(self):
        prior = GaussianComponent(0.0, 1.0)
        combined = math.sqrt(1.0 + 1.0 / 20.0)
        data = SufficientStat(10 * combined, 20, 1.0)
        value = marginal_likelihood(prior, data)
        assert 0.0 < value < 1e-20

    def test_matches_quadrature_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            prior = GaussianComponent(rng.normal(0, 2), rng.uniform(0.1, 4.0))
            data = SufficientStat(
                rng.normal(0, 2), int(rng.integers(1, 100)), rng.uniform(0.3, 2.5)
            )
            assert marginal_likelihood(prior, data) == pytest.approx(
                self.quad_oracle(prior, data), rel=1e-8
            )


class TestValidation:
    def test_component_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            GaussianComponent(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianComponent(math.nan, 1.0)

    def test_mixture_rejects_weight_drift(self):
        comps = (STD, GaussianComponent(1.0, 1.0))
        with pytest.raises(ValueError):
            GaussianMixture(comps, (0.6, 0.6))
        with pytest.raises(ValueError):
            GaussianMixture(comps, (1.2, -0.2))

    def test_mixture_renormalizes_tiny_drift(self):
        comps = (STD, GaussianComponent(1.0, 1.0))
        m = GaussianMixture(comps, (0.5 + 2e-10, 0.5))
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-15)

    def test_stat_rejects_bad_n(self):
        with pytest.raises(ValueError):
            SufficientStat(0.0, 0, 1.0)
        with pytest.raises(ValueError):
            SufficientStat(0.0, 3, -1.0)


class TestBisect:
    """The vectorized bisection under both trials' decision boundaries."""

    @staticmethod
    def counted(roots):
        calls = []

        def below(mid):
            calls.append(mid)
            return mid < roots

        return below, calls

    def test_stops_at_adjacent_floats(self):
        roots = np.array([math.pi / 4, math.sqrt(2.0) + 1.0])
        below, calls = self.counted(roots)
        lo, hi = bisect(np.array([0.0, 1.0]), np.array([1.0, 3.0]), below)
        assert np.all(np.nextafter(lo, np.inf) == hi)
        assert np.all((lo < roots) & (roots <= hi))
        # Width 1 to the float spacing 2**-53 near pi/4 is 53 halvings (width
        # 2 to 2**-51 near 2.41 is 52): not one more, and far under the cap.
        assert len(calls) == 53

    def test_width_stop_only_when_set(self):
        roots = np.array([0.3, 0.6])
        below, calls = self.counted(roots)
        lo, hi = bisect(np.zeros(2), np.ones(2), below, stop=1e-3)
        assert len(calls) == 10 and np.all(hi - lo == 2.0**-10)
        assert np.all((lo < roots) & (roots <= hi))
        below, calls = self.counted(roots)
        lo, hi = bisect(np.zeros(2), np.ones(2), below)
        assert len(calls) > 10 and np.all(np.nextafter(lo, np.inf) == hi)

    def test_at_most_80_halvings(self):
        # From 1e300 wide, adjacent floats at 1 are about 1050 halvings away.
        below, calls = self.counted(np.array([1.0]))
        lo, hi = bisect(np.array([0.0]), np.array([1e300]), below)
        assert len(calls) == 80 and hi - lo == 1e300 * 2.0**-80

    @pytest.mark.parametrize("stop", [None, 1e-3])
    def test_empty_brackets_come_back_unchanged(self, stop):
        below, calls = self.counted(np.array([]))
        a, b = np.array([]), np.array([])
        lo, hi = bisect(a, b, below, stop)
        assert lo is a and hi is b and calls == []
