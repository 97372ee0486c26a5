"""Distribution algebra: high-precision and quadrature oracles."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtr, ndtri

from borrowsim import (
    ExternalMean,
    HybridScenario,
    MixturePriorSpec,
    Normal,
    OneArmScenario,
    StudentT,
    SufficientStat,
    gaussian,
    hybrid,
    onearm,
)
from borrowsim.config import normalize_config
from borrowsim.gaussian import bisect, brentq, gauss_rule
from borrowsim.recipes import recipe_config
from borrowsim.sweep import _curves
from mixtures import (
    GaussianComponent,
    GaussianMixture,
    conjugate_update,
    gaussian_cdf,
    marginal_likelihood,
    mixture_cdf,
    mixture_pdf,
)

mpmath.mp.dps = 40

_EXT = SufficientStat(0.0, 15, 1.0)
_SPEC = MixturePriorSpec(0.5, _EXT, ExternalMean(), Normal(), n_robust=1.0)
_ONE_ARM = OneArmScenario(0.0, 0.5, 20, 1.0, _EXT, _SPEC, seed=3, reps=100)
_HYBRID = HybridScenario(20, 20, 1.0, _EXT, _SPEC, effect=0.83, seed=3, reps=100)


# Each integer field of the library's constructors: (its message, a build
# with it set; ``replace`` reruns the scenario's checks).
_INTEGER_FIELDS = {
    "SufficientStat.n": ("sample size must be an integer >= 1", lambda v: SufficientStat(0.0, v, 1.0)),
    "StudentT.k": (r"k must be an integer in \[1, 1000\]", lambda v: StudentT(k=v)),
    "OneArmScenario.n": ("n must be an integer >= 1", lambda v: replace(_ONE_ARM, n=v)),
    "OneArmScenario.reps": ("reps must be an integer >= 1", lambda v: replace(_ONE_ARM, reps=v)),
    "OneArmScenario.seed": (r"seed must be an integer in \[0, 2\*\*64\)", lambda v: replace(_ONE_ARM, seed=v)),
    "HybridScenario.n_t": ("n_t must be an integer >= 1", lambda v: replace(_HYBRID, n_t=v)),
    "HybridScenario.n_c": ("n_c must be an integer >= 1", lambda v: replace(_HYBRID, n_c=v)),
    "HybridScenario.reps": ("reps must be an integer >= 1", lambda v: replace(_HYBRID, reps=v)),
    "HybridScenario.seed": (r"seed must be an integer in \[0, 2\*\*64\)", lambda v: replace(_HYBRID, seed=v)),
}


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", list(_INTEGER_FIELDS))
    def test_a_non_finite_integer_field_fails_its_own_check(self, field, value):
        # int() raises OverflowError on inf and its own ValueError on NaN:
        # every integer field says which field it is instead.
        message, build = _INTEGER_FIELDS[field]
        with pytest.raises(ValueError, match=rf"^{message}, got {value!r}$"):
            build(value)


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


# Root-solve families (a centre c, a scale s) -> (f, its root): smooth and
# odd, flat at the root, a normal tail at the route's alpha, convex,
# wiggling, and a near-step that defeats interpolation.
_ROOT_FAMILIES = {
    "tanh": lambda c, s: (lambda x: math.tanh(s * (x - c)), c),
    "cubic": lambda c, s: (lambda x: s * (x - c) ** 3 + 1e-3 * (x - c), c),
    "ndtr": lambda c, s: (lambda x: float(ndtr(s * (c - x))) - 0.025, c - float(ndtri(0.025)) / s),
    "exp": lambda c, s: (lambda x: math.exp(s * (x - c)) - 1.0, c),
    "wiggle": lambda c, s: (lambda x: (x - c) * (1.0 + 0.5 * math.sin(20.0 * x)), c),
    "step": lambda c, s: (lambda x: math.atan(1e6 * s * (x - c)), c),
}

_NDTR_30, _NDTR_30_ROOT = _ROOT_FAMILIES["ndtr"](0.0, 30.0)


def _solve(solver, f, a, b, xtol):
    """The points ``solver`` evaluates, each as its hex, and its root's hex
    or the type of what it raised."""
    xs = []

    def logged(x):
        xs.append(float(x).hex())
        return f(x)

    try:
        return xs, solver(logged, a, b, xtol=xtol).hex()
    except Exception as e:  # the type is the outcome compared
        return xs, type(e)


class TestBrentq:
    """``gaussian.brentq`` against ``scipy.optimize.brentq``: the same points
    evaluated, the same root to the bit, the same exception type."""

    @settings(max_examples=600, deadline=None)
    @given(
        st.sampled_from(sorted(_ROOT_FAMILIES)),
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(-6.0, 1.0),
        st.floats(-6.0, 1.0),
        st.booleans(),
        st.sampled_from([1e-12, 2e-12, 1e-14, 5e-324, 1e-6]),
    )
    def test_iterates_and_root_are_scipys(self, family, c, log_s, log_lo, log_hi, flip, xtol):
        f, root = _ROOT_FAMILIES[family](c, 10.0**log_s)
        a, b = root - 10.0**log_lo, root + 10.0**log_hi
        if flip:
            a, b = b, a
        assert _solve(brentq, f, a, b, xtol) == _solve(scipy_brentq, f, a, b, xtol)

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (-2.0, 1.0)])
    def test_an_end_at_an_exact_zero_is_the_root(self, a, b):
        assert brentq(lambda x: x - 1.0, a, b, xtol=1e-12) == 1.0
        assert brentq(lambda x: -0.0 if x == a else x - 0.5 * (a + b), a, b, xtol=1e-12) == a

    @pytest.mark.parametrize("f,a,b,xtol,error,message", [
        (lambda x: x * x + 1.0, -1.0, 3.0, 1e-12, ValueError, "different signs"),
        (lambda x: math.nan if x > 2.0 else x - 1.0, 0.0, 3.0, 1e-12, ValueError, "NaN"),
        (lambda x: math.nan if 1.5 < x < 2.0 else x - 1.7, 0.0, 3.0, 1e-12, ValueError, "NaN"),
        # Flat at its root, the cubic leaves a 5e-324 tolerance unmet.
        (lambda x: x**3, -0.5, 1.7, 5e-324, RuntimeError, "after 100 iterations"),
        (lambda x: math.exp(x) - 1.0, -1.0, 1000.0, 1e-12, OverflowError, "range"),
    ])
    def test_each_error_is_scipys(self, f, a, b, xtol, error, message):
        with pytest.raises(error, match=message):
            brentq(f, a, b, xtol=xtol)
        assert _solve(brentq, f, a, b, xtol) == _solve(scipy_brentq, f, a, b, xtol)

    @pytest.mark.parametrize("f,a,b,xtol", [
        # A step that passes the limit 3|sbis| but not 3|sbis| - delta,
        # which matters only at a tolerance wider than the property draws
        # (brackets found by a search).
        (_NDTR_30, _NDTR_30_ROOT - 2.0, _NDTR_30_ROOT + 0.5, 0.01),
        (_NDTR_30, _NDTR_30_ROOT - 1.0, _NDTR_30_ROOT + 0.5, 0.1),
        # Slopes near 1e-300 underflow the inverse quadratic's denominator
        # to 0: C's step is then inf or nan, which bisects, not an error.
        (lambda x: 1e-300 * (x**3 + x - 1.0), 0.0, 2.0, 1e-12),
        (lambda x: 1e-300 * (x**3 + x - 1.0), 0.0, 2.0, 5e-324),
    ])
    def test_steps_the_property_does_not_draw_are_scipys(self, f, a, b, xtol):
        assert _solve(brentq, f, a, b, xtol) == _solve(scipy_brentq, f, a, b, xtol)


class TestGaussRule:
    """One cached, read-only builder serves the Gauss-Hermite rule of the
    hybrid exact route and the Gamma-quantile grid of the t bank."""

    @pytest.mark.parametrize("family,nodes,alpha",
                             [("hermite", 160, 0.0), ("gamma", 100, 3.0)])
    def test_rules_come_back_read_only(self, family, nodes, alpha):
        x, wts = gauss_rule(family, nodes, alpha)
        assert x.shape == wts.shape == (nodes,)
        assert not x.flags.writeable and not wts.flags.writeable
        with pytest.raises(ValueError):
            wts[0] = 0.0
        assert gauss_rule(family, nodes, alpha)[0] is x

    def test_a_fig1_t_curve_inverts_the_gamma_distribution_once(self, monkeypatch):
        # Every AxisBank of a fig1-t curve (the job sizing, the scan and a
        # cell's tail-free pass) reads the one cached k-point Gamma grid.
        calls = []
        inverse = gaussian.gammaincinv
        monkeypatch.setattr(gaussian, "gammaincinv", lambda a, q: calls.append(a) or inverse(a, q))
        gaussian.gauss_rule.cache_clear()
        cfg = normalize_config({**recipe_config("fig1-t"), "reps": 200})
        s, biases = next(s for s, _, _ in _curves(cfg)), cfg["sweep"]["bias"]
        onearm._job_points(s)
        onearm.oc_curve(s, biases[:4])
        onearm.one_arm_rmse(s, biases[0])
        onearm.mean_posterior_weight(s, biases[1])
        assert calls == [1.5]

    def test_an_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="unknown Gaussian rule family"):
            gauss_rule("legendre", 10)

    def test_each_rule_is_built_once_per_key(self, monkeypatch):
        # Two rounds of calls of the hybrid Gauss-Hermite route build its
        # rule once.
        built = []
        hermgauss = np.polynomial.hermite.hermgauss
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: built.append(("hermite", n)) or hermgauss(n))
        gaussian.gauss_rule.cache_clear()
        ext = SufficientStat(0.0, 15, 1.0)
        hybrid_s = HybridScenario(20, 20, 1.0, ext, MixturePriorSpec(0.5, ext), effect=0.83, seed=1, reps=10)
        for _ in range(2):
            hybrid.oc_curve(hybrid_s, [0.0, 0.3], exact=True)
            hybrid.oc_curve(hybrid_s, [0.1], exact=True)
        assert built == [("hermite", 160)]
