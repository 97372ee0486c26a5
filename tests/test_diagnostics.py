"""Mode finding, bimodality grading and the bimodality map."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borrowsim import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
    SufficientStat,
    bimodality_map,
    OneArmScenario,
)
from borrowsim import diagnostics, priors
from mixtures import (
    GaussianComponent,
    GaussianMixture,
    bimodality_ratio,
    build_mixture_prior,
    find_modes,
    mixture_pdf,
    posterior,
)
import oracles

SEPARATED = GaussianMixture(
    (GaussianComponent(-2.0, 1.0), GaussianComponent(2.0, 1.0)), (0.5, 0.5)
)


def dense_grid_extrema(m, points=100_000):
    """Brute-force oracle: argmax/argmin of the density on a dense grid."""
    means = m.means()
    sds = m.sds()
    xs = np.linspace(means.min() - 6 * sds.max(), means.max() + 6 * sds.max(), points)
    pdf = mixture_pdf(xs, m)
    return xs, pdf


class TestFindModes:
    def test_informative_only_is_unimodal_at_its_mean(self):
        m = GaussianMixture(
            (GaussianComponent(0.3, 0.5), GaussianComponent(5.0, 1.0)), (1.0, 0.0)
        )
        report = find_modes(m)
        assert report.n_modes == 1
        assert report.antimode is None
        assert report.ratio == 1.0
        assert report.modes[0][0] == pytest.approx(0.3, abs=1e-9)

    def test_separated_pair_against_dense_grid(self):
        report = find_modes(SEPARATED)
        assert report.n_modes == 2
        xs, pdf = dense_grid_extrema(SEPARATED)
        peak = xs[np.argmax(pdf)]
        locs = sorted(x for x, _ in report.modes)
        assert min(abs(locs[0] - (-abs(peak))), abs(locs[1] - abs(peak))) < 1e-3
        assert abs(locs[0]) == pytest.approx(1.99865, abs=2e-4)
        assert report.antimode[0] == pytest.approx(0.0, abs=1e-9)
        # refined densities match the dense-grid extrema closely
        assert report.modes[0][1] == pytest.approx(pdf.max(), rel=1e-6)
        inner = (xs > locs[0]) & (xs < locs[1])
        assert report.antimode[1] == pytest.approx(pdf[inner].min(), rel=1e-6)

    def test_shared_mean_is_unimodal(self):
        m = GaussianMixture(
            (GaussianComponent(0.5, 0.3), GaussianComponent(0.5, 2.0)), (0.5, 0.5)
        )
        report = find_modes(m)
        assert report.n_modes == 1
        assert report.modes[0][0] == pytest.approx(0.5, abs=1e-9)

    def test_requires_two_components(self):
        with pytest.raises(ValueError):
            find_modes(GaussianMixture((GaussianComponent(0, 1),), (1.0,)))


def _mixture(w, m1, s1, m2, s2):
    return GaussianMixture((GaussianComponent(m1, s1), GaussianComponent(m2, s2)), (w, 1.0 - w))


sds = st.floats(0.05, 3.0)
general = st.builds(_mixture, st.floats(0.0, 1.0), st.floats(-5, 5), sds, st.floats(-5, 5), sds)
# A single component: the other has weight exactly 0.
one_sided = st.builds(
    _mixture, st.sampled_from([0.0, 1.0]), st.floats(-5, 5), sds, st.floats(-5, 5), sds
)
# Means within half an sd of each other: always unimodal.
unimodal = st.builds(
    lambda w, m, s1, s2, shift: _mixture(w, m, s1, m + shift * min(s1, s2), s2),
    st.floats(0.01, 0.99), st.floats(-5, 5), sds, sds, st.floats(-0.5, 0.5),
)
# Modes 80-200 sds apart: beyond 38.6 sds from both means the density
# underflows to 0, so no sign change marks the antimode (the "dead zone").
far_apart = st.builds(
    lambda w, m, s1, s2, gap: _mixture(w, m, s1, m + gap * max(s1, s2), s2),
    st.floats(0.05, 0.95), st.floats(-5, 5), sds, sds, st.floats(80.0, 200.0),
)


class TestBatchedModeFinder:
    """The batch finder against the scalar oracle, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(general, one_sided, unimodal, far_apart), min_size=1, max_size=20))
    def test_matches_the_scalar_finder_in_mixed_batches(self, mixtures):
        weights = np.array([m.weights for m in mixtures]).T
        means = np.array([m.means() for m in mixtures]).T
        n_modes, x, f, ratio = diagnostics._modes(
            weights, means, np.array([m.sds() for m in mixtures]).T
        )
        for r, m in enumerate(mixtures):
            ref = oracles.find_modes(m)
            assert find_modes(m) == ref
            assert n_modes[r] == ref.n_modes
            assert ratio[r] == ref.ratio
            assert (x[r, 0], f[r, 0]) == ref.modes[0]
            if ref.n_modes == 2:
                assert (x[r, 1], f[r, 1]) == ref.modes[1]
                assert (x[r, 2], f[r, 2]) == ref.antimode

    def test_far_apart_modes_take_the_dead_zone(self):
        m = _mixture(0.5, 0.0, 1.0, 100.0, 1.0)
        report = find_modes(m)
        assert report == oracles.find_modes(m)
        assert report.n_modes == 2 and report.antimode[1] == 0.0
        assert report.ratio == math.inf

    def test_a_mode_on_a_grid_point_takes_the_grid_maximum(self):
        # The scan grid is -3 + k/256 here, so the derivative is exactly 0
        # at the mode (k = 768) and no sign change brackets it.
        m = _mixture(1.0, 0.0, 0.5, 1.80859375, 0.5)
        report = find_modes(m)
        assert report == oracles.find_modes(m)
        assert report.modes[0][0] == 0.0

    @staticmethod
    def assert_the_full_scan_bit_for_bit(mixtures):
        # Every output of the batch finder equals the full-grid scan's bytes.
        columns = [np.array(v, dtype=float).T for v in
                   zip(*((m.weights, m.means(), m.sds()) for m in mixtures))]
        got, want = diagnostics._modes(*columns), oracles.modes_full_scan(*columns)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(general, one_sided, unimodal, far_apart), min_size=1, max_size=40))
    def test_scanning_between_the_means_equals_the_full_scan(self, mixtures):
        self.assert_the_full_scan_bit_for_bit(mixtures)

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 32, 33])
    def test_the_edge_cases_equal_the_full_scan_at_batch_edges(self, size):
        # w 0 and 1, equal means, equal means and sds, a mode on a grid
        # point, and modes 50 and 100 sds apart (the dead zone), cycled to
        # fill batches that end at, before and after a batch boundary.
        cases = [
            _mixture(0.0, -1.0, 0.5, 2.0, 1.5),
            _mixture(1.0, -1.0, 0.5, 2.0, 1.5),
            _mixture(0.3, 0.7, 0.2, 0.7, 2.0),
            _mixture(0.3, 0.7, 0.4, 0.7, 0.4),
            _mixture(1.0, 0.0, 0.5, 1.80859375, 0.5),
            _mixture(0.5, 0.0, 1.0, 50.0, 1.0),
            _mixture(0.2, -3.0, 0.1, 2.0, 0.1),
            _mixture(0.5, 0.0, 1.0, 100.0, 1.0),
            _mixture(0.5, -2.0, 1.0, 2.0, 1.0),
        ]
        self.assert_the_full_scan_bit_for_bit([cases[i % len(cases)] for i in range(size)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(general, one_sided, unimodal, far_apart), min_size=1, max_size=8))
    def test_the_derivative_in_work_buffers_is_the_expression_bit_for_bit(self, mixtures):
        # On a batch's scan grid and on one point per mixture, as the
        # bisection calls it.
        weights = np.array([m.weights for m in mixtures]).T
        means = np.array([m.means() for m in mixtures]).T
        sds = np.array([m.sds() for m in mixtures]).T
        grid = np.linspace(means.min(axis=0) - 6.0 * sds.max(axis=0),
                           means.max(axis=0) + 6.0 * sds.max(axis=0), diagnostics._SCAN_POINTS)
        for x in (grid, grid[777]):
            got = diagnostics._pdf_derivative(x, weights, means, sds).copy()
            want = oracles.pdf_derivative_expression(x, weights, means, sds)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fault counts of Linux getrusage")
    def test_a_warm_map_takes_few_page_faults(self):
        # A fresh interpreter, whose allocator has not raised its trim
        # threshold (this suite's imports do): with a new array per step
        # the heap top was trimmed and refaulted scan block after block:
        # 3927 faults or more on this map in most fresh interpreters.
        script = textwrap.dedent("""
            import resource
            from borrowsim import (ExternalMean, MixturePriorSpec, Normal, OneArmScenario,
                                   SufficientStat, bimodality_map)
            from borrowsim.config import map_biases
            ext = SufficientStat(0.0, 15, 1.0)
            spec = MixturePriorSpec(0.5, ext, ExternalMean(), Normal())
            s = OneArmScenario(0.0, 0.5, 20, 1.0, ext, spec, seed=1, reps=10)
            w_grid = [i / 20 for i in range(21)]
            bimodality_map(s, w_grid, map_biases(s.sd_ext))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            bimodality_map(s, w_grid, map_biases(s.sd_ext))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 100

    @pytest.mark.parametrize("location", [ExternalMean(), CurrentMean(), NullBoundary(0.0)])
    def test_map_matches_the_scalar_path_cell_by_cell(self, location):
        ext = SufficientStat(0.0, 15, 1.0)
        w_grid = [0.0, 0.3, 0.9, 0.96, 1.0]
        data = SufficientStat(0.0, 20, 1.0)
        for n_robust in (1 / 400, 1 / 25, 0.25, 1.0, 2.0):
            spec = MixturePriorSpec(0.5, ext, location, Normal(), n_robust=n_robust)
            s = OneArmScenario(0.0, 0.5, 20, 1.0, ext, spec, seed=1, reps=10)
            biases = np.arange(-4.0, 4.01, 0.5) * s.sd_ext
            grid = bimodality_map(s, w_grid=w_grid, bias_grid=biases)
            for i, w in enumerate(w_grid):
                for j, b in enumerate(biases):
                    prior_spec = replace(s.prior, external=s.external_at(b), informative_weight=w)
                    post = posterior(build_mixture_prior(prior_spec, current=data), data)
                    assert grid[i, j] == oracles.find_modes(post.posterior).ratio, n_robust


class TestBimodalityRatio:
    def test_unimodal_convention(self):
        m = GaussianMixture(
            (GaussianComponent(0.0, 1.0), GaussianComponent(0.4, 1.0)), (0.5, 0.5)
        )
        assert bimodality_ratio(m) == 1.0

    def test_separated_pair_value(self):
        # grid oracle: min mode density / antimode density
        xs, pdf = dense_grid_extrema(SEPARATED)
        antimode = pdf[(xs > -1.5) & (xs < 1.5)].min()
        oracle = pdf.max() / antimode
        value = bimodality_ratio(SEPARATED)
        assert value == pytest.approx(oracle, rel=1e-6)
        assert value == pytest.approx(3.7, abs=0.05)

    def test_reflection_symmetry(self):
        def posterior_ratio(bias):
            ext = SufficientStat(bias, 15, 1.0)
            spec = MixturePriorSpec(0.9, ext, ExternalMean(), Normal(), n_robust=1.0)
            from mixtures import build_mixture_prior, posterior

            data = SufficientStat(0.0, 20, 1.0)
            post = posterior(build_mixture_prior(spec, current=data), data)
            return bimodality_ratio(post.posterior)

        for b in (0.4, 0.9, 1.2):
            assert posterior_ratio(b) == pytest.approx(posterior_ratio(-b), abs=1e-9)

    def test_ratio_exceeds_one_iff_bimodal(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = GaussianMixture(
                (
                    GaussianComponent(rng.normal(0, 2), rng.uniform(0.3, 1.5)),
                    GaussianComponent(rng.normal(0, 2), rng.uniform(0.3, 1.5)),
                ),
                tuple(np.diff([0, *sorted([rng.random()]), 1])),
            )
            report = find_modes(m)
            assert report.ratio >= 1.0
            assert (report.ratio > 1.0) == (report.n_modes == 2)


class TestBimodalityMap:
    def scenario(self, location):
        ext = SufficientStat(0.0, 15, 1.0)
        spec = MixturePriorSpec(0.5, ext, location, Normal(), n_robust=1.0)
        return OneArmScenario(0.0, 0.5, 20, 1.0, ext, spec, seed=1, reps=10)

    def test_zero_weight_row_is_flat(self):
        from borrowsim import CurrentMean

        s = self.scenario(CurrentMean())
        sd_ext = s.sd_ext
        grid = bimodality_map(s, w_grid=[0.0, 0.5], bias_grid=[0.0, 2 * sd_ext, 4 * sd_ext])
        assert np.all(grid[0] == 1.0)

    def test_symmetric_in_bias_sign(self):
        from borrowsim import CurrentMean

        s = self.scenario(CurrentMean())
        sd_ext = s.sd_ext
        biases = [-3 * sd_ext, 3 * sd_ext]
        grid = bimodality_map(s, w_grid=[0.9, 0.95], bias_grid=biases)
        assert grid[:, 0] == pytest.approx(grid[:, 1], abs=1e-9)

    def test_empty_axes_give_empty_maps(self):
        # An empty bias axis used to raise IndexError (a bank over no externals).
        s = self.scenario(ExternalMean())
        assert bimodality_map(s, w_grid=[0.5], bias_grid=[]).shape == (1, 0)
        assert bimodality_map(s, w_grid=[], bias_grid=[0.0, 0.1]).shape == (0, 2)

    @pytest.mark.parametrize("location", [ExternalMean(), CurrentMean(), NullBoundary(0.0)])
    def test_a_weight_block_gives_the_one_weight_rows(self, location):
        # One mode scan over every (weight, bias) column, w 0 and 1 (a log
        # weight of -inf) among them, in scan blocks that straddle rows.
        ext = SufficientStat(0.0, 15, 1.0)
        spec = MixturePriorSpec(0.5, ext, location, Normal(), n_robust=0.25)
        s = OneArmScenario(0.0, 0.5, 20, 1.0, ext, spec, seed=1, reps=10)
        w_grid = [0.0, 0.05, 0.3, 0.9, 0.96, 1.0, 0.5]
        biases = np.arange(-4.0, 4.01, 0.5) * s.sd_ext
        block = bimodality_map(s, w_grid=w_grid, bias_grid=biases)
        rows = np.vstack([bimodality_map(s, w_grid=[w], bias_grid=biases) for w in w_grid])
        assert block.shape == (len(w_grid), biases.size)
        assert block.tobytes() == rows.tobytes()
        assert np.all(block[0] == 1.0) and np.any(block > 1.0)

    @pytest.mark.parametrize("location", [ExternalMean(), CurrentMean(), NullBoundary(0.0)])
    def test_the_map_runs_on_the_engines_kernel_entry(self, location, monkeypatch):
        # The map reads the posterior through one AxisBank.kernel call over
        # all its (weight, bias) points, and counting the calls changes no byte.
        s = self.scenario(location)
        w_grid, biases = [0.0, 0.5, 0.9, 1.0], np.arange(-4.0, 4.01, 1.0) * s.sd_ext
        want = bimodality_map(s, w_grid=w_grid, bias_grid=biases)
        widths, kernel = [], priors.AxisBank.kernel

        def counting_kernel(self, point, ybar, n, sigma):
            widths.append(ybar.size)
            return kernel(self, point, ybar, n, sigma)

        monkeypatch.setattr(priors.AxisBank, "kernel", counting_kernel)
        got = bimodality_map(s, w_grid=w_grid, bias_grid=biases)
        assert widths == [want.size]
        assert got.tobytes() == want.tobytes()
        assert bimodality_map(s, w_grid=[0.5], bias_grid=[biases[1]]).item() == want[1, 1]
        assert widths == [want.size, 1]

    def test_weights_outside_the_unit_interval_are_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bimodality_map(self.scenario(ExternalMean()), w_grid=[0.5, 1.5], bias_grid=[0.0])

    def test_student_t_form_rejected(self):
        ext = SufficientStat(0.0, 15, 1.0)
        spec = MixturePriorSpec(0.5, ext, ExternalMean(), StudentT(3.0, 1.0, 10))
        s = OneArmScenario(0.0, 0.5, 20, 1.0, ext, spec, seed=1, reps=10)
        with pytest.raises(TypeError):
            bimodality_map(s, w_grid=[0.5], bias_grid=[0.0])
