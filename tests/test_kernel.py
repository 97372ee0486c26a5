"""The posterior kernel's work buffers.

``onearm._bank_stats`` and the hybrid per-draw kernel run the posterior
kernel chunk by chunk in per-thread buffers (``inference.work_array``)
instead of new arrays. That must change no float: every route here must
match the kernel written as one expression over new arrays
(``oracles.posterior_bank_expression``) byte for byte, in any chunking and
on any thread, and an array a caller holds must never share a buffer with
a later call. On Linux a warm 101-component pass also takes few page
faults, which is the point of the buffers.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

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
    inference,
    onearm,
)
from borrowsim.hybrid import _Bank, _treatment_params
from borrowsim.inference import bank_chunks, posterior_bank, posterior_bank_into, work_array
from borrowsim.onearm import _bank_stats
from borrowsim.priors import MAX_T_COMPONENTS, AxisBank
from oracles import (
    bank_means,
    bank_params_expression,
    bank_stats_expression,
    posterior_bank_expression,
    scalar_posterior,
)

EXT = SufficientStat(0.0, 15, 1.0)
FORMS = {2: Normal(), 101: StudentT(3.0, 1.0, 100), 1001: StudentT(3.0, 1.0, MAX_T_COMPONENTS)}
LOCATIONS = pytest.mark.parametrize(
    "location", [ExternalMean(), CurrentMean()], ids=["fixed", "current-mean"]
)


def spec(J, location):
    return MixturePriorSpec(0.5, EXT, location, FORMS[J], n_robust=1.0)


def one_arm(J, location):
    return OneArmScenario(0.0, 0.5, 20, 1.0, EXT, spec(J, location), seed=3, reps=1000)


def hybrid(J, location):
    return HybridScenario(20, 20, 1.0, EXT, spec(J, location), effect=0.83, seed=3, reps=1000)


def draws(R, seed=0):
    # Observed means from agreement with the external mean to strong conflict.
    return np.random.default_rng(seed).normal(0.4, 0.6, R)


def same(got, expected):
    return len(got) == len(expected) and all(
        np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, expected)
    )


def bank_at(s, bias=0.7):
    return bank_params_expression(s.prior, s.external_at(bias))


def axis_bank_at(s, bias=0.7):
    return AxisBank(s.prior, [s.external_at(bias)])


@pytest.mark.parametrize("J", [2, 101])
@pytest.mark.parametrize("R", [1, 4095, 4097, 10_001])
@LOCATIONS
def test_kernel_matches_the_expression(J, R, location):
    s = one_arm(J, location)
    variances, log_w, info, loc = bank_at(s)
    y = draws(R)
    means = bank_means(info, loc, J, y)
    expected = posterior_bank_expression(means, variances, log_w, y, s.n, s.sigma)
    assert same(posterior_bank(means, variances, log_w, y, s.n, s.sigma), expected)
    # The engines' call: means laid out, and the kernel run, in work buffers.
    assert same(axis_bank_at(s).kernel(None, y, s.n, s.sigma), expected)


@pytest.mark.parametrize("J", [2, 101])
def test_kernel_matches_the_expression_at_one_mean_and_many_priors(J):
    # The bimodality map's call: one observed mean, one column of prior
    # component means per bias.
    s = one_arm(J, ExternalMean())
    variances, log_w = bank_at(s)[:2]
    means = np.column_stack([
        bank_means(info, loc, J, None) for info, loc in
        (bank_at(s, b)[2:] for b in np.linspace(-2.0, 2.0, 41))
    ])
    expected = posterior_bank_expression(means, variances, log_w, 0.1, s.n, s.sigma)
    assert same(posterior_bank(means, variances, log_w, 0.1, s.n, s.sigma), expected)
    W, pm = np.empty(means.shape), np.empty(means.shape)
    pv = posterior_bank_into(means, variances, log_w, 0.1, s.n, s.sigma, W, pm)
    assert same((W, pm, pv), expected)


ALL_LOCATIONS = pytest.mark.parametrize(
    "location", [ExternalMean(), NullBoundary(0.3), CurrentMean()],
    ids=["fixed", "null-boundary", "current-mean"]
)


@pytest.mark.parametrize("R", [1, 2, 4097])
@pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
@ALL_LOCATIONS
@pytest.mark.parametrize("J", [2, 101, 1001])
def test_the_two_row_kernel_matches_the_full_layout(J, location, w, R):
    # The engines lay out two rows of means (the informative mean and the
    # robust block's shared location) and the kernel spreads the second
    # over components 1..J-1: byte for byte the J-row expression, whose
    # -0.5 multiplies the sum the kernel halves term by term. At w 0 and 1 a
    # log weight is -inf. At J 2 the two layouts are one.
    s = replace(one_arm(J, location), prior=replace(spec(J, location), informative_weight=w))
    variances, log_w, info, loc = bank_at(s)
    y = draws(R)
    expected = posterior_bank_expression(bank_means(info, loc, J, y), variances, log_w, y, s.n, s.sigma)
    bank = axis_bank_at(s)
    rows = bank.means(None, y, np.empty((2, R)))
    assert rows.shape[0] == 2 and (bank.column is None) == (loc is None)
    assert same(bank.kernel(None, y, s.n, s.sigma), expected)
    assert same(posterior_bank(rows, variances, log_w, y, s.n, s.sigma), expected)


@pytest.mark.parametrize("J", [2, 101, 1001])
@ALL_LOCATIONS
def test_the_two_row_kernel_matches_at_one_mean_and_many_priors(J, location):
    # The bimodality map's call: one observed mean, the prior at each bias
    # a column of means, two rows laid out per column.
    s, y = one_arm(J, location), 0.1
    biases = np.linspace(-2.0, 2.0, 41)
    bank = AxisBank(s.prior, [s.external_at(b) for b in biases])
    variances, log_w = bank_at(s)[:2]
    means = np.column_stack([np.ravel(bank_means(*bank_at(s, b)[2:], J, [y])) for b in biases])
    expected = posterior_bank_expression(means, variances, log_w, y, s.n, s.sigma)
    point, ybar = np.arange(biases.size), np.full(biases.size, y)
    rows = bank.means(point, ybar, np.empty((2, biases.size)))
    assert same(bank.kernel(point, ybar, s.n, s.sigma), expected)
    assert same(posterior_bank(rows, variances, log_w, y, s.n, s.sigma), expected)


def spread(rows, J):
    """Two rows of means as the J rows they stand for."""
    return np.concatenate((rows[:1], np.repeat(rows[1:], J - 1, axis=0)))


@pytest.mark.parametrize("J", [2, 101])
def test_the_exact_half_at_a_draw_on_a_component_mean(J):
    # (ybar - m)**2 is exactly 0 where a draw sits on the informative mean
    # or on the robust location: the halved terms are -0.0 or the halved
    # log, and the weights keep the expression's bits.
    s = one_arm(J, NullBoundary(0.3))
    variances, log_w, info, loc = bank_at(s)
    y = np.concatenate(([info, loc, info, loc], draws(6)))
    rows = np.array([[info], [loc]])
    expected = posterior_bank_expression(spread(rows, J), variances, log_w, y, s.n, s.sigma)
    assert same(posterior_bank(rows, variances, log_w, y, s.n, s.sigma), expected)
    assert same(axis_bank_at(s).kernel(None, y, s.n, s.sigma), expected)


@pytest.mark.parametrize("J", [2, 101])
def test_the_exact_half_where_two_pi_pred_var_is_one(J):
    # A component whose 2 pi pred_var rounds to exactly 1: its log term is
    # 0, halved to -0.0, and a draw on its mean makes the whole log marginal
    # a signed zero; the weights still keep the expression's bits.
    n, sigma = 20, 1.0
    s2 = 1.0 / (n / (sigma * sigma))  # the kernel's data variance
    v = 1.0 / (2.0 * np.pi) - s2
    variances = np.concatenate(([1.0 / 15.0], np.full(J - 1, v) * np.linspace(1.0, 3.0, J - 1)))
    assert 2.0 * np.pi * (variances[1] + s2) == 1.0
    log_w = np.log(np.concatenate(([0.5], np.full(J - 1, 0.5 / (J - 1)))))
    rows = np.array([[0.0], [0.4]])
    y = np.concatenate(([0.4, 0.0], draws(7)))
    expected = posterior_bank_expression(spread(rows, J), variances, log_w, y, n, sigma)
    assert same(posterior_bank(rows, variances, log_w, y, n, sigma), expected)


@pytest.mark.parametrize("J", [2, 101])
@LOCATIONS
def test_per_point_log_weights_match_per_weight_calls(J, location):
    # A weight block's bank: a (J, R) log-weight column per point, w 0 and 1
    # (a log weight of -inf) among them. Each column gives the floats of a
    # (J,) call at its own weight over the same means, bit for bit.
    s, y = one_arm(J, location), draws(4097)
    weights = np.resize([0.0, 0.25, 1.0, 0.5, 0.25], y.size)
    externals = [s.external_at(b) for b in np.linspace(-1.0, 1.0, 5)]
    point = np.resize(np.arange(5), y.size)
    bank = AxisBank(s.prior, externals, weights=weights[:5])
    assert bank.log_w.shape == (J, 5)
    got = [a.copy() for a in bank.kernel(point, y, s.n, s.sigma)]
    log_w, means = bank.log_w[:, point], bank.means(point, y, np.empty((2, y.size)))
    W, pm = np.empty((J, y.size)), np.empty((J, y.size))
    pv = posterior_bank_into(means, bank.variances, log_w, y, s.n, s.sigma, W, pm)
    assert same((W, pm, pv), got)
    for w in (0.0, 0.25, 0.5, 1.0):
        # The (J, P) matrix's columns at w are a one-point bank's (J,)
        # vector, bit for bit: NumPy's log over a vector of weights (its SIMD
        # loop) gives the floats of the log of one weight.
        one = replace(s.prior, informative_weight=w)
        column = AxisBank(one, externals[:1]).log_w
        cols = weights[:5] == w
        assert column.shape == (J,)
        assert np.array_equal(bank.log_w[:, cols].view(np.int64),
                              np.repeat(column[:, None], cols.sum(), axis=1).view(np.int64))
        at = weights == w
        cW, cpm, cpv = AxisBank(one, externals).kernel(point, y, s.n, s.sigma)
        assert same((W[:, at], pm[:, at], pv), (cW[:, at], cpm[:, at], cpv))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf])
def test_a_weight_outside_the_unit_interval_raises_before_its_log(bad):
    # The weight is checked before any log is taken: NaN and 1.5 raise the
    # spec's error, not NumPy's invalid-value warning.
    s = one_arm(101, ExternalMean())
    externals = [s.external_at(b) for b in (0.0, 0.5, 1.0)]
    with pytest.raises(ValueError, match=r"informative weight must be in \[0, 1\], got"):
        AxisBank(s.prior, externals, weights=np.array([0.5, bad, 1.0]))


@pytest.mark.parametrize("total", [1, 2, 4096, 4097, 4098, 8193, 10_001])
def test_chunks_tile_the_draws_and_none_is_one_wide(monkeypatch, total):
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 4096 * 101)  # 4096-draw chunks
    chunks = list(bank_chunks(total, 101))
    assert chunks[0].start == 0 and chunks[-1].stop == total
    assert all(a.stop == b.start for a, b in zip(chunks[:-1], chunks[1:]))
    assert all(c.stop - c.start == 4096 for c in chunks[:-1])
    assert 1 < chunks[-1].stop - chunks[-1].start <= 4097 or total == 1


@pytest.mark.parametrize("J", [1, 2, 101, 201, MAX_T_COMPONENTS + 1])
def test_no_chunk_exceeds_the_budget_or_is_one_wide(monkeypatch, J):
    # Every bank the schema allows, up to a t bank of MAX_T_COMPONENTS
    # normals with the informative one, chunks within 2^19 elements (the
    # last chunk within one column more); at a budget below two columns,
    # the chunks are two draws wide (the last two or three).
    step = inference._CHUNK_ELEMENTS // J
    assert step >= 2 and step * J <= 1 << 19
    for budget, width in ((inference._CHUNK_ELEMENTS, step), (1, 2)):
        monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", budget)
        for total in (1, 2, 3, width, width + 1, width + 2, 5 * width + 1):
            widths = [c.stop - c.start for c in bank_chunks(total, J)]
            assert sum(widths) == total and all(w == width for w in widths[:-1])
            assert 2 <= widths[-1] <= width + 1 or total == 1


EPS = np.finfo(float).eps


@pytest.mark.parametrize("w", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("J", [2, 101])
@LOCATIONS
def test_the_kernel_agrees_with_the_scalar_posterior(J, location, w):
    # An independent reference, not a bit-exact one: the kernel against the
    # textbook posterior in Python floats, at conflicts up to 1e3 sd-ext.
    # Bounds fixed in advance: a posterior variance within 4 ulps, a
    # component mean within 8 eps (|m| + |ybar|), and a weight within 64 eps
    # of the largest exponent (ybar - m)^2 / (v + s2), plus one, since
    # each log weight rounds in proportion to its size (about 6e5 at 1e3).
    prior = replace(spec(J, location), informative_weight=w)
    n, sigma, s2 = 20, 1.0, 1.0 / 20
    conflicts = np.array([-1e3, -100.0, -10.0, -2.0, 0.0, 0.5, 3.0, 30.0, 1e3])
    ybar = EXT.mean + conflicts * EXT.sigma / np.sqrt(EXT.n)
    W, pm, pv = (np.array(a, copy=True) for a in AxisBank(prior, [EXT]).kernel(None, ybar, n, sigma))
    variances, log_w, info_mean, robust_loc = (v.tolist() if isinstance(v, np.ndarray) else v
                                               for v in bank_params_expression(prior, EXT))
    for r, y in enumerate(ybar.tolist()):
        means = [info_mean] + [y if robust_loc is None else robust_loc] * (J - 1)
        ref_w, ref_m, ref_v = scalar_posterior(means, variances, log_w, y, n, sigma)
        top = max((y - m) ** 2 / (v + s2) for m, v in zip(means, variances))
        assert np.all(np.abs(W[:, r] - ref_w) <= 64 * EPS * (1.0 + top))
        assert np.all(np.abs(W[:, r].sum() - 1.0) <= 64 * EPS * J)
        bound = [8 * EPS * (abs(m) + abs(y)) for m in means]
        assert np.all(np.abs(pm[:, r] - ref_m) <= bound)
        assert np.all(np.abs(pv - ref_v) <= 4 * EPS * np.array(ref_v))


@pytest.mark.parametrize("J", [2, 101])
@pytest.mark.parametrize("R", [10_001, 8_193, 8_194])
@LOCATIONS
def test_bank_stats_in_chunks_match_one_chunk(monkeypatch, J, R, location):
    # In 4096-draw chunks: a short last chunk of 1809 draws, a last draw
    # that would be a chunk of its own, and a last chunk of two.
    s = one_arm(J, location)
    bank, y = axis_bank_at(s), draws(R)
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 1 << 30)
    whole = _bank_stats(s, bank, y)
    whole_means = [a.copy() for a in _bank_stats(s, bank, y, tails=False)]
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 4096 * J)
    assert len(list(bank_chunks(R, J))) > 1
    assert same((_bank_stats(s, bank, y),), (whole,))
    assert same((whole,), (bank_stats_expression(s, bank_at(s), y),))
    assert same(_bank_stats(s, bank, y, tails=False), whole_means)
    assert same(whole_means, bank_stats_expression(s, bank_at(s), y, tails=False))


@pytest.mark.parametrize("J", [2, 101])
def test_a_one_point_fixed_bank_lays_out_one_column(J):
    # A fixed location on a one-point axis gives the (2,) column of the
    # informative mean and the robust location, which the kernel
    # broadcasts; it gives the floats of the (2, R) layout, bit for bit.
    s, h, y = one_arm(J, ExternalMean()), hybrid(J, ExternalMean()), draws(10_001)
    bank, wide = axis_bank_at(s), axis_bank_at(s)
    wide.column = None
    _, _, info, loc = bank_at(s)
    assert bank.means(None, y, work_array("means", 2, y.size)).shape == (2,)
    assert same((bank.column,), (np.array([info, loc]),))
    assert wide.means(None, y, work_array("means", 2, y.size)).shape == (2, y.size)
    assert axis_bank_at(one_arm(J, CurrentMean())).column is None
    assert AxisBank(s.prior, [s.external_at(0.1), s.external_at(0.2)]).column is None
    assert same((_bank_stats(s, bank, y),), (_bank_stats(s, wide, y),))
    stats = [a.copy() for a in _bank_stats(s, bank, y, tails=False)]
    assert same(stats, _bank_stats(s, wide, y, tails=False))
    hb, hw = _Bank(h, [h.external_at(0.3)]), _Bank(h, [h.external_at(0.3)])
    hw.column = None
    yt = draws(10_001, 1) + 0.3
    assert hb.column is not None
    assert same((hb(y), hb(y, yt)), (hw(y), hw(y, yt)))


def hybrid_expression(s, yc, yt):
    """The hybrid per-draw kernel (one external, point 0) from new arrays."""
    variances, log_w, info, loc = bank_at(s, 0.3)
    means = np.empty((variances.size, yc.size))
    means[0] = info
    means[1:] = yc if loc is None else loc
    W, pm, pv = posterior_bank_expression(means, variances, log_w, yc, s.n_c, s.sigma)
    a, b, t_var = _treatment_params(s, s.external_at(0.3).mean)
    sj = np.sqrt(t_var + pv)[:, None]
    return W[0], np.einsum("jr,jr->r", W, ndtr((pm - (a + b * yt)[None, :]) / sj))


@pytest.mark.parametrize("J", [2, 101])
@LOCATIONS
def test_hybrid_per_draw_kernel_in_chunks_matches_the_expression(monkeypatch, J, location):
    s = hybrid(J, location)
    yc, yt = draws(8_193, 1), draws(8_193, 2) + 0.3
    bank = _Bank(s, [s.external_at(0.3)])
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 1)
    assert len(list(bank_chunks(yc.size, J))) > 1
    assert same((bank(yc), bank(yc, yt)), hybrid_expression(s, yc, yt))


def test_returned_arrays_survive_later_calls_on_the_thread():
    s = one_arm(101, CurrentMean())
    variances, log_w, info, loc = bank_at(s)
    y = draws(5000)
    held = posterior_bank(bank_means(info, loc, 101, y), variances, log_w, y, s.n, s.sigma)
    stats = (_bank_stats(s, axis_bank_at(s), draws(5000, 1)),)
    copies = [a.copy() for a in held + stats]
    _bank_stats(s, axis_bank_at(s, -0.4), draws(7000, 2))
    h = hybrid(101, CurrentMean())
    _Bank(h, [h.external_at(0.1)])(draws(6000, 3), draws(6000, 4))
    y2 = draws(5000, 5)
    posterior_bank(bank_means(info, loc, 101, y2), variances, log_w, y2, s.n, s.sigma)
    assert same(held + stats, copies)


def test_threads_keep_their_own_buffers(monkeypatch):
    # More threads than cores, chunks at the floor and a short switch
    # interval, so the threads' passes interleave chunk by chunk.
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 1)
    jobs = [(J, location, seed) for J in (2, 101) for location in (ExternalMean(), CurrentMean())
            for seed in (0, 1)]

    def run(job):
        J, location, seed = job
        s = one_arm(J, location)
        bank, y = axis_bank_at(s, 0.2 * seed), draws(20_000, seed)
        return (_bank_stats(s, bank, y), *(a.copy() for a in _bank_stats(s, bank, y, tails=False)))

    serial = [run(job) for job in jobs]
    start = threading.Barrier(4, timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4, initializer=start.wait) as pool:
            parallel = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(same(p, q) for p, q in zip(parallel, serial))


@LOCATIONS
def test_a_warm_tail_free_pass_keeps_two_rows_of_means(monkeypatch, location):
    # On a thread of its own, two 101-component curves at 1e5 reps (each a
    # tails pass: the scan and the count) and then two tail-free passes over
    # 1e5 draws never grow its "means" buffer past two rows of the widest
    # chunk: the tail's ndtr argument is formed in the spent posterior means.
    s = one_arm(101, location)
    bank, y = axis_bank_at(s), draws(100_000)
    widest = max(c.stop - c.start for c in bank_chunks(y.size, 101))
    widths, kernel = [], AxisBank.kernel

    def recording_kernel(self, point, ybar, n, sigma):
        widths.append(ybar.size)
        return kernel(self, point, ybar, n, sigma)

    monkeypatch.setattr(AxisBank, "kernel", recording_kernel)

    def passes():
        sizes = []
        for _ in range(2):
            onearm.oc_curve(replace(s, reps=100_000), (0.0, 0.7))
            sizes.append(inference._WORKSPACE.means.size)
        curve_widest = max(widths)
        for _ in range(2):
            _bank_stats(s, bank, y, tails=False)
            sizes.append(inference._WORKSPACE.means.size)
        return sizes, curve_widest

    with ThreadPoolExecutor(1) as pool:
        sizes, curve_widest = pool.submit(passes).result(timeout=120)
    assert sizes == [2 * curve_widest] * 2 + [2 * widest] * 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fault counts of Linux getrusage")
@pytest.mark.parametrize("tails, bound", [(True, 1404), (False, 959)])
def test_a_warm_101_component_pass_takes_few_page_faults(tails, bound):
    # A tenth of the faults the pass took with new (J, R) arrays per chunk
    # (14 045 with tails, 9 590 without, on 1e5 draws).
    import resource

    s = one_arm(101, ExternalMean())
    bank, y = axis_bank_at(s), draws(100_000)
    _bank_stats(s, bank, y, tails)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _bank_stats(s, bank, y, tails)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= bound
