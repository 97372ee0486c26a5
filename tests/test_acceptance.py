"""Acceptance gate: every exit criterion at its stated tolerance.

One test per criterion (split where a criterion bundles independent
clauses), each printing a PASS/FAIL line with the measured numbers.
Three clauses are checked against a reference that does not come from
the code under test ("sd-ext" is the external data's standard error,
1/sqrt(15)):

* criterion 2: the no-borrowing hybrid power at effect 0.83 lies within
  0.002 of the closed-form one-sided z-test power
  Phi(0.83/sqrt(0.1) - z_0.975) = 0.746887 (Monte Carlo reads 0.74614),
  and within 3 Monte Carlo standard errors of it;
* criterion 5, extreme-bias clause: the t prior's pull on the posterior
  decays like 1/conflict, so the return to the no-borrowing error rate
  is a limit. On the exact-t route the excess over 0.025 at 30, 60 and
  120 sd-ext (0.00737, 0.00358, 0.00174) is positive and halves with
  each doubling (ratios in [0.45, 0.55]); the limit extrapolated from
  the last two probes (-9e-5) lies within 0.005 of 0.025; and the normal
  bank matches the exact-t route to 3e-4 at 30 sd-ext. The bank itself
  cannot show the limit: beyond its widest component (~25 sd-ext here)
  its tail is normal and its error rate climbs again. The exact-t route
  is a 40-node Gauss-Laguerre normal bank over the t's Gamma precision,
  rate-shifted by the conflict, which checks itself against 80 nodes
  (<= 1e-12 on its scan); both criterion-5 tests check its tail at every
  region boundary against adaptive quadrature (``oracles``) to 1e-10;
* criterion 7, strongest-bimodality clause: every cell of the
  current-mean map matches a dense-grid oracle (closed-form posterior,
  modes and antimode read off a fine grid, no ``find_modes``) to 1e-6,
  and the strongest cell, ratio 1.041 at w 0.96 and 4 sd-ext, is
  bimodal. A ratio of 2 is out of reach on this map: the two posterior
  components' means are at most 0.44 apart against sds 0.17 and 0.22,
  and the supremum over all weights, reached at 4 sd-ext, is 1.069.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

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
    bimodality_map,
    one_arm_tie_exact,
)
from borrowsim import onearm
from borrowsim.config import MAP_WEIGHTS, map_biases
from borrowsim.hybrid import average_curve, delta_grid, restricted_summary, sweet_spots
from borrowsim.hybrid import oc_curve as hybrid_curve
from borrowsim.onearm import mean_posterior_weight
from mixtures import (
    GaussianComponent,
    GaussianMixture,
    conjugate_update,
    find_modes,
    marginal_likelihood,
    mixture_pdf,
    posterior,
    prob_t_not_better,
)
from oracles import exact_t_tail_oracle

SIGMA = 1.0
N_EXT = 15
SD_EXT = SIGMA / math.sqrt(N_EXT)
EXT = SufficientStat(0.0, N_EXT, SIGMA)
SEED = 20260810
FULL_REPS = 1_000_000


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def one_arm(w, location, n_robust=1.0, robust_variance=None, form=None,
            reps=FULL_REPS, alt=0.5):
    spec = MixturePriorSpec(
        w, EXT, location, form if form is not None else Normal(),
        n_robust=None if robust_variance is not None else n_robust,
        robust_variance=robust_variance,
    )
    return OneArmScenario(0.0, alt, 20, SIGMA, EXT, spec, seed=SEED, reps=reps)


def hybrid(w, location, n_robust=1.0, robust_variance=None, reps=FULL_REPS):
    spec = MixturePriorSpec(
        w, EXT, location, Normal(),
        n_robust=None if robust_variance is not None else n_robust,
        robust_variance=robust_variance,
    )
    return HybridScenario(
        20, 20, SIGMA, EXT, spec, effect=0.83, seed=SEED, reps=reps,
    )


def test_criterion_01_one_arm_baseline():
    start = time.perf_counter()
    s = one_arm(0.0, NullBoundary(0.0), robust_variance=400.0)
    (tie,), (power,) = onearm.oc_curve(s, [0.0])
    elapsed = time.perf_counter() - start
    ok = abs(tie - 0.025) <= 0.001 and abs(power - 0.609) <= 0.002 and elapsed <= 30
    report(1, ok, f"tie={tie:.5f} (0.025±0.001), power={power:.5f} (0.609±0.002), "
                  f"runtime={elapsed:.1f}s (<=30s)")
    assert abs(tie - 0.025) <= 0.001
    assert abs(power - 0.609) <= 0.002
    assert elapsed <= 30


def test_criterion_02_hybrid_baseline_power():
    s = hybrid(0.0, ExternalMean(), robust_variance=400.0)
    (power,), = hybrid_curve(s, [0.0], rates=("power",))
    # Closed-form one-sided z-test power at effect 0.83: the difference of
    # two 20-patient means with sigma 1 has variance 1/20 + 1/20 = 0.1.
    # "0.75" is this value rounded to two decimals.
    truth = float(ndtr(0.83 / math.sqrt(0.1) - ndtri(0.975)))
    three_se = 3 * math.sqrt(truth * (1 - truth) / s.reps)
    ok = abs(power - truth) <= 0.002 and abs(power - truth) <= three_se
    report(2, ok, f"power={power:.5f} vs closed-form z-test power {truth:.6f} "
                  f"(±0.002, and within 3 MC se = {three_se:.5f})")
    assert abs(power - truth) <= three_se
    assert abs(power - truth) <= 0.002


TABLE1 = {
    # delta: (max TIE %, max power gain %) for each robust location
    "external_mean": {0.1: (2.38, 9.79), 0.2: (3.08, 7.15),
                      0.4: (4.57, 2.26), 0.5: (5.15, 0.82)},
    "current_mean": {0.1: (2.43, 8.79), 0.2: (3.08, 5.95),
                     0.4: (4.39, 1.43), 0.5: (4.82, 0.29)},
}


def test_criterion_03_table1_reproduction():
    start = time.perf_counter()
    jobs = [
        (loc_name, location, delta)
        for loc_name, location in (
            ("external_mean", ExternalMean()), ("current_mean", CurrentMean()),
        )
        for delta in (0.1, 0.2, 0.4, 0.5)
    ]

    def work(job):
        _, location, delta = job
        s = hybrid(0.5, location)
        return restricted_summary(s, *hybrid_curve(s, delta_grid(delta)))

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, jobs))
    elapsed = time.perf_counter() - start

    worst_tie = worst_gain = 0.0
    lines = []
    for (loc_name, _, delta), (max_tie, gain) in zip(jobs, results):
        ref_tie, ref_gain = TABLE1[loc_name][delta]
        dt = abs(100 * max_tie - ref_tie)
        dg = abs(100 * gain - ref_gain)
        worst_tie = max(worst_tie, dt)
        worst_gain = max(worst_gain, dg)
        lines.append(
            f"{loc_name} d={delta}: tie {100*max_tie:.2f}% (ref {ref_tie}), "
            f"gain {100*gain:.2f}% (ref {ref_gain})"
        )
    ok = worst_tie <= 0.2 and worst_gain <= 0.5 and elapsed <= 600
    report(3, ok, f"worst tie err {worst_tie:.3f}pp (<=0.2), worst gain err "
                  f"{worst_gain:.3f}pp (<=0.5), runtime {elapsed:.0f}s (<=600) | "
                  + "; ".join(lines))
    assert worst_tie <= 0.2
    assert worst_gain <= 0.5
    assert elapsed <= 600


def test_criterion_04_cap_laws():
    # (a) a normal robust component at the external mean has no cap; the
    # criterion fixes no dispersion, so the property is demonstrated at
    # n_robust = 2 (within the probed dispersion set); at unit
    # information the 0.5 crossing happens just beyond 30 sd-ext.
    s_a = one_arm(0.5, ExternalMean(), n_robust=2.0, reps=10_000)
    grid = [m * SD_EXT for m in (10, 15, 20, 25, 30)]
    ties_a = [one_arm_tie_exact(s_a, b) for b in grid]
    increasing = all(x < y for x, y in zip(ties_a, ties_a[1:]))
    ok_a = increasing and ties_a[-1] > 0.5

    # (b) the current-mean location caps at the variance-deflation level
    s_b = one_arm(0.5, CurrentMean(), reps=10_000)
    limit = 1 - ndtr(ndtri(0.975) * math.sqrt(20.0 / 21.0))
    tie_b = one_arm_tie_exact(s_b, 30 * SD_EXT)
    ok_b = abs(tie_b - limit) <= 0.002

    # (c) the null-boundary location caps at the robust-only level
    s_c = one_arm(0.5, NullBoundary(0.0), reps=10_000)
    s_c0 = one_arm(0.0, NullBoundary(0.0), reps=10_000)
    tie_c = one_arm_tie_exact(s_c, 30 * SD_EXT)
    tie_c0 = one_arm_tie_exact(s_c0, 0.0)
    ok_c = abs(tie_c - tie_c0) <= 0.002

    report(4, ok_a and ok_b and ok_c,
           f"(a) ties {['%.3f' % t for t in ties_a]} increasing={increasing}, "
           f"final>{0.5}: {ties_a[-1]:.3f}; "
           f"(b) {tie_b:.5f} vs {limit:.5f}; (c) {tie_c:.5f} vs {tie_c0:.5f}")
    assert ok_a
    assert ok_b
    assert ok_c


def t_scenario(reps=10_000):
    return one_arm(0.5, ExternalMean(), form=StudentT(3.0, 1.0, 100), reps=reps)


def boundary_oracle_gap(s, bias):
    """Largest |quad tail - alpha| at the exact-t route's region boundaries.

    The route puts each finite boundary where its tail equals alpha, so
    the adaptive-quadrature oracle, evaluated there, checks the route's
    tail independently of the Gauss-Laguerre bank.
    """
    spec = replace(s.prior, external=s.external_at(bias))
    region = onearm._exact_curve(s, (bias,), True)[0]
    bounds = [x for interval in region for x in interval if math.isfinite(x)]
    assert bounds
    return max(
        abs(exact_t_tail_oracle(spec, SufficientStat(x, s.n, s.sigma), s.null_mean) - s.alpha)
        for x in bounds
    )


def test_criterion_05_t_approximation_tracks_exact_t():
    s = t_scenario()
    biases = np.linspace(0.0, 8 * SD_EXT, 9)
    worst = 0.0
    worst_oracle = 0.0
    for b in biases:
        approx = one_arm_tie_exact(s, float(b))
        oracle = one_arm_tie_exact(s, float(b), use_exact_t=True)
        worst = max(worst, abs(approx - oracle))
        worst_oracle = max(worst_oracle, boundary_oracle_gap(s, float(b)))
    ok = worst <= 0.003 and worst_oracle <= 1e-10
    report("5 (tracking)", ok, f"max |bank - exact-t| TIE = {worst:.5f} (<=0.003) "
                               "over 9 points in [0, 8 sd-ext]; exact-t tail vs quad "
                               f"at the region boundaries {worst_oracle:.1e} (<=1e-10)")
    assert worst <= 0.003
    assert worst_oracle <= 1e-10


def test_criterion_05_extreme_bias_returns_to_no_borrowing():
    # The t prior's pull decays like 1/conflict, so the return to the
    # no-borrowing rate is a limit: the excess over 0.025 must halve with
    # each doubling of the conflict, and the limit extrapolated from the
    # last two probes (gap(2c) = L + a/(2c) gives L = 2 gap(2c) - gap(c))
    # must lie in the 0.005 band. The probes use the exact-t route: the
    # normal bank's tail turns normal beyond its widest component (~25
    # sd-ext here), where its error rate climbs again.
    s = t_scenario()
    probes = (30, 60, 120)
    ties = [one_arm_tie_exact(s, m * SD_EXT, use_exact_t=True) for m in probes]
    gaps = [tie - 0.025 for tie in ties]
    ratios = [later / earlier for earlier, later in zip(gaps, gaps[1:])]
    limit = 2 * gaps[-1] - gaps[-2]
    bank = one_arm_tie_exact(s, probes[0] * SD_EXT)
    agreement = abs(bank - ties[0])
    oracle_gap = max(boundary_oracle_gap(s, m * SD_EXT) for m in probes)

    positive = all(g > 0 for g in gaps)
    halving = all(0.45 <= r <= 0.55 for r in ratios)
    ok = (positive and halving and abs(limit) <= 0.005 and agreement <= 3e-4
          and oracle_gap <= 1e-10)
    report("5 (extreme bias)", ok,
           f"exact-t TIE at {probes} sd-ext = {['%.4f' % t for t in ties]}; "
           f"gaps to 0.025 {['%.5f' % g for g in gaps]} (>0), halving ratios "
           f"{['%.3f' % r for r in ratios]} (in [0.45, 0.55]), extrapolated "
           f"limit gap {limit:.1e} (|.|<=0.005); bank at 30 sd-ext {bank:.4f}, "
           f"|bank - exact-t| = {agreement:.1e} (<=3e-4); exact-t tail vs quad "
           f"at the region boundaries {oracle_gap:.1e} (<=1e-10)")
    assert positive
    assert halving
    assert abs(limit) <= 0.005
    assert agreement <= 3e-4
    assert oracle_gap <= 1e-10


def test_criterion_06_weight_adaptation_contrast():
    s_vague = one_arm(0.5, ExternalMean(), robust_variance=400.0, reps=200_000)
    s_unit = one_arm(0.5, ExternalMean(), n_robust=1.0, reps=200_000)
    w_vague = mean_posterior_weight(s_vague, 2 * SD_EXT)
    w_unit = mean_posterior_weight(s_unit, 2 * SD_EXT)
    ok = w_vague > 0.9 and w_unit < 0.6
    report(6, ok, f"mean posterior weight at 2 sd-ext conflict: near-flat "
                  f"robust {w_vague:.4f} (>0.9), unit-information {w_unit:.4f} (<0.6)")
    assert w_vague > 0.9
    assert w_unit < 0.6


def _map_scenario(location):
    spec = MixturePriorSpec(0.5, EXT, location, Normal(), n_robust=1.0)
    return OneArmScenario(0.0, 0.5, 20, SIGMA, EXT, spec, seed=SEED, reps=10)


def test_criterion_07a_location_contrast_in_bimodality():
    cur = bimodality_map(_map_scenario(CurrentMean()), MAP_WEIGHTS, map_biases(SD_EXT))
    ext = bimodality_map(_map_scenario(ExternalMean()), MAP_WEIGHTS, map_biases(SD_EXT))
    cur_cells = int(np.sum(cur > 1.0))
    ext_cells = int(np.sum(ext > 1.0))
    ok = cur_cells > ext_cells
    report("7 (contrast)", ok,
           f"cells with ratio>1: current-mean {cur_cells}, external-mean {ext_cells}")
    assert ok


def _map_cell_posterior(w, bias):
    """Closed-form posterior of one current-mean map cell.

    The observed mean sits at the null (0); the informative component is
    N(bias, sigma^2/n_ext) and the unit-information robust one N(0,
    sigma^2). Each updates conjugately and is weighted by its prior weight
    times its marginal likelihood of the observed mean. Returns
    (weights, means, sds).
    """
    prior_means = np.array([bias, 0.0])
    prior_vars = np.array([SIGMA**2 / N_EXT, SIGMA**2])
    data_var = SIGMA**2 / 20
    post_vars = 1.0 / (1.0 / prior_vars + 1.0 / data_var)
    post_means = post_vars * prior_means / prior_vars
    marg_vars = prior_vars + data_var
    with np.errstate(divide="ignore"):
        log_w = (np.log([w, 1.0 - w]) - 0.5 * prior_means**2 / marg_vars
                 - 0.5 * np.log(marg_vars))
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum(), post_means, np.sqrt(post_vars)


def _dense_grid_ratio(weights, means, sds):
    """Bimodality ratio read off the mixture density on a fine grid.

    Every stationary point of a two-normal mixture lies between the two
    means (beyond them both slopes share a sign), so a grid reaching one
    sd past them holds every mode. The ratio is the smaller outer local
    maximum over the lowest density between them; 1 with a single mode.
    """
    x = np.linspace(means.min() - sds.max(), means.max() + sds.max(), 20_001)
    pdf = sum(wk * np.exp(-0.5 * ((x - m) / sd) ** 2) / sd
              for wk, m, sd in zip(weights, means, sds))
    peaks = np.flatnonzero((pdf[1:-1] > pdf[:-2]) & (pdf[1:-1] >= pdf[2:])) + 1
    if peaks.size < 2:
        return 1.0
    first, last = peaks[0], peaks[-1]
    return float(min(pdf[first], pdf[last]) / pdf[first:last + 1].min())


def test_criterion_07b_strong_bimodality_cell_exists():
    biases = np.arange(0.0, 4 * SD_EXT + 1e-12, SD_EXT / 10.0)
    w_grid = np.round(np.arange(0.0, 1.0 + 1e-12, 0.01), 10)
    cur = bimodality_map(_map_scenario(CurrentMean()), w_grid=w_grid, bias_grid=biases)
    oracle = np.array([
        [_dense_grid_ratio(*_map_cell_posterior(w, b)) for b in biases] for w in w_grid
    ])
    worst = float(np.max(np.abs(cur - oracle)))
    i, j = np.unravel_index(np.argmax(cur), cur.shape)
    peak = float(cur[i, j])
    at_expected = math.isclose(w_grid[i], 0.96) and j == biases.size - 1

    # Why a ratio of 2 is out of reach: at the largest conflict the two
    # posterior components are too close for any weight to split them far.
    _, means, sds = _map_cell_posterior(0.5, biases[-1])
    sup = -minimize_scalar(
        lambda w: -_dense_grid_ratio(*_map_cell_posterior(w, biases[-1])),
        bounds=(w_grid[i] - 0.01, w_grid[i] + 0.01), method="bounded",
        options={"xatol": 1e-6},
    ).fun
    ok = worst <= 1e-6 and peak > 1.0 and at_expected
    report("7 (strongest cell)", ok,
           f"max |map - dense-grid oracle| = {worst:.1e} (<=1e-6) over "
           f"{cur.size} cells, {int(np.sum(cur > 1.0))} bimodal; peak ratio "
           f"{peak:.3f} (>1) at w {w_grid[i]:.2f}, {biases[j] / SD_EXT:.1f} sd-ext "
           f"(expected w 0.96, 4.0 sd-ext); sup over w at 4 sd-ext {sup:.3f}: "
           f"the components' means are only {abs(means[0] - means[1]):.2f} apart "
           f"against sds {sds[0]:.2f} and {sds[1]:.2f}, so a ratio of 2 is out of reach")
    assert worst <= 1e-6
    assert peak > 1.0
    assert at_expected


def test_criterion_07c_map_symmetric_in_bias_sign():
    s = _map_scenario(CurrentMean())
    biases = np.arange(0.0, 4 * SD_EXT + 1e-12, SD_EXT / 10.0)
    w_grid = np.round(np.arange(0.0, 1.0 + 1e-12, 0.01), 10)
    pos = bimodality_map(s, w_grid=w_grid, bias_grid=biases)
    neg = bimodality_map(s, w_grid=w_grid, bias_grid=-biases)
    worst = float(np.max(np.abs(pos - neg)))
    ok = worst <= 1e-9
    report("7 (symmetry)", ok, f"max |ratio(b) - ratio(-b)| = {worst:.2e} (<=1e-9)")
    assert ok


def test_criterion_08_sweet_spot():
    grid = tuple(np.round(np.arange(-0.8, 0.45, 0.05), 10))
    weights = (0.25, 0.5, 0.75)
    block = [hybrid(w, CurrentMean(), reps=10_000) for w in weights]
    spots = dict(zip(weights, sweet_spots(block, grid)))
    mid = spots[0.5]
    ok = (
        not mid.empty and mid.max_power > 0.75
        and spots[0.25].width > spots[0.75].width
    )
    report(8, ok, f"w=0.5 spot [{mid.lower:.3f}, {mid.upper:.3f}] "
                  f"max power {mid.max_power:.4f} (>0.75); widths "
                  f"w=0.25 {spots[0.25].width:.3f} > w=0.75 {spots[0.75].width:.3f}")
    assert not mid.empty
    assert mid.max_power > 0.75
    assert spots[0.25].width > spots[0.75].width


def test_criterion_09_average_tie_is_controlled():
    # Each design prior is the analysis mixture at its own informative weight.
    pairs = [("informative", 1.0), ("mixture", 0.5), ("vague", 0.0)]
    values = {}
    for name, w in pairs:
        s = hybrid(w, ExternalMean())
        values[name] = average_curve(s, w, [0.0])[0][0]
    ok = all(abs(v - 0.025) <= 0.002 for v in values.values())
    detail = ", ".join(f"{k}={v:.5f}" for k, v in values.items())
    report(9, ok, f"average TIE with matched design/analysis: {detail} (0.025±0.002)")
    for v in values.values():
        assert abs(v - 0.025) <= 0.002


def test_criterion_10_oracle_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(123)

    # conjugate update and marginal likelihood against quadrature
    worst_rel = 0.0
    for _ in range(100):
        prior = GaussianComponent(rng.normal(0, 2), rng.uniform(0.2, 3.0))
        data = SufficientStat(rng.normal(0, 2), int(rng.integers(1, 60)), rng.uniform(0.3, 2.0))
        se = data.sigma / math.sqrt(data.n)

        def joint(theta):
            z1 = (theta - prior.mean) / prior.sd
            z2 = (data.mean - theta) / se
            return math.exp(-0.5 * (z1 * z1 + z2 * z2)) / (prior.sd * se * 2 * math.pi)

        lo = min(prior.mean, data.mean) - 12 * max(prior.sd, se)
        hi = max(prior.mean, data.mean) + 12 * max(prior.sd, se)
        z0 = quad(joint, lo, hi, limit=100, epsrel=1e-12, epsabs=0)[0]
        z1 = quad(lambda t: t * joint(t), lo, hi, limit=100, epsrel=1e-12, epsabs=0)[0]
        z2 = quad(lambda t: t * t * joint(t), lo, hi, limit=100, epsrel=1e-12, epsabs=0)[0]
        post = conjugate_update(prior, data)
        worst_rel = max(
            worst_rel,
            abs(marginal_likelihood(prior, data) - z0) / z0,
            abs(post.mean - z1 / z0) / max(abs(z1 / z0), 1e-6),
            abs(post.variance - (z2 / z0 - (z1 / z0) ** 2)) / post.variance,
        )
    ok_quad = worst_rel <= 1e-8
    t_quad = time.perf_counter() - start

    # two-arm superiority against a 2-D Monte Carlo oracle
    start = time.perf_counter()
    prior = GaussianMixture(
        (GaussianComponent(0.0, math.sqrt(1 / 15)), GaussianComponent(0.0, 1.0)),
        (0.5, 0.5),
    )
    post_c = posterior(prior, SufficientStat(0.3, 20, 1.0))
    post_t = GaussianComponent(0.6, 0.25)
    n = 1_000_000
    comp = rng.random(n) < post_c.posterior.weights[0]
    c0, c1 = post_c.posterior.components
    theta_c = np.where(comp, rng.normal(c0.mean, c0.sd, n), rng.normal(c1.mean, c1.sd, n))
    theta_t = rng.normal(post_t.mean, post_t.sd, n)
    hit = float(np.mean(theta_t <= theta_c))
    se_mc = math.sqrt(hit * (1 - hit) / n)
    ok_mc = abs(prob_t_not_better(post_c, post_t) - hit) <= 3 * se_mc
    t_mc = time.perf_counter() - start

    # mode finding against a dense grid
    start = time.perf_counter()
    m = GaussianMixture(
        (GaussianComponent(-1.2, 0.5), GaussianComponent(0.9, 0.6)), (0.45, 0.55)
    )
    reportm = find_modes(m)
    xs = np.linspace(-4.5, 4.5, 100_000)
    pdf = mixture_pdf(xs, m)
    ok_modes = reportm.n_modes == 2 and abs(
        reportm.modes[0][1] - pdf[xs < 0].max()
    ) / pdf.max() <= 1e-6 and abs(reportm.modes[1][1] - pdf[xs > 0].max()) / pdf.max() <= 1e-6
    t_modes = time.perf_counter() - start

    ok = ok_quad and ok_mc and ok_modes and max(t_quad, t_mc, t_modes) <= 1.0
    report(10, ok, f"quadrature rel err {worst_rel:.2e} (<=1e-8, {t_quad:.2f}s), "
                   f"2-D MC within 3se ({t_mc:.2f}s), modes vs dense grid "
                   f"({t_modes:.2f}s)")
    assert ok_quad
    assert ok_mc
    assert ok_modes
    assert max(t_quad, t_mc, t_modes) <= 1.0
