"""Property tests of the exact-t route against adaptive quadrature.

The route takes the robust t exactly as a Gauss-Laguerre normal bank over
its Gamma precision. Random scenarios cover heavy and light tails, narrow
and wide t scales, both ends of the weight axis, all three locations and
prior-data conflict up to 1e3 external sds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borrowsim import (
    CurrentMean,
    ExternalMean,
    MixturePriorSpec,
    NullBoundary,
    OneArmScenario,
    StudentT,
    SufficientStat,
)
from borrowsim.onearm import EXACT_T_TOL, _checked_exact_t, _exact_curve, _exact_t_tails
from oracles import exact_t_tail_oracle, scan_brentq_region

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)
N = 20

scenarios = st.fixed_dictionaries({
    "df": st.floats(2.0, 30.0, exclude_min=True),
    "scale": st.floats(0.3, 3.0),
    "w": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    "location": st.sampled_from([ExternalMean(), NullBoundary(0.0), CurrentMean()]),
    "conflict": st.floats(-1e3, 1e3),
    # Observed mean in current-data se units, inside the scan window.
    "ybar": st.floats(-12.0, 12.0),
})


def build(p):
    spec = MixturePriorSpec(p["w"], EXT, p["location"], StudentT(p["df"], p["scale"], 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    return s, p["conflict"] * SD_EXT


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_bank_tail_matches_quadrature(p):
    s, bias = build(p)
    ys = np.linspace(-12.0 * s.se, 12.0 * s.se, 161)
    tails, scan, nodes = _checked_exact_t(s, bias, ys)
    assert not np.any(np.isnan(scan))
    residual = np.max(np.abs(scan - _exact_t_tails(s, bias, 2 * nodes)(ys)))
    assert residual <= EXACT_T_TOL

    ybar = p["ybar"] * s.se
    spec = MixturePriorSpec(p["w"], s.external_at(bias), p["location"], s.prior.form)
    oracle = exact_t_tail_oracle(spec, SufficientStat(ybar, N, 1.0), s.null_mean)
    assert abs(tails(np.array([ybar]))[0] - oracle) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(scenarios)
def test_region_is_finite_and_ordered(p):
    s, bias = build(p)
    region = list(_exact_curve(s, (bias,), True)[0])
    bounds = [x for interval in region for x in interval]
    assert not any(math.isnan(x) for x in bounds)
    assert bounds == sorted(bounds)
    # The region read off the scan's brackets is the per-cell oracle's.
    ys = np.linspace(-12.0 * s.se, 12.0 * s.se, 2001)
    assert region == scan_brentq_region(_checked_exact_t(s, bias, ys)[0], ys, s.alpha)


def test_default_node_count_suffices_for_the_criterion_5_scenario():
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 1.0, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    ys = np.linspace(-12.0 * s.se, 12.0 * s.se, 2001)
    for conflict in (0, 4, 8, 30, 120, 1000):
        assert _checked_exact_t(s, conflict * SD_EXT, ys)[2] == 40


def test_narrow_scale_falls_back_to_more_nodes():
    # A t scale near the current data's se and df near 2: 40 and 80 nodes
    # differ by about 3e-11 at the null-boundary location, so the route
    # moves on to 80 nodes, and stays exact there.
    spec = MixturePriorSpec(0.0, EXT, NullBoundary(0.0), StudentT(2.2, 0.3, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    ys = np.linspace(-12.0 * s.se, 12.0 * s.se, 2001)
    tails, _, nodes = _checked_exact_t(s, 0.0, ys)
    assert nodes == 80
    for y in ys[::250]:
        oracle = exact_t_tail_oracle(spec, SufficientStat(float(y), N, 1.0), 0.0)
        assert abs(tails(np.array([y]))[0] - oracle) <= 1e-10


def test_narrow_scale_beyond_the_domain_raises_with_the_domain():
    # A t scale under half the current data's se (0.1 against 0.2236):
    # even 160 and 320 nodes disagree, and the error says why.
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 0.1, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    with pytest.raises(RuntimeError) as info:
        _exact_curve(s, (0.0,), True)
    message = str(info.value)
    assert "160 and 320 nodes differ" in message
    assert "t scale 0.1 and current-data se 0.223607" in message
    assert "t scales down to about se/2 (0.111803)" in message
