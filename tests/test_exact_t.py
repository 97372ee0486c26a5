"""Tests of the exact-t route against adaptive quadrature and closed forms.

The route takes the robust t exactly as a normal bank over its Gamma
precision: the trapezoid rule in log precision, checked against the same
rule at half its step. Random scenarios cover heavy and light tails, t
scales from 0.05 (under a quarter of the current data's se) to 3, both
ends of the weight axis, all three locations and prior-data conflict up
to 1e3 external sds; a fixed grid covers the narrowest scales at every
location. The bank's own weights are checked against the Gamma's mass
and mean.
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
from borrowsim import onearm
from borrowsim.onearm import EXACT_T_TOL, _checked_exact_t, _exact_curve, _exact_t_tails
from borrowsim.priors import t_trapezoid_bank
from oracles import exact_t_tail_oracle, scan_brentq_region

EXT = SufficientStat(0.0, 15, 1.0)
SD_EXT = 1.0 / math.sqrt(15.0)
N = 20
SE = 1.0 / math.sqrt(N)
# The default scan of the current data's window, null +- 12 se.
SCAN = np.linspace(-12.0 * SE, 12.0 * SE, 2001)
LOCATIONS = {"external": ExternalMean(), "null": NullBoundary(0.0), "current": CurrentMean()}

scenarios = st.fixed_dictionaries({
    "df": st.floats(2.0, 30.0, exclude_min=True),
    "scale": st.floats(0.05, 3.0),
    "w": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    "location": st.sampled_from(list(LOCATIONS.values())),
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
    tails, scan = _checked_exact_t(s, bias, ys)
    assert not np.any(np.isnan(scan))
    residual = np.max(np.abs(scan - _exact_t_tails(s, bias, halve=True)(ys)))
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


def assert_matches_quadrature(spec, bias, ys):
    """The cell's checked tails match the oracle at every 250th of ``ys``."""
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    tails, _ = _checked_exact_t(s, bias, ys)
    oracle_spec = MixturePriorSpec(spec.informative_weight, s.external_at(bias), spec.location, spec.form)
    for y in ys[::250]:
        oracle = exact_t_tail_oracle(oracle_spec, SufficientStat(float(y), N, 1.0), 0.0)
        assert abs(tails(np.array([y]))[0] - oracle) <= 1e-10


@pytest.mark.parametrize("scale", [0.1, SE / 4], ids=["0.1", "se/4"])
@pytest.mark.parametrize("conflict", [0, 4, 30, 100])
@pytest.mark.parametrize("location", LOCATIONS.values(), ids=LOCATIONS.keys())
@pytest.mark.parametrize("df", [2.05, 3.0, 30.0])
def test_scales_down_to_a_quarter_se_converge_and_match_quadrature(df, location, conflict, scale):
    # t scales under half the current data's se, where the rule's nodes
    # spread over a wider range of precisions: every cell converges.
    spec = MixturePriorSpec(0.5, EXT, location, StudentT(df, scale, 100))
    assert_matches_quadrature(spec, conflict * SD_EXT, SCAN)


@pytest.mark.parametrize("halve", [False, True])
@pytest.mark.parametrize("far", [0.0, 1e3 * SD_EXT])
@pytest.mark.parametrize("scale", [SE / 4, 1.0], ids=["se/4", "1"])
@pytest.mark.parametrize("df", [2.0001, 3.0, 30.0, 1000.0])
def test_bank_holds_the_gamma_mass_and_mean(df, scale, far, halve):
    # The weights are normalized, so a range that drops Gamma mass shows in
    # the mean: left of the range it raises it, right of it lowers it.
    variances, log_w = t_trapezoid_bank(StudentT(df, scale, 100), far, halve)
    w = np.exp(log_w)
    assert abs(w.sum() - 1.0) <= 1e-13
    assert abs(np.dot(w, scale**2 / variances) - 1.0) <= 1e-13


def test_default_step_converges_for_the_criterion_5_scenario():
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 1.0, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    ys = np.linspace(-12.0 * s.se, 12.0 * s.se, 2001)
    for conflict in (0, 4, 8, 30, 120, 1000):
        _, scan = _checked_exact_t(s, conflict * SD_EXT, ys)
        residual = np.max(np.abs(scan - _exact_t_tails(s, conflict * SD_EXT, halve=True)(ys)))
        assert residual <= EXACT_T_TOL


def test_narrow_scale_near_se_matches_quadrature():
    # A t scale near the current data's se and df near 2, at the
    # null-boundary location.
    spec = MixturePriorSpec(0.0, EXT, NullBoundary(0.0), StudentT(2.2, 0.3, 100))
    assert_matches_quadrature(spec, 0.0, SCAN)


def test_scale_under_half_se_converges_and_matches_quadrature():
    # A t scale under half the current data's se (0.1 against 0.2236): the
    # oracle's tail is alpha at every finite boundary of the route's region.
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 0.1, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    bounds = [x for interval in _exact_curve(s, (0.0,), True)[0] for x in interval if math.isfinite(x)]
    assert bounds
    for x in bounds:
        assert abs(exact_t_tail_oracle(spec, SufficientStat(x, N, 1.0), 0.0) - s.alpha) <= 1e-10


def test_an_unconverged_rule_raises_with_its_residual_and_scale(monkeypatch):
    monkeypatch.setattr(onearm, "EXACT_T_TOL", 0.0)
    spec = MixturePriorSpec(0.5, EXT, ExternalMean(), StudentT(3.0, 0.1, 100))
    s = OneArmScenario(0.0, 0.5, N, 1.0, EXT, spec, seed=1, reps=1)
    with pytest.raises(RuntimeError) as info:
        _exact_curve(s, (0.0,), True)
    message = str(info.value)
    assert "tails at steps h and h/2 differ by " in message
    assert "(> 0) on the scan at t scale 0.1" in message
