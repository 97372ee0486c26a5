"""Scenario-file validation, sweep engine and command-line interface."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from borrowsim import hybrid, onearm, sweep
from borrowsim.cli import main
from borrowsim.config import ConfigError, check_config, normalize_config
from borrowsim.priors import ExternalMean, Normal
from borrowsim.recipes import RECIPES, list_recipes, recipe_config
from borrowsim.scenarios import OCRow
from borrowsim.sweep import CSV_COLUMNS, SweepResult, _curves, cost_estimate, run_config, write_outputs


# The results.csv header and each results.json row's keys, in order: a fixed
# contract, stated here apart from the ``OCRow`` that the writers read it off.
HEADER = ("scenario_id", "trial", "location", "form", "n_robust", "w", "bias", "tie", "power",
          "power_calibrated", "rmse_std", "w_tilde", "obm", "reps", "seed")


def tiny_grid_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "grid",
        "trial": "one-arm",
        "scenario_id": "tiny",
        "seed": 424242,
        "reps": 5000,
        "n": 20,
        "n_ext": 15,
        "alt_mean": 0.5,
        "metrics": ["tie", "w_tilde"],
        "sweep": {
            "location": ["external_mean", "current_mean"],
            "n_robust": [1.0],
            "w": [0.25, 0.5],
            "bias": [-0.5, 0.0, 0.5],
        },
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_valid_config_passes(self):
        assert check_config(tiny_grid_config()) == []

    def test_out_of_range_weight_names_the_field(self):
        cfg = tiny_grid_config()
        cfg["sweep"]["w"] = [0.5, 1.2]
        errors = check_config(cfg)
        assert any("sweep.w[1]" in e and "[0, 1]" in e for e in errors)

    def test_empty_bias_grid_rejected(self):
        cfg = tiny_grid_config()
        cfg["sweep"]["bias"] = []
        assert any("sweep.bias" in e for e in check_config(cfg))

    def test_missing_seed_rejected(self):
        cfg = tiny_grid_config()
        del cfg["seed"]
        assert any(e.startswith("seed:") for e in check_config(cfg))

    def test_unknown_keys_rejected_everywhere(self):
        cfg = tiny_grid_config()
        cfg["sweeep"] = {}
        assert any("unknown keys" in e for e in check_config(cfg))
        cfg = tiny_grid_config()
        cfg["sweep"]["biased"] = [0.0]
        assert any("sweep: unknown keys" in e for e in check_config(cfg))

    def test_hybrid_rejects_null_boundary(self):
        cfg = tiny_grid_config(trial="hybrid")
        del cfg["n"], cfg["alt_mean"]
        cfg.update(n_t=20, n_c=20, effect=0.83)
        cfg["metrics"] = ["tie"]
        cfg["sweep"]["location"] = ["null_boundary"]
        assert any("null_boundary" in e for e in check_config(cfg))

    def test_student_t_axis_rules(self):
        cfg = tiny_grid_config()
        cfg["form"] = {"kind": "student_t", "df": 3.0, "scale": 1.0, "k": 10}
        cfg["sweep"]["n_robust"] = [1.0]
        assert any("n_robust" in e for e in check_config(cfg))

    def test_schema_version_checked(self):
        cfg = tiny_grid_config(schema_version=2)
        assert any("schema_version" in e for e in check_config(cfg))

    def test_normalize_raises_config_error_with_all_fields(self):
        cfg = tiny_grid_config()
        cfg["sweep"]["w"] = [1.5]
        del cfg["seed"]
        with pytest.raises(ConfigError) as exc:
            normalize_config(cfg)
        assert len(exc.value.errors) >= 2

    @pytest.mark.parametrize("grid", [
        {"start": 0, "stop": 1e30, "step": 1e-30},
        {"start": 0, "stop": 1e9 - 1, "step": 1},
    ])
    def test_grid_shorthand_is_bounded_before_it_expands(self, grid, monkeypatch):
        from borrowsim import config

        monkeypatch.setattr(config, "np", None)  # any expansion would fail
        cfg = tiny_grid_config()
        cfg["sweep"]["bias"] = grid
        assert check_config(cfg) == [f"sweep.bias: expands to more than {config.MAX_GRID_POINTS} points"]

    @pytest.mark.parametrize("grid, points", [
        ({"start": 0, "stop": 0.26, "step": 0.1}, [0.0, 0.1, 0.2]),
        ({"start": 0, "stop": 0.3, "step": 0.1}, [0.0, 0.1, 0.2, 0.3]),
        ({"start": -1.0, "stop": 1.0, "step": 0.5}, [-1.0, -0.5, 0.0, 0.5, 1.0]),
        ({"start": 0.5, "stop": 0.55, "step": 0.1}, [0.5]),
    ])
    def test_grid_shorthand_never_passes_stop(self, grid, points):
        cfg = tiny_grid_config()
        cfg["sweep"]["bias"] = grid
        assert normalize_config(cfg)["sweep"]["bias"] == points

    def test_cost_estimate_counts_cells(self):
        cells, draws = cost_estimate(normalize_config(tiny_grid_config()))
        assert cells == 2 * 1 * 2 * 3
        assert draws == cells * 2 * 5000  # tie and w_tilde each consume a pass


_DEL = object()


def mutated(base, changes):
    """``base`` ("tiny" or a recipe name) with dotted keys set or deleted."""
    cfg = tiny_grid_config() if base == "tiny" else recipe_config(base)
    for path, value in changes.items():
        *parents, last = path.split(".")
        box = cfg
        for p in parents:
            box = box.setdefault(p, {}) if isinstance(box, dict) else None
        if not isinstance(box, dict):
            continue
        if value is _DEL:
            box.pop(last, None)
        else:
            box[last] = value
    return cfg


# One case per validation rule: (base config, mutation, fragment that an
# error must contain; the fragment names the offending field).
RULES = [
    ("tiny", {"schema_version": 2}, "schema_version"),
    ("tiny", {"kind": "heatmap"}, "kind"),
    ("tiny", {"trial": "three-arm"}, "trial"),
    ("fig2", {"trial": "hybrid"}, "kind"),
    ("tiny", {"kind": "table"}, "kind"),
    ("tiny", {"sweeep": {}}, "config: unknown keys"),
    ("tiny", {"n_t": 20}, "n_t"),
    ("tiny", {"scenario_id": ""}, "scenario_id"),
    ("tiny", {"seed": 1.5}, "seed"),
    ("tiny", {"reps": 0}, "reps"),
    ("tiny", {"reps": True}, "reps"),
    ("tiny", {"alpha": 1.0}, "alpha"),
    ("tiny", {"sigma": -1.0}, "sigma"),
    ("tiny", {"n_ext": _DEL}, "n_ext"),
    ("tiny", {"external_mean": float("nan")}, "external_mean"),
    ("tiny", {"estimator": "bootstrap"}, "estimator"),
    ("tiny", {"form": "normal"}, "form"),
    ("tiny", {"form": {"kind": "normal", "shape": 2}}, "form: unknown keys"),
    ("tiny", {"form": {"kind": "cauchy"}}, "form.kind"),
    ("tiny", {"form": {"kind": "normal", "df": 3.0}}, "df"),
    ("fig1-t", {"form.df": 2.0}, "form.df"),
    ("fig1-t", {"form.scale": 0.0}, "form.scale"),
    ("fig1-t", {"form.k": 0}, "form.k"),
    ("tiny", {"n": _DEL}, "n:"),
    ("tiny", {"null_mean": "zero"}, "null_mean"),
    ("tiny", {"alt_mean": -0.5}, "alt_mean"),
    ("tiny", {"null_mean": 1.0, "alt_mean": _DEL, "metrics": ["tie"]}, None),
    ("tiny", {"rmse_true_mean": "x"}, "rmse_true_mean"),
    ("fig7", {"n_c": 0}, "n_c"),
    ("fig7", {"effect": 0.0}, "effect"),
    ("fig7", {"treatment_prior": "vague"}, "treatment_prior"),
    ("fig7", {"control_mean": None}, "control_mean"),
    ("fig10", {"rmp_weight": 1.5}, "rmp_weight"),
    ("fig7", {"alt_mean": 0.5}, "alt_mean"),
    ("tiny", {"sweep": []}, "sweep"),
    ("tiny", {"sweep.biased": [0.0]}, "sweep: unknown keys"),
    ("tiny", {"sweep.location": []}, "sweep.location"),
    ("tiny", {"sweep.location": ["external_mean", "nowhere"]}, "sweep.location[1]"),
    ("fig7", {"sweep.location": ["null_boundary"]}, "null_boundary"),
    ("tiny", {"sweep.w": _DEL}, "sweep.w"),
    ("tiny", {"sweep.w": [0.5, 1.2]}, "sweep.w[1]"),
    ("fig2", {"sweep.w": [0.5, -0.1]}, "sweep.w[1]"),
    ("fig1-t", {"sweep.n_robust": [1.0]}, "sweep.n_robust"),
    ("fig1-t", {"sweep.robust_variance": [1.0]}, "sweep.robust_variance"),
    ("fig1-t", {"sweep.k": [0]}, "sweep.k"),
    ("fig1-t", {"sweep.scale": [-1.0]}, "sweep.scale"),
    ("tiny", {"sweep.k": [10]}, "sweep.k"),
    ("tiny", {"sweep.scale": [1.0]}, "sweep.scale"),
    ("tiny", {"sweep.robust_variance": [1.0]}, "robust_variance"),
    ("tiny", {"sweep.n_robust": [0.0]}, "sweep.n_robust"),
    ("tiny", {"sweep.n_robust": _DEL, "sweep.robust_variance": [-1.0]}, "sweep.robust_variance"),
    ("tiny", {"sweep.bias": _DEL}, "sweep.bias"),
    ("tiny", {"sweep.bias": []}, "sweep.bias"),
    ("tiny", {"sweep.bias": "wide"}, "sweep.bias"),
    ("tiny", {"sweep.bias": [0.0, "x"]}, "sweep.bias[1]"),
    ("tiny", {"sweep.bias": {"start": 0, "stop": 1}}, "sweep.bias"),
    ("tiny", {"sweep.bias": {"start": 0, "stop": 1, "step": 0.5, "num": 3}}, "sweep.bias"),
    ("tiny", {"sweep.bias": {"start": 1, "stop": 0, "step": 0.5}}, "sweep.bias"),
    ("fig8", {"sweep.bias": [0.0]}, "sweep.bias"),
    ("fig8", {"sweep.bias": _DEL}, "sweep.bias"),
    ("fig2", {"sweep.bias": []}, "sweep.bias"),
    ("table1", {"sweep.deltas": [0.1, -0.2]}, "sweep.deltas"),
    ("table1", {"sweep.deltas": _DEL}, "sweep.deltas"),
    ("tiny", {"sweep.deltas": [0.1]}, "sweep.deltas"),
    ("fig10", {"sweep.analysis_shift": _DEL}, "sweep.analysis_shift"),
    ("fig10", {"sweep.analysis_shift": {"start": 0.0}}, "sweep.analysis_shift"),
    ("fig10", {"sweep.design_priors": ["flat"]}, "sweep.design_priors"),
    ("fig10", {"sweep.design_priors": _DEL}, "sweep.design_priors"),
    ("tiny", {"sweep.analysis_shift": [0.0]}, "sweep.analysis_shift"),
    ("tiny", {"sweep.design_priors": ["rmp"]}, "sweep.design_priors"),
    ("tiny", {"sweep.sample_sizes": []}, "sweep.sample_sizes"),
    ("tiny", {"sweep.sample_sizes": [{"n_t": 10}]}, "sweep.sample_sizes[0]"),
    ("tiny", {"sweep.sample_sizes": [{"n": 10}, 5]}, "sweep.sample_sizes[1]"),
    ("tiny", {"sweep.sample_sizes": [{"n": 0}]}, "sweep.sample_sizes[0].n"),
    ("a14-treatment-prior-unbalanced", {"sweep.sample_sizes": [{"n": 10}]}, "sweep.sample_sizes[0]"),
    ("table1", {"metrics": ["tie"]}, "metrics"),
    ("tiny", {"metrics": []}, "metrics"),
    ("tiny", {"metrics": None}, "metrics"),
    ("fig7", {"metrics": ["tie", "rmse"]}, "metrics[1]"),
    ("fig1-t", {"metrics": ["tie", "obm"]}, "obm"),
    ("fig2", {"form": {"kind": "student_t"}, "sweep.n_robust": _DEL}, "bimodality"),
    ("tiny", {"output": "out"}, "output"),
    ("tiny", {"output": {"csv": "a.csv", "xlsx": "b"}}, "output: unknown keys"),
    ("tiny", {"output": {"csv": ""}}, "output.csv"),
    ("fig10", {"external_mean": float("nan")}, "external_mean"),
    ("tiny", {"seed": -1}, "seed"),
    ("tiny", {"seed": 2**64}, "seed"),
    ("tiny", {"scenario_id": "../x"}, "scenario_id"),
    ("tiny", {"scenario_id": "a/b"}, "scenario_id"),
    ("fig1-t", {"form.k": 100_000}, "form.k"),
    ("fig1-t", {"sweep.k": [100, 1001]}, "sweep.k[1]"),
]


def test_one_arm_jobs_hold_one_kernel_chunk_of_scans():
    # The whole curve at 2 components, 2 points at 101 and, across a7's k of
    # 5 to 200, 43/23/10/5/2/1: the job list, and so the bytes, depend on it.
    def steps(name):
        cfg = normalize_config(recipe_config(name))
        return [onearm._job_points(s) for s, _, _ in _curves(cfg)], len(cfg["sweep"]["bias"])

    assert steps("fig1") == ([131] * 6, 41)
    assert steps("fig1-t") == ([2, 2], 41)
    assert steps("a7-t-components") == ([43, 23, 10, 5, 2, 1], 17)


@pytest.mark.parametrize("bias", [[0.1, 0.0], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1]],
                         ids=["reversed", "shuffled", "repeated"])
def test_sweet_spot_biases_must_increase(bias, tmp_path, capsys):
    cfg = mutated("fig8", {"sweep.bias": bias})
    error = "sweep.bias: sweet-spot scans need strictly increasing biases"
    assert check_config(cfg) == [error]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert error in capsys.readouterr().out
    # A grid of another kind may run in any order.
    assert check_config(mutated("tiny", {"sweep.bias": bias})) == []


@pytest.mark.parametrize("base,changes,fragment", RULES)
def test_each_rule_names_its_field(base, changes, fragment):
    cfg = mutated(base, changes)
    errors = check_config(cfg)
    if fragment is None:
        assert errors == []
        return
    assert any(fragment in e for e in errors), errors
    with pytest.raises(ConfigError):
        normalize_config(cfg)


def test_top_level_must_be_an_object():
    assert check_config([]) == ["config: top level must be a JSON object"]


# Output names under which a run would lose a result file: two files under
# one name, ignoring case as a case-insensitive filesystem does, a file
# under config.json's name, or a name outside the run directory, which
# could fail only after the sweep: (output changes, the error).
_BAD_OUTPUT = [
    ({"csv": "same.txt", "json": "same.txt"}, "output.json: must differ from output.csv"),
    ({"json": "config.json"}, "output.json: must differ from config.json"),
    ({"meta": "Results.CSV"}, "output.meta: must differ from output.csv"),
    ({"summary": "CONFIG.JSON"}, "output.summary: must differ from config.json"),
    *(({"json": name}, "output.json: must be a non-empty file name")
      for name in ["sub/r.json", "..", ".", "/tmp/r.json", "r\0.json", ""]),
]


@pytest.mark.parametrize("output,error", _BAD_OUTPUT)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_output_names_are_distinct_plain_file_names(tmp_path, capsys, command, output, error):
    cfg = tiny_grid_config(output=output)
    assert [e for e in check_config(cfg) if e.startswith(error)], check_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, "--config", str(path), *out]) == 2
    captured = capsys.readouterr()
    assert f"invalid: {error}" in (captured.err if command == "run" else captured.out)
    assert not (tmp_path / "o").exists()


def test_dots_and_case_are_fine_in_distinct_names():
    output = {"csv": ".r.csv", "json": "r..json", "meta": "META.json", "summary": "Config.json.csv"}
    assert check_config(tiny_grid_config(output=output)) == []


@pytest.mark.parametrize("base,key,value", [
    ("fig10", "estimator", "exact"),
    ("fig8", "estimator", "mc"),
    ("fig2", "estimator", "exact"),
    ("table1", "sweep.bias", "junk"),
    ("fig10", "sweep.bias", [0.0, 0.5]),
    ("fig7", "rmp_weight", 0.5),
    ("fig7", "external_mean", 3.7),
    ("fig2", "rmse_true_mean", 0.0),
])
def test_keys_are_rejected_where_they_do_not_apply(base, key, value):
    errors = check_config(mutated(base, {key: value}))
    assert any(e.startswith(f"{key}: only applies to") for e in errors), errors


def test_normalize_does_not_touch_its_input():
    cfg = recipe_config("a2-sample-size")
    before = copy.deepcopy(cfg)
    out = normalize_config(cfg)
    assert cfg == before
    assert out["sweep"]["sample_sizes"][0] == {"n": 10, "n_ext": 15}
    out["sweep"]["w"].append(0.9)
    assert cfg == before


_PATHS = [
    "schema_version", "kind", "trial", "scenario_id", "seed", "reps", "alpha",
    "sigma", "n_ext", "external_mean", "estimator", "form", "n", "null_mean",
    "alt_mean", "rmse_true_mean", "n_t", "n_c", "effect", "treatment_prior",
    "control_mean", "rmp_weight", "sweep", "metrics", "output", "junk",
    "form.kind", "form.df", "form.scale", "form.k",
    "sweep.location", "sweep.w", "sweep.n_robust", "sweep.robust_variance",
    "sweep.k", "sweep.scale", "sweep.bias", "sweep.sample_sizes", "sweep.deltas",
    "sweep.analysis_shift", "sweep.design_priors", "sweep.junk",
    "output.csv", "output.junk",
]
_WORDS = [
    "grid", "bimodality", "sweet-spot", "table", "average", "one-arm", "hybrid",
    "normal", "student_t", "mc", "exact", "flat", "unit_info_at_external_mean",
    "external_mean", "null_boundary", "current_mean", "informative", "rmp",
    "unit_info", "tie", "power", "rmse", "obm", "w_tilde", "x", "",
]
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 120),
    st.floats(-3.0, 120.0), st.sampled_from([float("nan"), float("inf"), 0.5, 2.5]),
    st.sampled_from(_WORDS),
)
_values = st.one_of(
    st.just(_DEL), _scalars, st.lists(_scalars, max_size=4),
    st.sampled_from([
        {}, {"kind": "student_t"}, {"kind": "normal"}, {"kind": "student_t", "df": 4.0},
        {"start": -1.0, "stop": 1.0, "step": 0.5}, {"start": 0.0, "stop": 1.0},
        {"start": 1.0, "stop": 0.0, "step": 0.5}, {"csv": "a.csv"}, {"n": 10},
        [{"n": 10}], [{"n_ext": 30}], [{"n_t": 5, "n_c": 7}], [{"n_t": 0}], [5],
    ]).map(copy.deepcopy),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(RECIPES)),
    st.dictionaries(st.sampled_from(_PATHS), _values, max_size=3),
)
def test_check_and_normalize_agree_on_mutated_recipes(name, changes):
    cfg = mutated(name, changes)
    before = repr(cfg)
    errors = check_config(cfg)
    assert isinstance(errors, list)
    try:
        out = normalize_config(cfg)
    except ConfigError as exc:
        assert errors and exc.errors == errors
    else:
        assert errors == []
        assert normalize_config(json.loads(json.dumps(out))) == out
    assert repr(cfg) == before


# One small sweep of every kind, and of grid and table under both
# estimators: (base, changes, the Monte Carlo fields each cell computes).
_SMALL = {"reps": 500, "sweep.location": ["current_mean"], "sweep.n_robust": [1.0],
          "sweep.w": [0.5]}
_BIAS = {**_SMALL, "sweep.bias": [0.0, 0.5]}
COST_CASES = [
    ("tiny", _BIAS, {"tie", "w_tilde"}),
    ("tiny", {**_BIAS, "estimator": "exact", "metrics": ["tie", "power"]}, set()),
    ("fig1", {**_BIAS, "estimator": "exact"}, {"rmse_std", "w_tilde"}),
    ("fig1", {**_BIAS, "metrics": ["obm"]}, set()),
    ("fig7", {**_BIAS, "metrics": ["power_calibrated"]}, {"tie", "power"}),
    ("fig7", {**_BIAS, "estimator": "exact", "metrics": ["w_tilde", "power_calibrated"]},
     {"w_tilde"}),
    ("fig2", _BIAS, set()),
    ("fig8", _BIAS, set()),
    ("table1", {**_SMALL, "sweep.deltas": [0.1]}, {"tie", "power"}),
    ("table1", {**_SMALL, "sweep.deltas": [0.1], "estimator": "exact"}, set()),
    ("fig10", {**_SMALL, "sweep.analysis_shift": [0.0, 0.5], "sweep.design_priors": ["rmp"]},
     {"tie", "power"}),
]


@pytest.mark.parametrize("base,changes,mc", COST_CASES)
def test_cost_estimate_counts_what_the_run_does(base, changes, mc):
    cfg = normalize_config(mutated(base, changes))
    res = run_config(cfg, threads=2)
    cells, draws = cost_estimate(cfg)
    assert (cells, draws) == (len(res.rows), 500 * len(mc) * len(res.rows))
    assert (res.meta["cells"], res.meta["mc_draws"]) == (cells, draws)
    # A row carries the replication count exactly when it holds a Monte
    # Carlo number (the calibrated power rests on the Monte Carlo TIE).
    assert {r.reps for r in res.rows} == {500 if mc else 0}
    shown = mc if "power_calibrated" not in cfg.get("metrics", ()) else mc - {"tie", "power"}
    assert all(getattr(r, f) is not None for r in res.rows for f in shown)


class TestSweepEngine:
    def test_rows_follow_the_enumeration_order(self):
        res = run_config(tiny_grid_config(), threads=2)
        assert len(res.rows) == 12
        assert [r.bias for r in res.rows[:3]] == [-0.5, 0.0, 0.5]
        assert res.rows[0].location == "external_mean"
        assert res.rows[-1].location == "current_mean"
        assert all(r.tie is not None and r.w_tilde is not None for r in res.rows)
        assert all(r.power is None and r.obm is None for r in res.rows)

    def test_thread_count_does_not_change_results(self):
        a = run_config(tiny_grid_config(), threads=1).rows
        b = run_config(tiny_grid_config(), threads=7).rows
        assert a == b

    @pytest.mark.parametrize("recipe,curves", [("fig7", 6), ("table1", 8), ("fig10", 18)])
    def test_hybrid_rows_and_solves_do_not_depend_on_threads(self, monkeypatch, recipe, curves):
        # A hybrid Monte Carlo curve is one job with one threshold solve, on
        # any number of threads (fig7 also calibrates by Gauss-Hermite).
        solve = hybrid._threshold_brackets
        solves = []

        def counting(s, bank, biases, yc, stop=None):
            if stop is not None:
                solves.append(len(biases))
            return solve(s, bank, biases, yc, stop)

        monkeypatch.setattr(hybrid, "_threshold_brackets", counting)
        cfg = {**recipe_config(recipe), "reps": 2000}
        rows = {}
        for threads in (1, 3):
            solves.clear()
            rows[threads] = run_config(cfg, threads=threads).rows
            assert len(solves) == curves
        assert rows[1] == rows[3]

    def test_calibration_takes_the_worse_of_grid_and_probe_ties(self, monkeypatch):
        # Each fig7 curve calibrates at the worst of its grid TIEs and the
        # exact TIEs at the far-out probe pair, run as pool jobs; a normal
        # robust component at the external mean takes level 1 and no probe.
        oc_curve = hybrid.oc_curve
        probed = []

        def recording(s, biases, **kw):
            if kw.get("exact"):
                probed.append(s)
            return oc_curve(s, biases, **kw)

        monkeypatch.setattr(hybrid, "oc_curve", recording)
        cfg = normalize_config({**recipe_config("fig7"), "reps": 2000})
        rows = {}
        for threads in (1, 2):
            probed.clear()
            rows[threads] = run_config(cfg, threads=threads).rows
            assert len(probed) == 3
            assert not any(isinstance(s.prior.location, ExternalMean) for s in probed)
        assert [r.power_calibrated for r in rows[1]] == [r.power_calibrated for r in rows[2]]

        n = len(cfg["sweep"]["bias"])
        levels = []
        for c, (s, _, _) in enumerate(_curves(cfg)):
            chunk = rows[2][c * n:(c + 1) * n]
            if isinstance(s.prior.location, ExternalMean) and isinstance(s.prior.form, Normal):
                level = 1.0
            else:
                probe = sweep._CALIBRATION_PROBE_SD_EXT * s.sd_ext
                probe_ties = oc_curve(s, (-probe, probe), exact=True, rates=("tie",))[0]
                level = max([r.tie for r in chunk] + probe_ties)
            levels.append(level)
            assert {r.power_calibrated for r in chunk} == {hybrid.calibrated_power_no_borrowing(level, s)}
        assert levels.count(1.0) == 3 and all(0.0 < v < 1.0 for v in levels if v != 1.0)

    def test_seed_changes_results(self):
        a = run_config(tiny_grid_config(), threads=2).rows
        b = run_config(tiny_grid_config(seed=5), threads=2).rows
        assert a != b

    def test_exact_estimator_marks_rows_deterministic(self):
        cfg = tiny_grid_config(estimator="exact")
        cfg["metrics"] = ["tie", "power"]
        res = run_config(cfg, threads=2)
        assert all(r.reps == 0 for r in res.rows)
        assert res.meta["mc_draws"] == 0

    def test_exact_estimator_keeps_reps_on_monte_carlo_metrics(self):
        # RMSE and the mean weight stay Monte Carlo under the exact estimator.
        cfg = recipe_config("fig1")
        cfg.update(estimator="exact", reps=1000)
        cfg["sweep"].update(location=["external_mean"], w=[0.5], bias=[0.0, 0.5])
        res = run_config(cfg, threads=2)
        assert all(r.reps == 1000 and r.rmse_std > 0 and r.w_tilde > 0 for r in res.rows)
        assert res.meta["mc_draws"] == 2 * 2 * 1000  # two cells, rmse and w_tilde

    def test_written_rows_are_the_rows_as_dicts(self, tmp_path):
        # results.json and results.csv hold what dataclasses.asdict gave, key
        # order included, for None values and numpy floats alike.
        rows = [
            OCRow("a", "one-arm", "external_mean", "normal", None, 0.5, np.float64(-0.1),
                  tie=np.float64(0.025), w_tilde=0.3, reps=5000, seed=1),
            OCRow("b", "hybrid", "current_mean", "t(df=3,scale=1,k=100)", np.float64(1.0), 0.25,
                  0.0, power=1.0, power_calibrated=np.float64(0.5), obm=None),
        ]
        write_outputs(SweepResult(rows, {}, {}), tiny_grid_config(), tmp_path)
        written = json.loads((tmp_path / "results.json").read_text())["rows"]
        expected = json.loads(json.dumps([asdict(r) for r in rows], default=float))
        assert written == expected
        assert [list(r) for r in written] == [list(asdict(r)) for r in rows]
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[:8] == ["a", "one-arm", "external_mean", "normal", "", "0.5",
                                           "-0.10000000000000001", "0.025000000000000001"]

    def test_table_kind_produces_summary(self):
        cfg = {
            "schema_version": 1,
            "kind": "table",
            "trial": "hybrid",
            "scenario_id": "tiny-table",
            "seed": 7,
            "estimator": "exact",
            "n_t": 20,
            "n_c": 20,
            "n_ext": 15,
            "effect": 0.83,
            "sweep": {
                "location": ["external_mean"],
                "n_robust": [1.0],
                "w": [0.5],
                "deltas": [0.1],
            },
        }
        res = run_config(cfg, threads=2)
        assert len(res.rows) == 41
        (entry,) = res.extras["delta_summary"]
        assert entry["max_tie_pct"] == pytest.approx(2.38, abs=0.05)
        assert entry["max_power_gain_pct"] == pytest.approx(9.88, abs=0.2)


def _payload(rows, extras):
    return {"schema_version": 1, "scenario_id": "x", "kind": "grid", "trial": "hybrid",
            "rows": rows, "extras": extras}


# Strings that look like the joins the encoder rewrites, or need escaping.
_TRICKY = ["},\n   {", "},\n  {\n   ", "}, {", "}]", '"', "\\", "\n", "\t", "\x00\x1f\x7f",
           "é", "\u2603", "\U0001f600", "\ud800"]
_TEXT = st.one_of(st.text(max_size=8), st.lists(st.sampled_from(_TRICKY), max_size=3).map("".join))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
_ROWS = st.lists(st.dictionaries(_TEXT, _SCALAR, max_size=6), max_size=5)


class TestResultsJson:
    """results.json is byte for byte what ``json.dump(indent=1)`` writes
    (``oracles.results_json``)."""

    _BIAS = [-0.5, 0.0, 0.5]

    def test_the_header_is_the_fixed_contract(self):
        assert CSV_COLUMNS == HEADER

    @pytest.mark.parametrize("recipe,changes", [
        ("fig1", {"metrics": ["tie", "power", "rmse", "w_tilde"],
                  "sweep": {"location": ["external_mean"], "n_robust": [1.0], "w": [0.5], "bias": _BIAS}}),
        ("fig7", {"sweep": {"location": ["external_mean", "current_mean"], "n_robust": [1.0],
                            "w": [0.5], "bias": _BIAS}}),
        ("table1", {"sweep": {"location": ["current_mean"], "n_robust": [1.0], "w": [0.5],
                              "deltas": [0.1, 0.2]}}),
        ("fig8", {"sweep": {"location": ["current_mean"], "n_robust": [1.0], "w": [0.0, 0.5],
                            "bias": {"start": -1.0, "stop": 1.0, "step": 0.25}}}),
        ("fig2", {"sweep": {"location": ["current_mean"], "n_robust": [1.0], "w": [0.25, 0.5],
                            "bias": _BIAS}}),
        ("fig10", {"sweep": {"location": ["external_mean"], "n_robust": [1.0], "w": [0.5],
                             "design_priors": ["informative", "rmp"], "analysis_shift": [0.0, 0.5]}}),
    ])
    def test_every_kind_writes_what_json_dump_writes(self, tmp_path, recipe, changes):
        cfg = recipe_config(recipe)
        cfg.update({k: v for k, v in changes.items() if k != "sweep"}, reps=500)
        cfg["sweep"].update(changes["sweep"])
        cfg = normalize_config(cfg)
        res = run_config(cfg, threads=2)
        write_outputs(res, cfg, tmp_path)
        expected = oracles.results_json({
            "schema_version": cfg["schema_version"], "scenario_id": cfg["scenario_id"],
            "kind": cfg["kind"], "trial": cfg["trial"],
            "rows": [vars(r) for r in res.rows], "extras": res.extras,
        })
        assert (tmp_path / "results.json").read_text() == expected
        assert all(tuple(row) == HEADER for row in json.loads(expected)["rows"])
        assert (tmp_path / "results.csv").read_text().splitlines()[0] == ",".join(HEADER)
        if recipe == "fig8":  # an empty spot's nulls and the bools
            spots = res.extras["sweet_spots"]
            assert spots[0]["empty"] is True and spots[0]["lower"] is None
            assert spots[1]["empty"] is False and spots[1]["contiguous"] is True

    @settings(max_examples=300, deadline=None)
    @given(rows=_ROWS, entries=_ROWS)
    def test_flat_rows_encode_as_json_dump_does(self, rows, entries):
        payload = _payload(rows, {"sweet_spots": entries, "empty": []})
        assert sweep._json_text(payload) + "\n" == oracles.results_json(payload)

    @pytest.mark.parametrize("n", [sweep._JSON_BATCH - 1, sweep._JSON_BATCH, sweep._JSON_BATCH + 1,
                                   2 * sweep._JSON_BATCH + 1])
    def test_rows_across_encoder_batches_encode_as_json_dump_does(self, n):
        rows = [{"i": i, "s": _TRICKY[i % len(_TRICKY)], "x": 0.1 * i, "b": i % 2 == 0, "n": None}
                for i in range(n)]
        payload = _payload(rows, {"sweet_spots": rows[:n // 2 + 1]})
        assert sweep._json_text(payload) + "\n" == oracles.results_json(payload)

    @pytest.mark.parametrize("payload", [
        _payload([], {}),
        _payload([], {"delta_summary": []}),
        _payload([{"a": 1}, {}], {"s": [{}]}),
        _payload([{"a": [1, {"b": 2}], "c": {"d": [], "e": {"f": None}}}, {"a": 1}], {"s": {"t": [{"u": 1}]}}),
        _payload([{"a": (1, 2)}], {1: [{"x": 0.5}], "s": [[{"y": 1}]]}),
    ], ids=["empty", "empty-extras-list", "empty-dicts", "nested", "tuples-and-int-keys"])
    def test_edge_payloads_encode_as_json_dump_does(self, payload):
        assert sweep._json_text(payload) + "\n" == oracles.results_json(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")])
    @pytest.mark.parametrize("where", ["rows", "extras"])
    def test_nan_and_inf_raise_from_both_writers(self, bad, where):
        good = [{"tie": 0.5}, {"tie": 0.25}]
        payload = _payload([*good, {"tie": bad}], {}) if where == "rows" else _payload(good, {"s": [{"m": bad}]})
        with pytest.raises(ValueError):
            sweep._json_text(payload)
        with pytest.raises(ValueError):
            oracles.results_json(payload)

    @pytest.mark.parametrize("bad,error", [(math.nan, ValueError), (math.inf, ValueError), (1j, TypeError)])
    def test_a_row_json_cannot_hold_writes_no_file(self, tmp_path, bad, error):
        rows = [OCRow("a", "one-arm", "external_mean", "normal", 1.0, 0.5, 0.0, tie=0.025, reps=5000),
                OCRow("a", "one-arm", "external_mean", "normal", 1.0, 0.5, 0.5, tie=bad, reps=5000)]
        out = tmp_path / "out"
        result = SweepResult(rows, {}, {"cells": 2})
        with pytest.raises(error):
            write_outputs(result, tiny_grid_config(), out)
        assert not out.exists()
        out.mkdir()  # an existing directory stays empty, config.json included
        with pytest.raises(error):
            write_outputs(result, tiny_grid_config(), out)
        assert os.listdir(out) == []


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_recipes_command_lists_table1(self, capsys):
        assert self.run_cli("recipes") == 0
        out = capsys.readouterr().out
        assert "table1" in out
        for name in RECIPES:
            assert name in out

    def test_closed_stdout_ends_quietly(self):
        # A reader that has gone, as ``recipes | head -n 1`` leaves one. When
        # head closes is a race, so here the read end is closed before the
        # child writes at all: every write meets a broken pipe. The command
        # still exits 0 with nothing on stderr.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "borrowsim.cli", "recipes"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr

    def test_every_recipe_has_one_valid_template(self):
        assert len(set(RECIPES)) == len(RECIPES)
        for name in RECIPES:
            cfg = recipe_config(name)
            assert check_config(cfg) == [], name
        assert "table1" in list_recipes()

    def test_validate_ok_prints_cell_count(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        assert self.run_cli("validate", "--config", str(path)) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "cells: 12" in out

    def test_validate_bad_field_nonzero_exit(self, tmp_path, capsys):
        cfg = tiny_grid_config()
        cfg["sweep"]["w"] = [1.2]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate", "--config", str(path)) == 2
        assert "sweep.w[0]" in capsys.readouterr().out

    def test_run_reports_invalid_fields_on_stderr(self, tmp_path, capsys):
        cfg = tiny_grid_config()
        cfg["sweep"]["w"] = [1.2]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert "invalid: sweep.w[0]" in captured.err and "invalid" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_run_walks_the_schema_once(self, tmp_path, monkeypatch):
        from borrowsim import config

        walks = []
        walk = config._walk
        monkeypatch.setattr(config, "_walk", lambda cfg: walks.append(cfg) or walk(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config(reps=2000)))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 0
        assert len(walks) == 1
        written = json.loads((tmp_path / "o" / "config.json").read_text())
        assert normalize_config(written) == written

    def test_library_writes_the_config_the_cli_wrote(self, tmp_path):
        # config.json is json.dump(cfg, indent=1) of the normalized config and
        # a newline, whether the CLI or a library caller writes the run.
        cfg = tiny_grid_config(reps=2000)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "cli")) == 0
        write_outputs(run_config(cfg, threads=2), cfg, tmp_path / "lib")
        text = (tmp_path / "lib" / "config.json").read_bytes()
        assert text == (json.dumps(normalize_config(cfg), indent=1) + "\n").encode()
        assert text == (tmp_path / "cli" / "config.json").read_bytes()

    @pytest.mark.parametrize("base,changes,count", [
        ("tiny", {}, 4),
        ("table1", {"reps": 200, "sweep.location": ["current_mean"], "sweep.w": [0.5],
                    "sweep.deltas": [0.1]}, 5),
    ], ids=["grid", "table"])
    def test_every_written_file_is_returned_and_reported(self, tmp_path, capsys, base, changes, count):
        cfg = mutated(base, changes)
        written = write_outputs(run_config(cfg, threads=2), cfg, tmp_path / "lib")
        assert sorted(written) == sorted(str(tmp_path / "lib" / f) for f in os.listdir(tmp_path / "lib"))
        assert len(written) == count and written[-1].endswith("config.json")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "cli")) == 0
        wrote = capsys.readouterr().out.splitlines()[-1].partition(": wrote ")[2].split(", ")
        assert sorted(wrote) == sorted(str(tmp_path / "cli" / f) for f in os.listdir(tmp_path / "cli"))
        assert len(wrote) == count

    def test_missing_seed_fails_validation(self, tmp_path, capsys):
        cfg = tiny_grid_config()
        del cfg["seed"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate", "--config", str(path)) == 2

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(SystemExit) as exc:
            self.run_cli("validate", "--config", str(path))
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_file_that_is_not_utf8_fails_in_one_line(self, tmp_path, command):
        # It used to end in a UnicodeDecodeError traceback.
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"a":1}')
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, "--config", str(path), *out)
        assert str(exc.value) == f"error: {path} is not UTF-8 text (byte 0): invalid start byte"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"fig7"', "null"])
    def test_a_non_object_file_fails_in_one_line(self, tmp_path, command, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, "--config", str(path), *out)
        assert str(exc.value) == f"error: {path} is not a JSON object of scenario fields"
        assert not (tmp_path / "o").exists()

    def test_run_writes_all_outputs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        out_dir = tmp_path / "out"
        rc = self.run_cli("run", "--config", str(path), "--out", str(out_dir), "--threads", "2")
        assert rc == 0
        for name in ("results.csv", "results.json", "meta.json", "config.json"):
            assert (out_dir / name).exists()
        header = (out_dir / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(HEADER)
        payload = json.loads((out_dir / "results.json").read_text())
        assert len(payload["rows"]) == 12
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["seed"] == 424242

    def test_csv_bytes_identical_across_thread_counts(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        outputs = []
        for threads, name in ((1, "a"), (6, "b")):
            rc = self.run_cli(
                "run", "--config", str(path), "--out", str(tmp_path / name),
                "--threads", str(threads),
            )
            assert rc == 0
            outputs.append((tmp_path / name / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_default_to_one_per_core(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "all")) == 0
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "one"),
                            "--threads", "1") == 0
        meta = json.loads((tmp_path / "all" / "meta.json").read_text())
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert meta["threads"] == cores
        assert (tmp_path / "all" / "results.csv").read_bytes() == (
            tmp_path / "one" / "results.csv").read_bytes()

    def test_flag_overrides_reps_and_seed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        rc = self.run_cli(
            "run", "--config", str(path), "--out", str(tmp_path / "o"),
            "--reps", "2000", "--seed", "99",
        )
        assert rc == 0
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        assert meta["reps"] == 2000 and meta["seed"] == 99

    def test_env_overrides_config_but_not_flags(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        monkeypatch.setenv("OC_SEED", "111")
        monkeypatch.setenv("OC_REPS", "3000")
        rc = self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "e"))
        assert rc == 0
        meta = json.loads((tmp_path / "e" / "meta.json").read_text())
        assert meta["seed"] == 111 and meta["reps"] == 3000
        rc = self.run_cli(
            "run", "--config", str(path), "--out", str(tmp_path / "f"), "--seed", "222"
        )
        meta = json.loads((tmp_path / "f" / "meta.json").read_text())
        assert meta["seed"] == 222 and meta["reps"] == 3000

    @pytest.mark.parametrize("env", ["OC_SEED", "OC_REPS"])
    def test_a_malformed_env_override_exits_2(self, tmp_path, capsys, monkeypatch, env):
        # It used to exit 1, while OC_REPS=0 and --reps abc exit 2.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_grid_config()))
        monkeypatch.setenv(env, "abc")
        assert self.run_cli("validate", "--config", str(path)) == 2
        assert f"invalid: {env}: must be an integer, got 'abc'" in capsys.readouterr().out
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert f"invalid: {env}: must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_calibrated_grid_whose_every_tie_is_0_runs(self, tmp_path):
        # A robust component of precision 1e4 at the null: no draw rejects,
        # nor does the exact route at the probes, so the calibration level
        # is 0. It used to fail after the whole sweep, writing nothing.
        cfg = tiny_grid_config(reps=2000, metrics=["tie", "power_calibrated"], sweep={
            "location": ["null_boundary"], "n_robust": [10000], "w": [0.0], "bias": [0.0, 0.5]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 0
        rows = list(csv.DictReader((tmp_path / "o" / "results.csv").read_text().splitlines()))
        assert [(r["tie"], r["power_calibrated"]) for r in rows] == [("0", "0")] * 2

    def test_run_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli("run", "--out", str(tmp_path))

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2_at_parsing(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--recipe", "a2-sample-size", "--out", str(tmp_path / "o"),
                         "--threads", threads)
        assert exc.value.code == 2
        assert "--threads: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_recipe_by_name(self, tmp_path):
        rc = self.run_cli(
            "run", "--recipe", "table1", "--out", str(tmp_path / "t"),
            "--reps", "2000", "--threads", "4",
        )
        assert rc == 0
        assert (tmp_path / "t" / "summary.csv").exists()
        lines = (tmp_path / "t" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("delta,location,")
        assert len(lines) == 1 + 8  # 4 deltas x 2 locations

    def test_validate_then_run_never_fails_midway(self, tmp_path):
        cfg = tiny_grid_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate", "--config", str(path)) == 0
        assert self.run_cli("run", "--config", str(path), "--out", str(tmp_path / "r")) == 0
