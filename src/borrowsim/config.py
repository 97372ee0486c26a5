"""Scenario-file schema: validation, normalization and cost estimates.

A scenario file is a single JSON document with an explicit schema
version. Validation is strict: unknown keys are rejected and every
violation names the offending field. ``check_config`` reports all
problems at once; ``normalize_config`` fills defaults and expands grid
shorthands so the sweep engine sees one canonical shape.
"""

from __future__ import annotations

import math

import numpy as np

SCHEMA_VERSION = 1

KINDS = ("grid", "bimodality", "sweet-spot", "table", "average")
TRIALS = ("one-arm", "hybrid")
LOCATIONS = ("external_mean", "null_boundary", "current_mean")
TREATMENT_PRIORS = ("flat", "unit_info_at_external_mean")
DESIGN_PRIORS = ("informative", "rmp", "unit_info")
METRICS_ONE_ARM = ("tie", "power", "power_calibrated", "rmse", "w_tilde", "obm")
METRICS_HYBRID = ("tie", "power", "power_calibrated", "w_tilde")
ESTIMATORS = ("mc", "exact")

_COMMON_KEYS = {
    "schema_version", "kind", "trial", "scenario_id", "seed", "reps",
    "alpha", "sigma", "n_ext", "external_mean", "form", "sweep",
    "metrics", "output", "estimator",
}
_ONE_ARM_KEYS = {"n", "null_mean", "alt_mean", "rmse_true_mean"}
_HYBRID_KEYS = {"n_t", "n_c", "effect", "treatment_prior", "control_mean", "rmp_weight"}
_SWEEP_KEYS = {
    "location", "w", "n_robust", "robust_variance", "k", "scale",
    "bias", "sample_sizes", "deltas", "analysis_shift", "design_priors",
}
_FORM_KEYS = {"kind", "df", "scale", "k"}
_OUTPUT_KEYS = {"csv", "json", "meta", "summary"}


class ConfigError(ValueError):
    """Validation failure; ``errors`` lists every offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_values(value, field, errors):
    """Expand a list or {start, stop, step} shorthand into floats."""
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "step"}
        if unknown:
            errors.append(f"{field}: unknown keys {sorted(unknown)}")
            return []
        missing = {"start", "stop", "step"} - set(value)
        if missing:
            errors.append(f"{field}: missing keys {sorted(missing)}")
            return []
        start, stop, step = value["start"], value["stop"], value["step"]
        if not all(_is_num(v) for v in (start, stop, step)) or step <= 0 or stop < start:
            errors.append(f"{field}: need finite start <= stop and step > 0")
            return []
        pts = np.arange(start, stop + 0.5 * step, step)
        return [float(round(p, 12)) for p in pts]
    if isinstance(value, list):
        if not value:
            errors.append(f"{field}: must be non-empty")
            return []
        out = []
        for i, v in enumerate(value):
            if not _is_num(v):
                errors.append(f"{field}[{i}]: must be a finite number")
                return []
            out.append(float(v))
        return out
    errors.append(f"{field}: must be a list or a start/stop/step object")
    return []


def check_config(cfg) -> list[str]:
    """All schema and invariant violations; empty means valid."""
    errors: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: top level must be a JSON object"]

    if cfg.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version: must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    kind = cfg.get("kind")
    if kind not in KINDS:
        errors.append(f"kind: must be one of {KINDS}, got {kind!r}")
        return errors
    trial = cfg.get("trial")
    if trial not in TRIALS:
        errors.append(f"trial: must be one of {TRIALS}, got {trial!r}")
        return errors

    if kind == "bimodality" and trial != "one-arm":
        errors.append("kind: bimodality maps are defined for one-arm trials")
    if kind in ("sweet-spot", "table", "average") and trial != "hybrid":
        errors.append(f"kind: {kind} is defined for hybrid trials")

    allowed = _COMMON_KEYS | (_ONE_ARM_KEYS if trial == "one-arm" else _HYBRID_KEYS)
    unknown = set(cfg) - allowed
    if unknown:
        errors.append(f"config: unknown keys {sorted(unknown)}")

    if not isinstance(cfg.get("scenario_id"), str) or not cfg.get("scenario_id"):
        errors.append("scenario_id: required non-empty string")
    if not _is_int(cfg.get("seed")):
        errors.append("seed: required integer (set in the file, via --seed, or OC_SEED)")
    reps = cfg.get("reps", 1_000_000)
    if not (_is_int(reps) and reps >= 1):
        errors.append(f"reps: must be an integer >= 1, got {reps!r}")
    alpha = cfg.get("alpha", 0.025)
    if not (_is_num(alpha) and 0.0 < alpha < 1.0):
        errors.append(f"alpha: must be in (0, 1), got {alpha!r}")
    sigma = cfg.get("sigma", 1.0)
    if not (_is_num(sigma) and sigma > 0):
        errors.append(f"sigma: must be > 0, got {sigma!r}")
    if not (_is_int(cfg.get("n_ext")) and cfg["n_ext"] >= 1):
        errors.append("n_ext: required integer >= 1")
    if not _is_num(cfg.get("external_mean", 0.0)):
        errors.append("external_mean: must be a finite number")
    estimator = cfg.get("estimator", "mc")
    if estimator not in ESTIMATORS:
        errors.append(f"estimator: must be one of {ESTIMATORS}, got {estimator!r}")

    form = cfg.get("form", {"kind": "normal"})
    form_kind = None
    if not isinstance(form, dict):
        errors.append("form: must be an object")
    else:
        unknown = set(form) - _FORM_KEYS
        if unknown:
            errors.append(f"form: unknown keys {sorted(unknown)}")
        form_kind = form.get("kind")
        if form_kind not in ("normal", "student_t"):
            errors.append(f"form.kind: must be 'normal' or 'student_t', got {form_kind!r}")
        elif form_kind == "student_t":
            df = form.get("df", 3.0)
            scale = form.get("scale", 1.0)
            k = form.get("k", 100)
            if not (_is_num(df) and df > 2):
                errors.append(f"form.df: must be > 2, got {df!r}")
            if not (_is_num(scale) and scale > 0):
                errors.append(f"form.scale: must be > 0, got {scale!r}")
            if not (_is_int(k) and k >= 1):
                errors.append(f"form.k: must be an integer >= 1, got {k!r}")
        elif form_kind == "normal" and set(form) - {"kind"}:
            errors.append("form: df/scale/k only apply to the student_t form")

    if trial == "one-arm":
        if not (_is_int(cfg.get("n")) and cfg["n"] >= 1):
            errors.append("n: required integer >= 1")
        null_mean = cfg.get("null_mean", 0.0)
        if not _is_num(null_mean):
            errors.append("null_mean: must be a finite number")
        alt_mean = cfg.get("alt_mean", null_mean + 0.5 if _is_num(null_mean) else 0.5)
        if not _is_num(alt_mean) or not (_is_num(null_mean) and alt_mean > null_mean):
            errors.append("alt_mean: must be a finite number above null_mean")
        rmse_true = cfg.get("rmse_true_mean")
        if rmse_true is not None and not _is_num(rmse_true):
            errors.append("rmse_true_mean: must be a finite number or omitted")
    else:
        for key in ("n_t", "n_c"):
            if not (_is_int(cfg.get(key)) and cfg[key] >= 1):
                errors.append(f"{key}: required integer >= 1")
        if not (_is_num(cfg.get("effect")) and cfg["effect"] > 0):
            errors.append("effect: required number > 0")
        tp = cfg.get("treatment_prior", "flat")
        if tp not in TREATMENT_PRIORS:
            errors.append(f"treatment_prior: must be one of {TREATMENT_PRIORS}, got {tp!r}")
        if not _is_num(cfg.get("control_mean", 0.0)):
            errors.append("control_mean: must be a finite number")
        rmp_w = cfg.get("rmp_weight", 0.5)
        if not (_is_num(rmp_w) and 0.0 <= rmp_w <= 1.0):
            errors.append(f"rmp_weight: must be in [0, 1], got {rmp_w!r}")

    sweep = cfg.get("sweep", {})
    if not isinstance(sweep, dict):
        errors.append("sweep: must be an object")
        return errors
    unknown = set(sweep) - _SWEEP_KEYS
    if unknown:
        errors.append(f"sweep: unknown keys {sorted(unknown)}")

    locations = sweep.get("location", ["external_mean"])
    if not isinstance(locations, list) or not locations:
        errors.append("sweep.location: must be a non-empty list")
    else:
        for i, loc in enumerate(locations):
            if loc not in LOCATIONS:
                errors.append(f"sweep.location[{i}]: must be one of {LOCATIONS}, got {loc!r}")
            elif loc == "null_boundary" and trial == "hybrid":
                errors.append(
                    "sweep.location: null_boundary is not available in hybrid trials"
                )

    w_required = kind != "bimodality"
    if "w" in sweep or w_required:
        ws = sweep.get("w")
        if not isinstance(ws, list) or not ws:
            errors.append("sweep.w: must be a non-empty list")
        else:
            for i, w in enumerate(ws):
                if not (_is_num(w) and 0.0 <= w <= 1.0):
                    errors.append(f"sweep.w[{i}]: must be within [0, 1], got {w!r}")

    if form_kind == "student_t":
        for bad in ("n_robust", "robust_variance"):
            if bad in sweep:
                errors.append(f"sweep.{bad}: does not apply to the student_t form (use scale)")
        for key, cond in (("k", lambda v: _is_int(v) and v >= 1),
                          ("scale", lambda v: _is_num(v) and v > 0)):
            if key in sweep:
                vals = sweep[key]
                if not isinstance(vals, list) or not vals or not all(cond(v) for v in vals):
                    errors.append(f"sweep.{key}: must be a non-empty list of valid values")
    else:
        for bad in ("k", "scale"):
            if bad in sweep:
                errors.append(f"sweep.{bad}: only applies to the student_t form")
        if "n_robust" in sweep and "robust_variance" in sweep:
            errors.append("sweep: give n_robust or robust_variance, not both")
        for key in ("n_robust", "robust_variance"):
            if key in sweep:
                vals = sweep[key]
                if not isinstance(vals, list) or not vals or not all(
                    _is_num(v) and v > 0 for v in vals
                ):
                    errors.append(f"sweep.{key}: must be a non-empty list of numbers > 0")

    if kind in ("grid", "sweet-spot"):
        if "bias" not in sweep:
            errors.append("sweep.bias: required for this kind")
        else:
            vals = _grid_values(sweep["bias"], "sweep.bias", errors)
            if kind == "sweet-spot" and len(vals) < 2:
                errors.append("sweep.bias: sweet-spot scans need at least 2 points")
    elif kind == "bimodality" and "bias" in sweep:
        _grid_values(sweep["bias"], "sweep.bias", errors)

    if kind == "table":
        deltas = sweep.get("deltas")
        if not isinstance(deltas, list) or not deltas or not all(
            _is_num(d) and d > 0 for d in deltas
        ):
            errors.append("sweep.deltas: required non-empty list of numbers > 0")
    elif "deltas" in sweep:
        errors.append("sweep.deltas: only applies to kind 'table'")

    if kind == "average":
        if "analysis_shift" not in sweep:
            errors.append("sweep.analysis_shift: required for kind 'average'")
        else:
            _grid_values(sweep["analysis_shift"], "sweep.analysis_shift", errors)
        designs = sweep.get("design_priors")
        if not isinstance(designs, list) or not designs or not all(
            d in DESIGN_PRIORS for d in designs
        ):
            errors.append(
                f"sweep.design_priors: required non-empty list drawn from {DESIGN_PRIORS}"
            )
    else:
        for bad in ("analysis_shift", "design_priors"):
            if bad in sweep:
                errors.append(f"sweep.{bad}: only applies to kind 'average'")

    if "sample_sizes" in sweep:
        entries = sweep["sample_sizes"]
        keys = {"n", "n_ext"} if trial == "one-arm" else {"n_t", "n_c", "n_ext"}
        if not isinstance(entries, list) or not entries:
            errors.append("sweep.sample_sizes: must be a non-empty list of objects")
        else:
            for i, e in enumerate(entries):
                if not isinstance(e, dict) or set(e) - keys:
                    errors.append(
                        f"sweep.sample_sizes[{i}]: allowed keys are {sorted(keys)}"
                    )
                    continue
                for k2, v in e.items():
                    if not (_is_int(v) and v >= 1):
                        errors.append(
                            f"sweep.sample_sizes[{i}].{k2}: must be an integer >= 1"
                        )

    allowed_metrics = METRICS_ONE_ARM if trial == "one-arm" else METRICS_HYBRID
    metrics = cfg.get("metrics")
    if metrics is not None:
        if kind != "grid":
            errors.append("metrics: only applies to kind 'grid'")
        elif not isinstance(metrics, list) or not metrics:
            errors.append("metrics: must be a non-empty list")
        else:
            for i, m in enumerate(metrics):
                if m not in allowed_metrics:
                    errors.append(
                        f"metrics[{i}]: must be one of {allowed_metrics}, got {m!r}"
                    )
            if "obm" in metrics and form_kind == "student_t":
                errors.append("metrics: obm is defined for the normal robust form only")
    if kind == "bimodality" and form_kind == "student_t":
        errors.append("kind: bimodality maps need the normal robust form")

    output = cfg.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: must be an object")
    else:
        unknown = set(output) - _OUTPUT_KEYS
        if unknown:
            errors.append(f"output: unknown keys {sorted(unknown)}")
        for k2, v in output.items():
            if not isinstance(v, str) or not v:
                errors.append(f"output.{k2}: must be a non-empty file name")

    return errors


def normalize_config(cfg) -> dict:
    """Validated config with defaults filled and grids expanded."""
    errors = check_config(cfg)
    if errors:
        raise ConfigError(errors)
    out = dict(cfg)
    trial = out["trial"]
    kind = out["kind"]
    out.setdefault("reps", 1_000_000)
    out.setdefault("alpha", 0.025)
    out.setdefault("sigma", 1.0)
    out.setdefault("external_mean", 0.0)
    out.setdefault("estimator", "mc")
    form = dict(out.get("form", {"kind": "normal"}))
    if form["kind"] == "student_t":
        form.setdefault("df", 3.0)
        form.setdefault("scale", 1.0)
        form.setdefault("k", 100)
    out["form"] = form
    if trial == "one-arm":
        out.setdefault("null_mean", 0.0)
        out.setdefault("alt_mean", out["null_mean"] + 0.5)
        out.setdefault("rmse_true_mean", None)
    else:
        out.setdefault("treatment_prior", "flat")
        out.setdefault("control_mean", 0.0)
        out.setdefault("rmp_weight", 0.5)

    sigma = out["sigma"]
    sd_ext = sigma / math.sqrt(out["n_ext"])
    sweep = dict(out.get("sweep", {}))
    sweep.setdefault("location", ["external_mean"])
    if kind == "bimodality":
        sweep.setdefault("w", [round(0.01 * i, 10) for i in range(101)])
        sweep.setdefault(
            "bias", [round(i * sd_ext / 10.0, 12) for i in range(41)]
        )
    if form["kind"] == "normal":
        if "robust_variance" not in sweep:
            sweep.setdefault("n_robust", [1.0])
    else:
        sweep.setdefault("k", [form["k"]])
        sweep.setdefault("scale", [form["scale"]])
    for key in ("bias", "analysis_shift"):
        if key in sweep:
            sweep[key] = _grid_values(sweep[key], key, [])
    if trial == "one-arm":
        sweep.setdefault("sample_sizes", [{"n": out["n"], "n_ext": out["n_ext"]}])
        for e in sweep["sample_sizes"]:
            e.setdefault("n", out["n"])
            e.setdefault("n_ext", out["n_ext"])
    else:
        sweep.setdefault(
            "sample_sizes",
            [{"n_t": out["n_t"], "n_c": out["n_c"], "n_ext": out["n_ext"]}],
        )
        for e in sweep["sample_sizes"]:
            e.setdefault("n_t", out["n_t"])
            e.setdefault("n_c", out["n_c"])
            e.setdefault("n_ext", out["n_ext"])
    out["sweep"] = sweep

    if kind == "grid" and "metrics" not in out:
        out["metrics"] = ["tie", "power"] if trial == "hybrid" else ["tie"]

    output = dict(out.get("output", {}))
    output.setdefault("csv", "results.csv")
    output.setdefault("json", "results.json")
    output.setdefault("meta", "meta.json")
    output.setdefault("summary", "summary.csv")
    out["output"] = output
    return out


def _dispersion_axis(cfg) -> list[tuple[str, float]]:
    sweep = cfg["sweep"]
    if cfg["form"]["kind"] == "normal":
        if "robust_variance" in sweep:
            return [("robust_variance", v) for v in sweep["robust_variance"]]
        return [("n_robust", v) for v in sweep["n_robust"]]
    return [("k_scale", (k, sc)) for k in sweep["k"] for sc in sweep["scale"]]


def cost_estimate(cfg) -> tuple[int, int]:
    """(grid cells, Monte Carlo draws) implied by a normalized config."""
    sweep = cfg["sweep"]
    kind = cfg["kind"]
    base = (
        len(sweep["location"])
        * len(_dispersion_axis(cfg))
        * len(sweep.get("sample_sizes", [()]))
    )
    n_w = len(sweep.get("w", [1]))
    reps = cfg["reps"]
    if kind == "grid":
        cells = base * n_w * len(sweep["bias"])
        per_cell = sum(
            1 for m in cfg["metrics"] if m in ("tie", "power", "rmse", "w_tilde")
        )
        draws = cells * per_cell * (reps if cfg["estimator"] == "mc" else 0)
    elif kind in ("bimodality", "sweet-spot"):
        cells = base * n_w * len(sweep["bias"])
        draws = 0
    elif kind == "table":
        cells = base * n_w * len(sweep["deltas"]) * 41
        draws = cells * 2 * (reps if cfg["estimator"] == "mc" else 0)
    else:  # average
        cells = base * n_w * len(sweep["design_priors"]) * len(sweep["analysis_shift"])
        draws = cells * 2 * reps
    return cells, draws
