"""Scenario-file schema, and nothing else: one field table, read by
validation and normalization. What a valid file costs to run, and how its
cells are enumerated, belong to ``sweep``.

A scenario file is a single JSON document with an explicit schema
version. ``_FIELDS`` states the schema once, one row per dotted key
(``alpha``, ``form.df``, ``sweep.w``, ...): the rule a value must meet and
the text of the error when it does not, the default, the shape (a single
value, an object of further keys, a non-empty list whose every element
meets the rule, or a grid: such a list or a {start, stop, step} shorthand)
and the trials, kinds and robust forms the key applies to. A default is a
value, ``REQUIRED``, or a function of the fields resolved before it.

``_walk`` reads the rows in order over a deep copy of the input: it checks
each given value, expands grids, fills defaults, rejects a key whose row
does not apply to the file's trial, kind or form, and reports keys that no
row names as unknown. Once every field is valid, the few rules that span
fields run (``_cross_rules``). ``check_config`` returns the walk's errors,
all at once; ``normalize_config`` raises them as a ``ConfigError`` or
returns the walk's config, the one canonical shape the sweep engine reads.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import MAP_WEIGHTS, map_biases
from .priors import ExternalMean, NullBoundary, StudentT
from .scenarios import ALPHA, LOCATION_NAMES, REPS, TreatmentPrior

SCHEMA_VERSION = 1
REQUIRED = object()  # default of a key the file must give
_ABSENT = object()  # default of a key that stays out when not given
# Most points a {start, stop, step} grid may expand to: far above every
# recipe grid (the largest has 81), and checked before anything is allocated.
MAX_GRID_POINTS = 100_000

LOCATIONS = tuple(LOCATION_NAMES.values())
_ONE_ARM, _HYBRID = ("trial", ("one-arm",)), ("trial", ("hybrid",))
_NORMAL, _T = ("form", ("normal",)), ("form", ("student_t",))
_AVERAGE = ("kind", ("average",))
_SHAPE_TEXT = {
    "object": "must be an object",
    "list": "must be a non-empty list",
    "grid": "must be a non-empty list or a start/stop/step object",
}


class ConfigError(ValueError):
    """Validation failure; ``errors`` lists every offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _pos_int(x):
    return _is_int(x) and x >= 1


def _pos(x):
    return _is_num(x) and x > 0


def _name(x):
    return isinstance(x, str) and x != ""


def sample_size_keys(trial) -> tuple[str, ...]:
    """Keys of one ``sweep.sample_sizes`` entry; each one left out takes
    the top-level value of the same name."""
    return ("n", "n_ext") if trial == "one-arm" else ("n_t", "n_c", "n_ext")


@dataclass(frozen=True)
class _Field:
    key: str
    ok: object = None  # predicate, tuple of choices, or {trial: choices}
    text: str = ""  # error text; choices rows default to "must be one of ..."
    default: object = _ABSENT
    shape: str = "value"  # "value", "object", "list" or "grid"
    only: tuple = ()  # (axis, allowed values) pairs; axis is trial, kind or form


def _bimodality(grid):
    """Default of a bimodality-map axis; other kinds must give it."""
    return lambda c: grid(c) if c["kind"] == "bimodality" else REQUIRED


_FIELDS = (
    _Field("schema_version", (SCHEMA_VERSION,), f"must be {SCHEMA_VERSION}", REQUIRED),
    _Field("trial", ("one-arm", "hybrid"), default=REQUIRED),
    _Field("kind", {
        "one-arm": ("grid", "bimodality"),
        "hybrid": ("grid", "sweet-spot", "table", "average"),
    }, default=REQUIRED),
    _Field("scenario_id", _name, "must be a non-empty string", REQUIRED),
    _Field("seed", _is_int, "must be an integer (set in the file, via --seed, or OC_SEED)",
           REQUIRED),
    _Field("reps", _pos_int, "must be an integer >= 1", REPS),
    _Field("alpha", lambda v: _is_num(v) and 0.0 < v < 1.0, "must be in (0, 1)", ALPHA),
    _Field("sigma", _pos, "must be > 0", 1.0),
    _Field("n_ext", _pos_int, "must be an integer >= 1", REQUIRED),
    _Field("external_mean", _is_num, "must be a finite number", 0.0, only=(_AVERAGE,)),
    _Field("estimator", ("mc", "exact"), default="mc", only=(("kind", ("grid", "table")),)),
    _Field("form", default={"kind": "normal"}, shape="object"),
    _Field("form.kind", ("normal", "student_t"), default=REQUIRED),
    _Field("form.df", lambda v: _is_num(v) and v > 2, "must be > 2", StudentT.df, only=(_T,)),
    _Field("form.scale", _pos, "must be > 0", StudentT.scale, only=(_T,)),
    _Field("form.k", _pos_int, "must be an integer >= 1", StudentT.k, only=(_T,)),
    _Field("n", _pos_int, "must be an integer >= 1", REQUIRED, only=(_ONE_ARM,)),
    _Field("null_mean", _is_num, "must be a finite number", 0.0, only=(_ONE_ARM,)),
    _Field("alt_mean", _is_num, "must be a finite number",
           lambda c: c["null_mean"] + 0.5, only=(_ONE_ARM,)),
    _Field("rmse_true_mean", lambda v: v is None or _is_num(v),
           "must be a finite number or omitted", None, only=(_ONE_ARM, ("kind", ("grid",)))),
    _Field("n_t", _pos_int, "must be an integer >= 1", REQUIRED, only=(_HYBRID,)),
    _Field("n_c", _pos_int, "must be an integer >= 1", REQUIRED, only=(_HYBRID,)),
    _Field("effect", _pos, "must be a number > 0", REQUIRED, only=(_HYBRID,)),
    _Field("treatment_prior", tuple(t.value for t in TreatmentPrior),
           default=TreatmentPrior.FLAT.value, only=(_HYBRID,)),
    _Field("control_mean", _is_num, "must be a finite number", 0.0, only=(_HYBRID,)),
    _Field("rmp_weight", lambda v: _is_num(v) and 0.0 <= v <= 1.0, "must be in [0, 1]", 0.5,
           only=(_AVERAGE,)),
    _Field("sweep", default={}, shape="object"),
    _Field("sweep.location", {
        "one-arm": LOCATIONS,
        "hybrid": tuple(n for n in LOCATIONS if n != LOCATION_NAMES[NullBoundary]),
    }, default=[LOCATION_NAMES[ExternalMean]], shape="list"),
    _Field("sweep.w", lambda v: _is_num(v) and 0.0 <= v <= 1.0, "must be within [0, 1]",
           _bimodality(lambda c: list(MAP_WEIGHTS)), "list"),
    _Field("sweep.bias", _is_num, "must be a finite number",
           _bimodality(lambda c: map_biases(c["sigma"] / math.sqrt(c["n_ext"]))), "grid",
           (("kind", ("grid", "sweet-spot", "bimodality")),)),
    _Field("sweep.robust_variance", _pos, "must be > 0", shape="list", only=(_NORMAL,)),
    _Field("sweep.n_robust", _pos, "must be > 0",
           lambda c: _ABSENT if "robust_variance" in c["sweep"] else [1.0], "list", (_NORMAL,)),
    _Field("sweep.k", _pos_int, "must be an integer >= 1", lambda c: [c["form"]["k"]], "list",
           (_T,)),
    _Field("sweep.scale", _pos, "must be > 0", lambda c: [c["form"]["scale"]], "list", (_T,)),
    _Field("sweep.deltas", _pos, "must be > 0", REQUIRED, "list", (("kind", ("table",)),)),
    _Field("sweep.analysis_shift", _is_num, "must be a finite number", REQUIRED, "grid",
           (_AVERAGE,)),
    _Field("sweep.design_priors", ("informative", "rmp", "unit_info"), default=REQUIRED,
           shape="list", only=(_AVERAGE,)),
    _Field("sweep.sample_sizes", lambda v: isinstance(v, dict), "must be an object", [{}],
           "list"),
    _Field("metrics", {
        "one-arm": ("tie", "power", "power_calibrated", "rmse", "w_tilde", "obm"),
        "hybrid": ("tie", "power", "power_calibrated", "w_tilde"),
    }, default=lambda c: ["tie", "power"] if c["trial"] == "hybrid" else ["tie"],
           shape="list", only=(("kind", ("grid",)),)),
    _Field("output", default={}, shape="object"),
    _Field("output.csv", _name, "must be a non-empty file name", "results.csv"),
    _Field("output.json", _name, "must be a non-empty file name", "results.json"),
    _Field("output.meta", _name, "must be a non-empty file name", "meta.json"),
    _Field("output.summary", _name, "must be a non-empty file name", "summary.csv"),
)
# Rows whose value decides where later rows apply; an error in one ends the walk.
_AXES = ("trial", "kind", "form", "form.kind")
_PARTS = [f.key.rpartition(".") for f in _FIELDS]
_NAMES = {p: {n for q, _, n in _PARTS if q == p} for p, _, _ in _PARTS}  # container -> keys


def _rule(f, c):
    """Predicate and error text of row ``f`` in the resolved config ``c``."""
    ok = f.ok[c["trial"]] if isinstance(f.ok, dict) else f.ok
    if not isinstance(ok, tuple):
        return ok, f.text
    trials = f" in {c['trial']} trials" if isinstance(f.ok, dict) else ""
    return (lambda v: v in ok), f.text or f"must be one of {ok}{trials}"


def _span(v):
    """Points of a {start, stop, step} grid, none past stop, or the error
    text when it is malformed or would expand to more than ``MAX_GRID_POINTS``."""
    malformed = "need exactly start, stop and step, finite with start <= stop and step > 0"
    if set(v) != {"start", "stop", "step"}:
        return malformed
    start, stop, step = v["start"], v["stop"], v["step"]
    if not all(_is_num(x) for x in (start, stop, step)) or step <= 0 or stop < start:
        return malformed
    if (stop - start) / step + 1.0 > MAX_GRID_POINTS:
        return f"expands to more than {MAX_GRID_POINTS} points"
    points = np.arange(start, stop + 0.5 * step, step)
    return [float(round(p, 12)) for p in points[points <= stop + 1e-9 * step]]


def _check(f, box, name, c) -> list[str]:
    """Errors of the value given for row ``f``; expands a grid in place."""
    value = box[name]
    if f.shape == "object":
        return [] if isinstance(value, dict) else [f"{f.key}: {_SHAPE_TEXT['object']}"]
    ok, text = _rule(f, c)
    if f.shape == "value":
        return [] if ok(value) else [f"{f.key}: {text}, got {value!r}"]
    if f.shape == "grid" and isinstance(value, dict):
        value = _span(value)
        if isinstance(value, str):
            return [f"{f.key}: {value}"]
    if not isinstance(value, list) or not value:
        return [f"{f.key}: {_SHAPE_TEXT[f.shape]}"]
    errors = [f"{f.key}[{i}]: {text}, got {v!r}" for i, v in enumerate(value) if not ok(v)]
    if f.shape == "grid" and not errors:
        box[name] = [float(v) for v in value]
    return errors


def _inapplicable(f, c) -> str:
    """Where row ``f`` applies, when that excludes ``c``; else ''."""
    for axis, allowed in f.only:
        if (c["form"]["kind"] if axis == "form" else c[axis]) not in allowed:
            return f"{axis} " + " or ".join(repr(a) for a in allowed)
    return ""


def _cross_rules(c) -> list[str]:
    """Rules that span fields, on a config whose every field is valid;
    also completes each sample-size entry from the top-level sizes."""
    sweep, errors = c["sweep"], []
    if c["trial"] == "one-arm" and not c["alt_mean"] > c["null_mean"]:
        errors.append("alt_mean: must be above null_mean")
    if "n_robust" in sweep and "robust_variance" in sweep:
        errors.append("sweep: give n_robust or robust_variance, not both")
    if c["kind"] == "sweet-spot" and len(sweep["bias"]) < 2:
        errors.append("sweep.bias: sweet-spot scans need at least 2 points")
    elif c["kind"] == "sweet-spot" and not all(a < b for a, b in zip(sweep["bias"], sweep["bias"][1:])):
        errors.append("sweep.bias: sweet-spot scans need strictly increasing biases")
    if c["form"]["kind"] == "student_t" and c["kind"] == "bimodality":
        errors.append("kind: bimodality maps need the normal robust form")
    if c["form"]["kind"] == "student_t" and "obm" in c.get("metrics", ()):
        errors.append("metrics: obm is defined for the normal robust form only")
    keys = sample_size_keys(c["trial"])
    for i, entry in enumerate(sweep["sample_sizes"]):
        if set(entry) - set(keys):
            errors.append(f"sweep.sample_sizes[{i}]: allowed keys are {sorted(keys)}")
            continue
        errors += [f"sweep.sample_sizes[{i}].{k}: must be an integer >= 1"
                   for k, v in entry.items() if not _pos_int(v)]
        sweep["sample_sizes"][i] = {**entry, **{k: c[k] for k in keys if k not in entry}}
    return errors


def _fill(f, box, name, c, valid) -> list[str]:
    """Fill the default of row ``f`` into ``box``; a computed default reads
    other fields, so it runs only while every field so far is ``valid``."""
    value = f.default
    if callable(value):
        if not valid:
            return []
        value = value(c)
    if value is REQUIRED:
        return [f"{f.key}: required, {_SHAPE_TEXT.get(f.shape) or _rule(f, c)[1]}"]
    if value is not _ABSENT:
        box[name] = copy.deepcopy(value)
    return []


def _walk(cfg) -> tuple[list[str], dict | None]:
    """(errors, resolved config) from one pass of ``_FIELDS`` over a copy."""
    if not isinstance(cfg, dict):
        return ["config: top level must be a JSON object"], None
    out, errors = copy.deepcopy(cfg), []
    for f in _FIELDS:
        parent, _, name = f.key.rpartition(".")
        box = out.get(parent) if parent else out
        if not isinstance(box, dict):
            continue  # the parent's own row has reported it
        where = _inapplicable(f, out)
        if where:
            found = [f"{f.key}: only applies to {where}"] if name in box else []
        elif name in box:
            found = _check(f, box, name, out)
        else:
            found = _fill(f, box, name, out, valid=not errors)
        errors += found
        if found and f.key in _AXES:
            return errors, None
    for parent, names in _NAMES.items():
        box = out.get(parent) if parent else out
        unknown = sorted(set(box) - names) if isinstance(box, dict) else []
        if unknown:
            errors.append(f"{parent or 'config'}: unknown keys {unknown}")
    if not errors:
        errors = _cross_rules(out)
    return errors, out


class _Normalized(dict):
    """A config that ``normalize_config`` returned."""


def check_config(cfg) -> list[str]:
    """Schema and invariant violations; empty means valid. The rules that
    span fields are checked once every field is valid."""
    return _walk(cfg)[0]


def normalize_config(cfg) -> dict:
    """Validated config with defaults filled and grids expanded; raises
    ``ConfigError``. A config this function returned passes unchanged, so
    the CLI, ``run_config`` and ``write_outputs`` walk the schema once."""
    if isinstance(cfg, _Normalized):
        return cfg
    errors, out = _walk(cfg)
    if errors:
        raise ConfigError(errors)
    return _Normalized(out)
