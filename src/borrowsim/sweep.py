"""Sweep orchestration: cells, threads, result assembly and serialization.

Each sweep enumerates independent (scenario, axis point) cells, computes
them on a thread pool, and merges results back in the fixed enumeration
order, so output is byte-identical regardless of thread count. All Monte
Carlo cells of one run share the same base draw streams (common random
numbers), which the per-cell recomputation contract makes safe.

This module owns every sweep-level decision: the cell enumeration
(``_curves`` times ``_axis``), the Monte Carlo rule (``_fields``: which row
fields a run's cells compute and which of them Monte Carlo estimates, read
by the cells, by each row's ``reps`` and by the cost) and the cost itself
(``cost_estimate``, which ``validate`` prints and meta.json records).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diagnostics, hybrid, onearm
from .config import normalize_config, sample_size_keys
from .gaussian import SufficientStat
from .priors import (
    ExternalMean,
    MixturePriorSpec,
    Normal,
    NullBoundary,
    StudentT,
)
from .scenarios import (
    LOCATION_NAMES,
    HybridScenario,
    Informative,
    OCRow,
    OneArmScenario,
    RobustMixture,
    TreatmentPrior,
    UnitInfo,
    describe_form,
    describe_location,
)

__all__ = ["SweepResult", "run_config", "write_outputs", "cost_estimate", "CSV_COLUMNS"]

CSV_COLUMNS = (
    "scenario_id", "trial", "location", "form", "n_robust", "w", "bias",
    "tie", "power", "power_calibrated", "rmse_std", "w_tilde", "obm",
    "reps", "seed",
)

# Probe used to approximate the all-bias worst case when calibrating the
# no-borrowing comparison; capped locations have flattened out well before
# a conflict of thirty informative-sd units.
_CALIBRATION_PROBE_SD_EXT = 30.0


@dataclass
class SweepResult:
    rows: list[OCRow]
    extras: dict
    meta: dict

    def summary_lines(self) -> list[str]:
        lines = [f"{len(self.rows)} rows"]
        for key, items in self.extras.items():
            lines.append(f"{key}: {len(items)} entries")
        return lines


# Row fields of the grid metrics not named after their field; the
# calibrated power is read off the cell's TIE and power.
_METRIC_FIELDS = {"rmse": ("rmse_std",), "power_calibrated": ("tie", "power")}


def _fields(cfg) -> tuple[set, set]:
    """(row fields each cell of ``cfg`` computes, those Monte Carlo estimates).

    RMSE and the mean weight are always Monte Carlo; TIE and power are
    unless the estimator is exact or the kind is a sweet spot.
    """
    kind = cfg["kind"]
    if kind == "grid":
        fields = {f for m in cfg["metrics"] for f in _METRIC_FIELDS.get(m, (m,))}
    else:
        fields = {"obm"} if kind == "bimodality" else {"tie", "power"}
    mc = {"rmse_std", "w_tilde"}
    if cfg.get("estimator") != "exact" and kind != "sweet-spot":
        mc |= {"tie", "power"}
    return fields, fields & mc


def _location_policy(name: str, null_mean: float | None):
    policy = {v: k for k, v in LOCATION_NAMES.items()}[name]
    return NullBoundary(null_mean) if policy is NullBoundary else policy()


def _prior_spec(cfg, location, disp, w, n_ext) -> MixturePriorSpec:
    # Only `average` reads the external mean: every other route places it by
    # the cell's bias (``external_at``), so there it stands where bias 0 puts it.
    origin = cfg["null_mean"] if cfg["trial"] == "one-arm" else cfg["control_mean"]
    external = SufficientStat(cfg.get("external_mean", origin), n_ext, cfg["sigma"])
    kind, value = disp
    if kind == "k_scale":
        k, scale = value
        form = StudentT(df=cfg["form"]["df"], scale=scale, k=int(k))
        return MixturePriorSpec(w, external, location, form)
    if kind == "n_robust":
        return MixturePriorSpec(w, external, location, Normal(), n_robust=value)
    return MixturePriorSpec(w, external, location, Normal(), n_robust=None, robust_variance=value)


def _scenario(cfg, sizes, location_name, disp, w):
    loc = _location_policy(location_name, cfg.get("null_mean"))
    spec = _prior_spec(cfg, loc, disp, w, sizes["n_ext"])
    if cfg["trial"] == "one-arm":
        return OneArmScenario(
            null_mean=cfg["null_mean"],
            alt_mean=cfg["alt_mean"],
            n=sizes["n"],
            sigma=cfg["sigma"],
            external=spec.external,
            prior=spec,
            seed=cfg["seed"],
            alpha=cfg["alpha"],
            reps=cfg["reps"],
            scenario_id=cfg["scenario_id"],
        )
    return HybridScenario(
        n_t=sizes["n_t"],
        n_c=sizes["n_c"],
        sigma=cfg["sigma"],
        external=spec.external,
        prior=spec,
        effect=cfg["effect"],
        seed=cfg["seed"],
        alpha=cfg["alpha"],
        reps=cfg["reps"],
        treatment_prior=TreatmentPrior(cfg["treatment_prior"]),
        control_mean=cfg["control_mean"],
        scenario_id=cfg["scenario_id"],
    )


def _row_id(cfg, sizes, suffix="") -> str:
    base = cfg["scenario_id"]
    if sizes != {k: cfg[k] for k in sample_size_keys(cfg["trial"])}:
        base += ":" + ",".join(f"{k}={sizes[k]}" for k in sorted(sizes))
    return base + suffix


def _row_shell(cfg, s, sizes, w, bias, suffix="") -> dict:
    return {
        "scenario_id": _row_id(cfg, sizes, suffix),
        "trial": cfg["trial"],
        "location": describe_location(s.prior.location),
        "form": describe_form(s.prior.form),
        "n_robust": s.prior.effective_n_robust(),
        "w": w,
        "bias": bias,
        "reps": cfg["reps"] if _fields(cfg)[1] else 0,
        "seed": cfg["seed"],
    }


def _grid_cell(cfg, s, bias):
    exact = cfg["estimator"] == "exact"
    fields = _fields(cfg)[0]
    out = {}
    one_arm = isinstance(s, OneArmScenario)
    if "tie" in fields:
        if one_arm:
            out["tie"] = (onearm.one_arm_tie_exact if exact else onearm.one_arm_tie)(s, bias)
        else:
            out["tie"] = (hybrid.hybrid_tie_exact if exact else hybrid.hybrid_tie)(s, bias)
    if "power" in fields:
        if one_arm:
            out["power"] = (onearm.one_arm_power_exact if exact else onearm.one_arm_power)(s, bias)
        else:
            out["power"] = (hybrid.hybrid_power_exact if exact else hybrid.hybrid_power)(s, bias)
    if "rmse_std" in fields:
        true_mean = cfg.get("rmse_true_mean")
        _, out["rmse_std"] = onearm.one_arm_rmse(s, bias, true_mean)
    if "w_tilde" in fields:
        if one_arm:
            out["w_tilde"] = onearm.mean_posterior_weight(s, bias)
        else:
            out["w_tilde"] = hybrid.mean_posterior_weight(s, bias)
    if "obm" in fields:
        out["obm"] = diagnostics.bimodality_map(s, [s.prior.informative_weight], [bias]).item()
    return out


def _calibration_level(cfg, s, curve_ties) -> float:
    """Worst-case TIE the calibrated comparison should use for one curve.

    A normal robust component centered at the external mean has no cap
    (the error rate is eventually monotone in the conflict), so the
    all-bias supremum is one; every other combination is capped and the
    grid maximum plus a far-out probe approximates the supremum.
    """
    if isinstance(s.prior.location, ExternalMean) and isinstance(s.prior.form, Normal):
        return 1.0
    probe = _CALIBRATION_PROBE_SD_EXT * s.sd_ext
    if isinstance(s, OneArmScenario):
        probe_ties = [onearm.one_arm_tie_exact(s, b) for b in (-probe, probe)]
    else:
        probe_ties = hybrid.oc_curve(s, (-probe, probe), exact=True)[0]
    return max(max(curve_ties), max(probe_ties))


def _dispersion_axis(cfg) -> list[tuple[str, float]]:
    sweep = cfg["sweep"]
    if cfg["form"]["kind"] == "normal":
        if "robust_variance" in sweep:
            return [("robust_variance", v) for v in sweep["robust_variance"]]
        return [("n_robust", v) for v in sweep["n_robust"]]
    return [("k_scale", (k, sc)) for k in sweep["k"] for sc in sweep["scale"]]


def _curves(cfg) -> list:
    """(scenario, sizes, w) over the (sizes x location x dispersion x w)
    product, in output order; every runner enumerates its cells from it."""
    sweep = cfg["sweep"]
    return [
        (_scenario(cfg, sizes, loc, disp, w), sizes, w)
        for sizes in sweep["sample_sizes"]
        for loc in sweep["location"]
        for disp in _dispersion_axis(cfg)
        for w in sweep["w"]
    ]


def _axis(cfg) -> list:
    """The points each curve's runner iterates, one row each, in output order."""
    sweep = cfg["sweep"]
    if cfg["kind"] == "table":
        return [(delta, b) for delta in sweep["deltas"] for b in hybrid.delta_grid(delta)]
    if cfg["kind"] == "average":
        return [(d, shift) for d in sweep["design_priors"] for shift in sweep["analysis_shift"]]
    return sweep["bias"]


def cost_estimate(cfg) -> tuple[int, int]:
    """(cells, Monte Carlo draws) of a run of the normalized ``cfg``: one row
    per cell, and ``reps`` draws per Monte Carlo field of each cell."""
    cells = len(_curves(cfg)) * len(_axis(cfg))
    return cells, cells * len(_fields(cfg)[1]) * cfg["reps"]


def _run_grid(cfg, pool) -> SweepResult:
    biases = _axis(cfg)
    curves = _curves(cfg)
    jobs = [(s, bias) for s, _, _ in curves for bias in biases]
    results = list(pool.map(lambda j: _grid_cell(cfg, j[0], j[1]), jobs))

    rows: list[OCRow] = []
    want_cal = "power_calibrated" in cfg["metrics"]
    hidden = {"tie", "power"} - set(cfg["metrics"])  # computed for the calibration only
    for c, (s, sizes, w) in enumerate(curves):
        chunk = results[c * len(biases):(c + 1) * len(biases)]
        cal = None
        if want_cal:
            level = _calibration_level(cfg, s, [m["tie"] for m in chunk])
            cal = hybrid.calibrated_power_no_borrowing(level, s)
        for bias, cell in zip(biases, chunk):
            keep = {k: v for k, v in cell.items() if k not in hidden}
            rows.append(OCRow(**_row_shell(cfg, s, sizes, w, bias), **keep, power_calibrated=cal))
    return SweepResult(rows, {}, {})


def _run_bimodality(cfg, pool) -> SweepResult:
    biases = _axis(cfg)
    curves = _curves(cfg)
    ratios = pool.map(lambda c: diagnostics.bimodality_map(c[0], [c[2]], biases)[0], curves)
    rows = [
        OCRow(**_row_shell(cfg, s, sizes, w, bias), obm=float(r))
        for (s, sizes, w), curve in zip(curves, ratios)
        for bias, r in zip(biases, curve)
    ]
    return SweepResult(rows, {}, {})


def _run_sweet_spot(cfg, pool) -> SweepResult:
    biases = _axis(cfg)
    curves = [(replace(s, bias_grid=tuple(biases)), sizes, w) for s, sizes, w in _curves(cfg)]
    rows: list[OCRow] = []
    spots = []
    for (s, sizes, w), spot in zip(curves, pool.map(lambda c: hybrid.sweet_spot(c[0]), curves)):
        for bias, (tie, power) in zip(biases, spot.curve):
            rows.append(OCRow(**_row_shell(cfg, s, sizes, w, bias), tie=tie, power=power))
        shell = _row_shell(cfg, s, sizes, w, None)
        spots.append({
            **{k: shell[k] for k in ("scenario_id", "location", "form", "n_robust", "w")},
            **{k: None if spot.empty else getattr(spot, k)
               for k in ("lower", "upper", "width", "max_power", "argmax_bias")},
            "empty": spot.empty,
            "contiguous": spot.contiguous,
        })
    return SweepResult(rows, {"sweet_spots": spots}, {})


def _run_table(cfg, pool) -> SweepResult:
    exact = cfg["estimator"] == "exact"
    cells = [(c, delta) for c in _curves(cfg) for delta in cfg["sweep"]["deltas"]]

    def work(cell):
        (s, _, _), delta = cell
        grid = hybrid.delta_grid(delta)
        return (grid, *hybrid.oc_curve(s, grid, exact=exact))

    rows: list[OCRow] = []
    summary = []
    for ((s, sizes, w), delta), (grid, ties, powers) in zip(cells, pool.map(work, cells)):
        suffix = f":delta={delta:g}"
        for bias, tie, power in zip(grid, ties, powers):
            shell = _row_shell(cfg, s, sizes, w, float(bias), suffix)
            rows.append(OCRow(**shell, tie=tie, power=power))
        max_tie, gain = hybrid.restricted_summary(s, ties, powers)
        summary.append({
            "delta": delta,
            "location": describe_location(s.prior.location),
            "w": w,
            "max_tie_pct": 100.0 * max_tie,
            "max_power_gain_pct": 100.0 * gain,
        })
    return SweepResult(rows, {"delta_summary": summary}, {})


_DESIGNS = {
    "informative": Informative(),
    "unit_info": UnitInfo(),
}


def _run_average(cfg, pool) -> SweepResult:
    designs = {
        name: _DESIGNS.get(name, RobustMixture(cfg["rmp_weight"]))
        for name in cfg["sweep"]["design_priors"]
    }
    cells = [(c, dname, shift) for c in _curves(cfg) for dname, shift in _axis(cfg)]

    def work(cell):
        (s, _, _), dname, shift = cell
        design = designs[dname]
        return hybrid.average_tie(s, design, shift), hybrid.average_power(s, design, shift)

    rows = []
    for ((s, sizes, w), dname, shift), (tie, power) in zip(cells, pool.map(work, cells)):
        shell = _row_shell(cfg, s, sizes, w, shift, f":design={dname}")
        rows.append(OCRow(**shell, tie=tie, power=power))
    return SweepResult(rows, {}, {})


_RUNNERS = {
    "grid": _run_grid,
    "bimodality": _run_bimodality,
    "sweet-spot": _run_sweet_spot,
    "table": _run_table,
    "average": _run_average,
}


def run_config(cfg: dict, threads: int | None = None) -> SweepResult:
    """Execute a scenario file (raw or normalized) and return all results."""
    cfg = normalize_config(cfg)
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        result = _RUNNERS[cfg["kind"]](cfg, pool)
    cells, draws = cost_estimate(cfg)
    payload = json.dumps(cfg, sort_keys=True, default=str).encode()
    result.meta = {
        "scenario_id": cfg["scenario_id"],
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "reps": cfg["reps"],
        "build_id": hashlib.sha256(payload).hexdigest()[:12],
        "cells": cells,
        "mc_draws": draws,
        "threads": threads,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    return result


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, columns, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_format(record[col]) for col in columns] for record in records)


def write_rows_csv(path, rows) -> None:
    _write_csv(path, CSV_COLUMNS, map(asdict, rows))


def write_outputs(result: SweepResult, cfg: dict, out_dir) -> list[str]:
    """Write results.csv / results.json (+ summary.csv) and the metadata
    sidecar; returns the written paths."""
    cfg = normalize_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    names = cfg["output"]
    written = []

    csv_path = os.path.join(out_dir, names["csv"])
    write_rows_csv(csv_path, result.rows)
    written.append(csv_path)

    json_path = os.path.join(out_dir, names["json"])
    with open(json_path, "w") as fh:
        json.dump(
            {
                "schema_version": cfg["schema_version"],
                "scenario_id": cfg["scenario_id"],
                "kind": cfg["kind"],
                "trial": cfg["trial"],
                "rows": [asdict(r) for r in result.rows],
                "extras": result.extras,
            },
            fh,
            indent=1,
            allow_nan=False,
            default=_json_default,
        )
        fh.write("\n")
    written.append(json_path)

    summary = next(iter(result.extras.values()), None)
    if summary:
        summary_path = os.path.join(out_dir, names["summary"])
        _write_csv(summary_path, list(summary[0]), summary)
        written.append(summary_path)

    meta_path = os.path.join(out_dir, names["meta"])
    with open(meta_path, "w") as fh:
        json.dump(result.meta, fh, indent=1)
        fh.write("\n")
    written.append(meta_path)
    return written


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")
