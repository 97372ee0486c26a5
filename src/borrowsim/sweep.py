"""Sweep orchestration: cells, threads, result assembly and serialization.

Each sweep enumerates independent (scenario, axis point) cells, computes
them on a thread pool, and merges results back in the fixed enumeration
order, so output is byte-identical regardless of thread count. All Monte
Carlo cells of one run share the same base draw streams (common random
numbers), which the per-cell recomputation contract makes safe.

This module owns every sweep-level decision: the cell enumeration
(``_curves`` times ``_groups`` times ``_points``), the jobs (one per curve
and group; a bimodality map's and the sweet spots' one per weight block,
the run of curves that differ only in ``w``; a grid's TIE and power, Monte
Carlo or exact, one per curve or run of ``onearm._job_points`` points
through its trial's ``oc_curve``, its other fields one per cell), the Monte
Carlo rule (``_fields``: which row fields a run's cells compute and which
of them Monte Carlo estimates, read by the cells, by each row's ``reps``
and by the cost) and the cost itself (``cost_estimate``, which
``validate`` prints and meta.json records).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

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
    join_run,
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
        # The bias axis, which sweet_spot scans.
        bias_grid=cfg["sweep"].get("bias", ()),
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


def _trial(s):
    """The module of a scenario's trial."""
    return onearm if isinstance(s, OneArmScenario) else hybrid


def _grid_cell(cfg, s, bias):
    """A grid cell's RMSE, mean weight and bimodality fields."""
    fields = _fields(cfg)[0]
    out = {}
    if "rmse_std" in fields:
        true_mean = cfg.get("rmse_true_mean")
        _, out["rmse_std"] = onearm.one_arm_rmse(s, bias, true_mean)
    if "w_tilde" in fields:
        out["w_tilde"] = _trial(s).mean_posterior_weight(s, bias)
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
    probe_ties = _trial(s).oc_curve(s, (-probe, probe), exact=True, rates=("tie",))[0]
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


def _groups(cfg) -> list:
    """(scenario_id suffix, group) pairs of each curve, in output order: a
    table's deltas, an average's design priors, else one unnamed group."""
    sweep = cfg["sweep"]
    if cfg["kind"] == "table":
        return [(f":delta={delta:g}", delta) for delta in sweep["deltas"]]
    if cfg["kind"] == "average":
        designs = {"informative": Informative(), "rmp": RobustMixture(cfg["rmp_weight"]),
                   "unit_info": UnitInfo()}
        return [(f":design={name}", designs[name]) for name in sweep["design_priors"]]
    return [("", None)]


def _points(cfg, group) -> list:
    """The axis a (curve, group) job iterates, one row each, in output order."""
    if cfg["kind"] == "table":
        return hybrid.delta_grid(group).tolist()
    return cfg["sweep"]["analysis_shift" if cfg["kind"] == "average" else "bias"]


def cost_estimate(cfg) -> tuple[int, int]:
    """(cells, Monte Carlo draws) of a run of the normalized ``cfg``: one row
    per cell, and ``reps`` draws per Monte Carlo field of each cell."""
    cells = len(_curves(cfg)) * sum(len(_points(cfg, g)) for _, g in _groups(cfg))
    return cells, cells * len(_fields(cfg)[1]) * cfg["reps"]


def _run_grid(cfg, pool) -> SweepResult:
    biases = _points(cfg, None)
    curves = _curves(cfg)
    fields = _fields(cfg)[0]
    rates = [rate for rate in ("tie", "power") if rate in fields]
    exact = cfg["estimator"] == "exact"

    # The TIE/power jobs, the largest, go first; the other fields are a job per cell.
    steps = [(s, len(biases) if isinstance(s, HybridScenario) else onearm._job_points(s))
             for s, _, _ in curves] if rates else []
    jobs = [partial(_trial(s).oc_curve, s, biases[i:i + step], exact=exact, rates=rates)
            for s, step in steps for i in range(0, len(biases), step)]
    cells = [partial(_grid_cell, cfg, s, b) for s, _, _ in curves if fields - set(rates) for b in biases]
    out = list(pool.map(lambda job: job(), jobs + cells))
    none = [{}] * (len(curves) * len(biases))
    counts = [dict(zip(rates, c)) for curve in out[:len(jobs)] for c in zip(*curve)] or none
    results = [{**a, **b} for a, b in zip(counts, out[len(jobs):] or none)]

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


# A job of each kind but grid, on a (curve, group) or, where ``_JOBS`` says
# so, a (weight block, group): (row fields per point, summary entry), a list
# of one per curve for a block.
def _bimodality_job(cfg, block, group, points):
    ratios = diagnostics.bimodality_map(block[0][0], [w for _, _, w in block], points)
    return [([{"obm": float(r)} for r in row], None) for row in ratios]


def _sweet_spot_job(cfg, block, group, points):
    out = []
    for (s, sizes, w), spot in zip(block, hybrid.sweet_spots([s for s, _, _ in block])):
        shell = _row_shell(cfg, s, sizes, w, None)
        entry = {
            **{k: shell[k] for k in ("scenario_id", "location", "form", "n_robust", "w")},
            **{k: None if spot.empty else getattr(spot, k)
               for k in ("lower", "upper", "width", "max_power", "argmax_bias")},
            "empty": spot.empty,
            "contiguous": spot.contiguous,
        }
        out.append(([{"tie": tie, "power": power} for tie, power in spot.curve], entry))
    return out


def _table_job(cfg, curve, delta, points):
    s, _, w = curve
    ties, powers = hybrid.oc_curve(s, points, exact=cfg["estimator"] == "exact")
    max_tie, gain = hybrid.restricted_summary(s, ties, powers)
    entry = {
        "delta": delta,
        "location": describe_location(s.prior.location),
        "w": w,
        "max_tie_pct": 100.0 * max_tie,
        "max_power_gain_pct": 100.0 * gain,
    }
    return [{"tie": tie, "power": power} for tie, power in zip(ties, powers)], entry


def _average_job(cfg, curve, design, points):
    ties, powers = hybrid.average_curve(curve[0], design, points)
    return [{"tie": tie, "power": power} for tie, power in zip(ties, powers)], None


# Kind -> (job, the extras key of its summary entries, whether it takes a weight block).
_JOBS = {
    "bimodality": (_bimodality_job, None, True),
    "sweet-spot": (_sweet_spot_job, "sweet_spots", True),
    "table": (_table_job, "delta_summary", False),
    "average": (_average_job, None, False),
}


def _run_curves(cfg, pool) -> SweepResult:
    """Every kind but grid: one job per (curve, group), whose cells share
    one threshold solve, or per (weight block, group): the run of
    ``len(sweep.w)`` curves that differ only in ``w`` shares one bimodality
    map, or advances its sweet spots in lockstep."""
    job, key, by_block = _JOBS[cfg["kind"]]
    curves, size = _curves(cfg), len(cfg["sweep"]["w"]) if by_block else 1
    jobs = [(curves[i:i + size], g, _points(cfg, g), suffix)
            for i in range(0, len(curves), size) for suffix, g in _groups(cfg)]
    results = pool.map(lambda j: job(cfg, *j[:3]) if by_block else [job(cfg, j[0][0], *j[1:3])], jobs)
    rows: list[OCRow] = []
    entries = []
    for (block, _, points, suffix), out in zip(jobs, results):
        for (s, sizes, w), (cells, entry) in zip(block, out):
            rows += [OCRow(**_row_shell(cfg, s, sizes, w, x, suffix), **c) for x, c in zip(points, cells)]
            entries.append(entry)
    return SweepResult(rows, {key: entries} if key else {}, {})


def run_config(cfg: dict, threads: int | None = None) -> SweepResult:
    """Execute a scenario file (raw or normalized) and return all results,
    on ``threads`` worker threads (default: one per core). Each worker
    holds its own posterior work buffers, so the count bounds memory too."""
    cfg = normalize_config(cfg)
    if threads is None:  # the cores this process may run on, where the platform says
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads, initializer=join_run, initargs=({},)) as pool:
        result = (_run_grid if cfg["kind"] == "grid" else _run_curves)(cfg, pool)
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


# A row's fields are read off vars(row): dataclasses.asdict deep-copies them,
# which costs 32 ms per 1000 rows against 2 ms.
def write_rows_csv(path, rows) -> None:
    _write_csv(path, CSV_COLUMNS, map(vars, rows))


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
                "rows": [vars(r) for r in result.rows],
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
