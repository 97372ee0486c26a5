"""Full-budget cost projection from traced per-call costs.

Each route (a cell-level library call such as ``onearm.one_arm_tie`` or
``hybrid.sweet_spot``) gets a cost model fitted to the spans of a traced
1-thread pass:

* Monte Carlo routes cost ``a + b * J * reps`` seconds per call, with J the
  number of prior components. ``a`` and ``b`` are fitted by least squares
  over the per-size medians of the traced calls plus one probe call at ten
  times the workload's replications, so the fit spans two sizes at least.
* ``sweet_spot`` costs ``a + b * G`` per call, G the bias grid length,
  fitted the same way with a probe on a grid of twice the resolution.
* Other deterministic routes cost a fixed time per call for a given J.

A recipe is projected by running its sweep with every route replaced by a
stub that only records the call (so the sweep's own enumeration decides
which calls a recipe makes), then summing the fitted costs at the
recipe's default 1e6 replications. The projection is of 1-thread compute
time; calls to a route no traced workload measured leave the recipe
unprojected and are listed.

    python3 perfbench/project.py .perfbench/report-*-trace.json

merges the route costs of several traced reports and prints every recipe.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from tracer import Patcher

MC_ROUTES = (
    "onearm.one_arm_tie", "onearm.one_arm_power", "onearm.one_arm_rmse",
    "onearm.mean_posterior_weight", "hybrid.hybrid_tie", "hybrid.hybrid_power",
    "hybrid.average_tie", "hybrid.average_power", "hybrid.mean_posterior_weight",
)
EXACT_ROUTES = (
    "onearm.one_arm_tie_exact", "onearm.one_arm_power_exact",
    "hybrid.hybrid_tie_exact", "hybrid.hybrid_power_exact", "hybrid.sweet_spot",
    "inference.posterior", "diagnostics.find_modes",
)
PROBE_FACTOR = 10


def _components(obj) -> int:
    """J of a scenario (its prior spec) or of a mixture."""
    if hasattr(obj, "prior"):
        k = getattr(obj.prior.form, "k", None)
        return 2 if k is None else k + 1
    return len(obj)


def features(name: str, args, kwargs):
    """(cost key, size) of one route call, or None for other functions."""
    if name in MC_ROUTES:
        return name, float(_components(args[0]) * args[0].reps)
    if name not in EXACT_ROUTES:
        return None
    key = f"{name}|J={_components(args[0])}"
    if kwargs.get("use_exact_t"):
        key += f"|exact_t|scan={kwargs.get('scan_points')}"
    size = float(len(args[0].bias_grid)) if name == "hybrid.sweet_spot" else 1.0
    return key, size


def _linear(key: str) -> bool:
    return key in MC_ROUTES or key.startswith("hybrid.sweet_spot")


def probe(first_calls, originals, factor: int = PROBE_FACTOR) -> list[tuple[str, float, float]]:
    """One more call per traced route of a linear model, at a larger size
    than the workload's: (key, size, seconds)."""
    out = []
    for key, (args, kwargs) in first_calls.items():
        if not _linear(key):
            continue
        s = args[0]
        if key in MC_ROUTES:
            fn = originals[key]
            s = replace(s, reps=s.reps * factor)
            fn(s, *args[1:], **kwargs)  # fills the draw cache
        else:
            fn = originals["hybrid.sweet_spot"]
            grid = np.linspace(s.bias_grid[0], s.bias_grid[-1], 2 * len(s.bias_grid) - 1)
            s = replace(s, bias_grid=tuple(grid))
        start = time.perf_counter()
        fn(s, *args[1:], **kwargs)
        out.append((key, features(key.split("|")[0], (s,), kwargs)[1], time.perf_counter() - start))
    return out


def fit(spans, probes=()) -> dict[str, list[float]]:
    """Cost key -> [a, b]: a call of size x costs a + b * x seconds."""
    groups = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s.key is not None:
            groups[s.key][s.size].append(s.duration)
    for key, size, seconds in probes:
        groups[key][size].append(seconds)
    costs = {}
    for key, by_size in groups.items():
        if not _linear(key):
            total = sum(sum(d) for d in by_size.values())
            count = sum(size * len(d) for size, d in by_size.items())
            costs[key] = [0.0, total / count]
            continue
        xs = sorted(by_size)
        ys = [statistics.median(by_size[x]) for x in xs]
        if len(xs) == 1:
            costs[key] = [0.0, ys[0] / xs[0]]
            continue
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        b = max(b, 0.0)
        costs[key] = [max(my - b * mx, 0.0), b]
    return costs


def _stub(name, calls):
    from borrowsim.scenarios import SweetSpot

    value = {
        "onearm.one_arm_rmse": (0.1, 0.5),
        "hybrid.sweet_spot": SweetSpot(math.nan, math.nan, math.nan, math.nan, True),
        "diagnostics.find_modes": SimpleNamespace(ratio=1.0),
    }.get(name, 0.025)

    def stub(*args, **kwargs):
        calls.append(features(name, args, kwargs))
        if name == "inference.posterior":
            return SimpleNamespace(posterior=args[0])  # keeps J for find_modes
        return value

    return stub


def enumerate_calls(cfg: dict) -> list[tuple[str, float]]:
    """The (cost key, size) of every route call a scenario's sweep makes."""
    from borrowsim import sweep

    calls: list = []
    patcher = Patcher()
    try:
        for name in MC_ROUTES + EXACT_ROUTES:
            module, fn = name.split(".")
            original = patcher.original(module, fn)
            if original is not None:
                patcher.replace(original, _stub(name, calls))
        sweep.run_config(cfg, threads=1)
    finally:
        patcher.restore()
    return calls


def predict(calls, costs) -> tuple[float | None, list[str]]:
    """Predicted seconds of a call list, and the keys no cost covers."""
    missing = sorted({k for k, _ in calls if k not in costs})
    if missing:
        return None, missing
    return sum(costs[k][0] + costs[k][1] * size for k, size in calls), []


def project_recipes(costs) -> dict:
    """Every recipe at its default replication count."""
    from borrowsim.recipes import RECIPES, recipe_config

    out = {}
    for name in RECIPES:
        cfg = recipe_config(name)
        seconds, missing = predict(enumerate_calls(cfg), costs)
        out[name] = {
            "predicted_s_1thread": seconds,
            "unmeasured_routes": missing,
        }
    return out


def main(paths) -> int:
    from common import MissingProgram, import_borrowsim

    try:
        import_borrowsim()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    costs = {}
    for path in paths:
        with open(path) as fh:
            costs.update(json.load(fh)["projection"]["route_costs"])
    for name, p in project_recipes(costs).items():
        if p["predicted_s_1thread"] is None:
            print(f"{name:32s} unprojected: {', '.join(p['unmeasured_routes'])}")
        else:
            print(f"{name:32s} {p['predicted_s_1thread']:9.1f} s on 1 thread")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
