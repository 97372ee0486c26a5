"""The benchmark's workloads: which jobs each one runs and how a job runs.

A job is one scenario file (or, for ``exact-t``, one library call list)
made from a built-in recipe, trimmed so that a whole workload pass takes a
few seconds on two cores, with the workload seed written into ``seed``.
Replication counts are fixed per workload, so every timing is the time to a
stated Monte Carlo standard error.

Workloads, and why each exists (README.md has the full table):

* ``onearm-mc``: one-arm Monte Carlo grids; posterior passes over one
  shared draw stream with 2 and 101 prior components.
* ``hybrid-mc``: hybrid-control Monte Carlo over joint control/treatment
  draws and four draw streams; the one-arm shortcuts cannot apply.
* ``deterministic``: the noise-free routes (Gauss-Hermite sweet spots and
  the bimodality map); small arrays and Python loops, no draws.
* ``exact-t``: the exact heavy-tailed route through adaptive quadrature,
  which the CLI cannot reach, so it calls the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

SD_EXT = 1.0 / math.sqrt(15.0)

# Replications per Monte Carlo cell; the smoke mode uses a tiny budget.
REPS = {"onearm-mc": 10_000, "hybrid-mc": 20_000}
SMOKE_REPS = 400

# Conflicts (in informative-sd units) of the criterion-5 probes, 0..8,
# and the two the workload evaluates. The exact route has no random input,
# and its cost differs by up to a third between probes, so the pair is
# fixed rather than drawn from the seed.
EXACT_T_PROBES = tuple(range(9))
EXACT_T_PAIR = (4, 8)
# Scan resolution of the exact-t rejection region. The library default
# (161) makes one cell cost ~13 s; 11 points find the same region (the
# references are made at the default and must still match).
EXACT_T_SCAN_POINTS = 11

WORKLOADS = ("onearm-mc", "hybrid-mc", "deterministic", "exact-t")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "exact-t"
    config: dict


def _set(cfg, seed, reps=None, **sweep):
    cfg["seed"] = seed
    if reps is not None:
        cfg["reps"] = reps
    cfg["sweep"].update(sweep)
    return cfg


def _exact_t_config(seed: int, smoke: bool) -> dict:
    return {
        "scenario_id": "exact-t",
        "seed": seed,
        "null_mean": 0.0,
        "alt_mean": 0.5,
        "n": 20,
        "n_ext": 15,
        "sigma": 1.0,
        "alpha": 0.025,
        "w": 0.5,
        "form": {"df": 3.0, "scale": 1.0, "k": 100},
        "bias": [p * SD_EXT for p in EXACT_T_PAIR],
        "scan_points": 5 if smoke else EXACT_T_SCAN_POINTS,
    }


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The jobs one pass of ``workload`` runs, in order."""
    from borrowsim.recipes import recipe_config as recipe

    if workload == "onearm-mc":
        reps = SMOKE_REPS if smoke else REPS[workload]
        cfgs = [
            _set(recipe("fig1"), seed, reps),
            _set(recipe("a1-dispersion"), seed, reps, w=[0.5]),
            _set(recipe("fig1-t"), seed, reps, w=[0.5]),
        ]
        if smoke:
            cfgs = [_set(c, seed, reps, bias=[-1.0, 0.0, 1.0]) for c in cfgs]
    elif workload == "hybrid-mc":
        reps = SMOKE_REPS if smoke else REPS[workload]
        cfgs = [
            _set(recipe("fig7"), seed, reps),
            _set(recipe("fig10"), seed, reps),
            _set(recipe("table1"), seed, reps),
            _set(recipe("a14-treatment-prior-unbalanced"), seed, reps),
        ]
        if smoke:
            cfgs[0]["sweep"]["bias"] = [-1.0, 0.0, 1.0]
            cfgs[1]["sweep"]["analysis_shift"] = [0.0, 0.5]
            cfgs[2]["sweep"]["deltas"] = [0.1]
            cfgs[3]["sweep"]["bias"] = [-1.0, 0.0, 1.0]
    elif workload == "deterministic":
        cfgs = [
            _set(
                recipe("fig8"), seed,
                location=["current_mean"],
                n_robust=[1.0],
                w=[0.25, 0.75],
                bias={"start": -1.5, "stop": 1.5, "step": 0.1},
            ),
            _set(recipe("fig2"), seed, w=[round(0.05 * i, 10) for i in range(21)]),
        ]
        if smoke:
            cfgs[0]["sweep"].update(n_robust=[1.0], w=[0.5], bias=[-0.5, 0.0, 0.5])
            cfgs[1]["sweep"].update(w=[0.25, 0.5], bias=[0.0, 0.1])
    elif workload == "exact-t":
        return [Job("exact-t", "exact-t", _exact_t_config(seed, smoke))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [Job(c["scenario_id"], "cli", c) for c in cfgs]


def write_configs(jobs: list[Job], work: Path) -> list[Path]:
    """Write each job's scenario file; returns the paths."""
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = work / f"{job.name}.json"
        with open(path, "w") as fh:
            json.dump(job.config, fh, indent=1)
        paths.append(path)
    return paths


def exact_t_scenario(cfg: dict):
    """The one-arm t-prior scenario an exact-t job evaluates."""
    from borrowsim import ExternalMean, MixturePriorSpec, OneArmScenario, StudentT, SufficientStat

    external = SufficientStat(cfg["null_mean"], cfg["n_ext"], cfg["sigma"])
    form = StudentT(df=cfg["form"]["df"], scale=cfg["form"]["scale"], k=cfg["form"]["k"])
    spec = MixturePriorSpec(cfg["w"], external, ExternalMean(), form)
    return OneArmScenario(
        cfg["null_mean"], cfg["alt_mean"], cfg["n"], cfg["sigma"], external, spec,
        seed=cfg["seed"], alpha=cfg["alpha"], reps=1, scenario_id=cfg["scenario_id"],
    )


def load(paths: list[Path]) -> list:
    """Set-up work a user pays before the first sweep: read, check and
    normalize every scenario file (build the scenario for exact-t)."""
    from borrowsim.config import normalize_config

    loaded = []
    for path in paths:
        with open(path) as fh:
            cfg = json.load(fh)
        if cfg.get("scenario_id") == "exact-t":
            exact_t_scenario(cfg)
            loaded.append(cfg)
        else:
            loaded.append(normalize_config(cfg))
    return loaded


def clear_draw_caches() -> None:
    """Forget cached base draws, as a fresh CLI process would start.

    Works whether or not the tracer has wrapped the cached functions.
    """
    from borrowsim import scenarios

    for name in ("base_normals", "base_uniforms"):
        fn = getattr(scenarios, name, None)
        target = fn if hasattr(fn, "cache_clear") else getattr(fn, "__wrapped__", None)
        if hasattr(target, "cache_clear"):
            target.cache_clear()


def _run_exact_t(cfg: dict, threads: int, out_dir: Path) -> int:
    import borrowsim
    from borrowsim import OCRow
    from borrowsim.scenarios import describe_form
    from borrowsim.sweep import write_rows_csv

    s = exact_t_scenario(cfg)

    def cell(bias):
        return borrowsim.one_arm_tie_exact(
            s, bias, use_exact_t=True, scan_points=cfg["scan_points"]
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ties = list(pool.map(cell, cfg["bias"]))
    rows = [
        OCRow(
            scenario_id=cfg["scenario_id"], trial="one-arm", location="external_mean",
            form=describe_form(s.prior.form), n_robust=None, w=cfg["w"], bias=bias,
            tie=tie, reps=0, seed=cfg["seed"],
        )
        for bias, tie in zip(cfg["bias"], ties)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(str(out_dir / "results.csv"), rows)
    return 0


def run_job(job: Job, config_path: Path, threads: int, out_dir: Path) -> int:
    """Run one job as a user would; returns its exit code."""
    clear_draw_caches()
    if job.kind == "exact-t":
        return _run_exact_t(job.config, threads, out_dir)
    from borrowsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([
            "run", "--config", str(config_path), "--out", str(out_dir),
            "--threads", str(threads),
        ])
