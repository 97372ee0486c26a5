"""Correctness gate: does a job's ``results.csv`` hold the right numbers?

Every job is checked against reference-free invariants: the fixed
``results.csv`` header, the row count, the seed column and the range of
each column. Rows whose values do not depend on the seed (the
deterministic and exact-t routes, written with ``reps`` 0) are also
compared with stored references for every seed; Monte Carlo rows are
compared only when the run uses the reference seed, because their draws
come from the seed.

Per-column relative tolerances (|a - b| <= tol * max(|a|, |b|)):

* Monte Carlo ``tie`` and ``power`` are counts over the replications, so
  they must match exactly; ``rmse_std``, ``w_tilde`` and
  ``power_calibrated`` may move by 1e-12, as a reordered sum may.
* Gauss-Hermite ``tie``/``power`` and the bimodality ratio ``obm``: 1e-12.
* The exact-t ``tie``: 1e-9. The references are made with the library's
  default scan resolution, the workload uses a coarser one, and the two
  must find the same region; 1e-9 still catches a tail that drifts more
  than 1e-10 from the quadrature oracle.

Regenerate the references (several minutes; add ``--smoke`` for the
smoke mode's) with

    python3 perfbench/gate.py
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import shutil
import sys
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"
# The recipes' own seed; references are made with it.
REF_SEED = 20260810

HEADER = (
    "scenario_id", "trial", "location", "form", "n_robust", "w", "bias",
    "tie", "power", "power_calibrated", "rmse_std", "w_tilde", "obm",
    "reps", "seed",
)
KEY = ("scenario_id", "trial", "location", "form", "n_robust", "w", "bias")
PROBABILITIES = ("tie", "power", "power_calibrated", "w_tilde")
POSITIVE = ("rmse_std", "obm")

MC_TOL = {"tie": 0.0, "power": 0.0, "power_calibrated": 1e-12, "rmse_std": 1e-12, "w_tilde": 1e-12}
EXACT_TOL = {"tie": 1e-12, "power": 1e-12, "power_calibrated": 1e-12, "obm": 1e-12}
EXACT_T_TOL = {"tie": 1e-9}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        rows = [dict(zip(header, r)) for r in reader]
    return header, rows


def reference_path(workload: str, job_name: str, smoke: bool = False) -> Path:
    return REF_DIR / ("smoke" if smoke else "full") / workload / f"{job_name}.csv"


def _close(a: str, b: str, tol: float) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    x, y = float(a), float(b)
    return abs(x - y) <= tol * max(abs(x), abs(y))


def check_rows(header, rows, ref_rows, *, seed: int, expected_rows: int, exact_t: bool) -> list[str]:
    """Problems found in one job's output rows; empty means correct."""
    if header != HEADER:
        return [f"header {header} differs from the fixed header"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    refs = {tuple(r[k] for k in KEY): r for r in ref_rows}
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        if row["seed"] != str(seed):
            problems.append(f"{where}: seed {row['seed']!r}, expected {seed}")
        for col in PROBABILITIES:
            if row[col] and not 0.0 <= float(row[col]) <= 1.0:
                problems.append(f"{where}: {col} {row[col]} outside [0, 1]")
        for col in POSITIVE:
            if row[col] and not (math.isfinite(float(row[col])) and float(row[col]) > 0.0):
                problems.append(f"{where}: {col} {row[col]} is not finite and positive")
        mc = row["reps"] != "0"
        if mc and seed != REF_SEED:
            continue
        ref = refs.get(tuple(row[k] for k in KEY))
        if ref is None:
            problems.append(f"{where}: no reference row for {tuple(row[k] for k in KEY)}")
            continue
        tol = EXACT_T_TOL if exact_t else (MC_TOL if mc else EXACT_TOL)
        for col in HEADER:
            if col in KEY or col == "seed":
                continue
            if not _close(row[col], ref[col], tol.get(col, 0.0)):
                problems.append(f"{where}: {col} {row[col]} vs reference {ref[col]}")
    return problems


def check_job(workload: str, job, csv_path, seed: int, smoke: bool = False) -> list[str]:
    """Problems in the ``results.csv`` a job wrote; empty means correct."""
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        return [f"{job.name}: no results.csv"]
    ref_path = reference_path(workload, job.name, smoke)
    if not ref_path.is_file():
        return [f"{job.name}: no reference file {ref_path.name}"]
    _, ref_rows = read_csv(ref_path)
    header, rows = read_csv(csv_path)
    exact_t = job.kind == "exact-t"
    expected = len(job.config["bias"]) if exact_t else len(ref_rows)
    problems = check_rows(header, rows, ref_rows, seed=seed, expected_rows=expected, exact_t=exact_t)
    return [f"{job.name}: {p}" for p in problems]


def write_references(smoke: bool) -> None:
    """Run every workload's jobs at the reference seed and store each
    ``results.csv``."""
    import workloads
    from common import STATE, nproc

    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs_for(workload, REF_SEED, smoke=smoke)
        if workload == "exact-t":
            # Every probe the workload can draw; outside the smoke mode at
            # the library's default scan resolution.
            cfg = dict(jobs[0].config)
            cfg["bias"] = [p * workloads.SD_EXT for p in workloads.EXACT_T_PROBES]
            if not smoke:
                cfg["scan_points"] = None
            jobs = [workloads.Job(jobs[0].name, "exact-t", cfg)]
        reference_path(workload, "", smoke).parent.mkdir(parents=True, exist_ok=True)
        work = STATE / "refs-work" / workload
        paths = workloads.write_configs(jobs, work)
        for job, path in zip(jobs, paths):
            out = work / job.name
            code = workloads.run_job(job, path, nproc(), out)
            if code != 0:
                raise SystemExit(f"error: {workload}/{job.name} exited with {code}")
            shutil.copyfile(out / "results.csv", reference_path(workload, job.name, smoke))
            print(f"{workload}/{job.name}: {sha256(out / 'results.csv')[:16]}", flush=True)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from common import MissingProgram, import_borrowsim

    parser = argparse.ArgumentParser(description="Regenerate every workload's reference outputs.")
    parser.add_argument("--smoke", action="store_true", help="the smoke mode's references")
    args = parser.parse_args(argv)
    try:
        import_borrowsim()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_references(args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
