"""Benchmark entry point.

    python3 perfbench/run.py --workload onearm-mc --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's jobs run as a closed loop (each job starts when the previous
one has finished) through ``borrowsim.cli.main(["run", ...])`` with
``--threads`` equal to the core count, pass after pass, until the next
pass would end after ``--seconds``; medians over the passes are reported.
``--trace 1`` runs the workload once untraced to warm up, once traced at
1 thread, then once untraced and once traced at the core count, and
reports the per-layer metrics. ``--smoke`` shrinks every job to a few
cells (for the benchmark's own tests). README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import project
import tracer as tracing
import workloads
from common import STATE, MissingProgram, environment, import_borrowsim, nproc

SETUP_SAMPLES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _steal_seconds() -> float:
    """CPU time the host took from this machine's processors so far (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(paths) -> int:
    """Child side of a set-up sample: import, load every config, report."""
    import_borrowsim()
    workloads.load([Path(p) for p in paths])
    print("ready", flush=True)
    return 0


def measure_setup(paths, samples: int) -> list[float]:
    """Seconds from process start until the configs are loaded, per sample."""
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", *map(str, paths)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        out.append(elapsed)
    return out


class Pass:
    """One closed-loop pass over a workload's jobs."""

    def __init__(self, jobs, paths, threads, out_root: Path, tracer=None):
        self.out_root = out_root
        self.codes = {}
        self.errors = {}
        cpu0, steal0 = _cpu_seconds(), _steal_seconds()
        start = time.perf_counter()
        for job, path in zip(jobs, paths):
            try:
                if tracer is None:
                    code = workloads.run_job(job, path, threads, out_root / job.name)
                else:
                    with tracer.job(job.name):
                        code = workloads.run_job(job, path, threads, out_root / job.name)
            except Exception:
                code = None
                self.errors[job.name] = traceback.format_exc(limit=5)
            self.codes[job.name] = code
        self.wall_s = time.perf_counter() - start
        self.cpu_s = _cpu_seconds() - cpu0
        self.steal_s = _steal_seconds() - steal0

    @property
    def unstolen_wall_s(self) -> float:
        """Wall time less the host's steal, shared over the machine's CPUs."""
        return self.wall_s - self.steal_s / (os.cpu_count() or 1)

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s, "cpu_s": self.cpu_s, "host_steal_s": self.steal_s,
            "unstolen_wall_s": self.unstolen_wall_s,
        }

    def digest(self, job) -> str | None:
        path = self.out_root / job.name / "results.csv"
        return gate.sha256(path) if path.is_file() else None


class Verdicts:
    """Attempted and failed job counts, with the reasons for failures."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.attempted = 0
        self.problems: list[str] = []
        self._failed: set[tuple[int, str]] = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    def record(self, n: int, job, problems) -> None:
        if problems:
            self._failed.add((n, job.name))
            self.problems.extend(f"pass {n}: {p}" for p in problems)

    def check(self, n: int, p: Pass, jobs, same_as: Pass | None = None) -> None:
        """Gate pass ``n``: fully, or byte-compared with an earlier pass."""
        for job in jobs:
            self.attempted += 1
            code = p.codes.get(job.name)
            if code != 0:
                detail = p.errors.get(job.name, f"exit code {code}")
                self.record(n, job, [f"{job.name}: failed: {detail.strip()}"])
            elif same_as is None:
                csv_path = p.out_root / job.name / "results.csv"
                self.record(n, job, gate.check_job(self.workload, job, csv_path, self.seed, self.smoke))
            elif p.digest(job) != same_as.digest(job):
                self.record(n, job, [f"{job.name}: results.csv differs from pass 0's"])


def timed_run(verdicts: Verdicts, jobs, paths, threads, seconds, work: Path):
    """End-to-end metrics, tracing off."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        p = Pass(jobs, paths, threads, work / f"pass{n}")
        verdicts.check(n, p, jobs, same_as=passes[0] if passes else None)
        passes.append(p)
        if n > 0:
            shutil.rmtree(p.out_root, ignore_errors=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall_s for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(p.unstolen_wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "pass_share": (1.0 - verdicts.failed / verdicts.attempted, "ratio"),
    }
    detail = {"passes": [p.summary() for p in passes]}
    return metrics, detail


def _job_calls(job):
    """(cost key, size) of every route call a job makes."""
    if job.kind == "exact-t":
        s = workloads.exact_t_scenario(job.config)
        kwargs = {"use_exact_t": True, "scan_points": job.config["scan_points"]}
        return [project.features("onearm.one_arm_tie_exact", (s,), kwargs)] * len(job.config["bias"])
    return project.enumerate_calls(job.config)


def traced_run(verdicts: Verdicts, jobs, paths, threads, work: Path):
    """Per-layer metrics: traced at 1 thread, untraced and traced at ``threads``.

    An untraced warm-up pass comes first, so that no timed pass is the
    process's cold one. Both traced passes use the same hooks, so their
    wall times compare.
    """
    warm = Pass(jobs, paths, threads, work / "warm-up")
    verdicts.check(0, warm, jobs)

    def traced_pass(n, nthreads):
        tracer = tracing.Tracer(features=project.features)
        tracer.install()
        try:
            p = Pass(jobs, paths, nthreads, work / f"traced-{nthreads}", tracer=tracer)
        finally:
            tracer.uninstall()
        verdicts.check(n, p, jobs, same_as=warm)
        return tracer, p

    one, p1 = traced_pass(1, 1)
    probes = project.probe(one.first_calls, one.originals)

    # Untraced next to the traced nproc pass, both warm, for the overhead.
    plain = Pass(jobs, paths, threads, work / "untraced")
    verdicts.check(2, plain, jobs, same_as=warm)

    many, pn = traced_pass(3, threads)

    metrics = tracing.layer_metrics(one)
    many_metrics = tracing.layer_metrics(many)
    cells = [s.duration for s in tracing.worker_cells(many)]
    job_wall_n = sum(span.duration for _, span in many.jobs)
    pcts = np.percentile(cells, [50, 95, 100]) if cells else (0.0, 0.0, 0.0)
    metrics.update({
        "sweep.cell_s.p50": (float(pcts[0]), "s"),
        "sweep.cell_s.p95": (float(pcts[1]), "s"),
        "sweep.cell_s.max": (float(pcts[2]), "s"),
        "sweep.worker_busy_share": (sum(cells) / (threads * job_wall_n) if job_wall_n else 0.0, "ratio"),
        "sweep.wall_s": (plain.wall_s, "s"),
        "sweep.speedup": (p1.wall_s / pn.wall_s, "ratio"),
        "sweep.cpu_per_wall_1t": (p1.cpu_s / p1.wall_s, "ratio"),
        "trace.overhead_s": (pn.wall_s - plain.wall_s, "s"),
    })
    counted = [k for k in metrics if k.endswith((".calls", ".elements", ".draws"))]
    mismatched = [k for k in counted if metrics[k] != many_metrics.get(k)]

    costs = project.fit(one.spans, probes)
    measured = {name: span.duration for name, span in one.jobs}
    predicted = {job.name: project.predict(_job_calls(job), costs)[0] for job in jobs}
    detail = {
        "passes": {
            "warm_up": {"threads": threads, **warm.summary()},
            "untraced": {"threads": threads, **plain.summary()},
            "traced_1": {"threads": 1, **p1.summary()},
            f"traced_{threads}": {"threads": threads, **pn.summary()},
        },
        "spans": {"traced_1": len(one.spans), f"traced_{threads}": len(many.spans)},
        "counts_differing_across_threads": mismatched,
        "projection": {
            "route_costs": costs,
            "probes": probes,
            "jobs": {
                name: {"predicted_s_1thread": predicted[name], "measured_s_1thread": measured.get(name)}
                for name in predicted
            },
            "recipes": project.project_recipes(costs),
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny jobs, for the benchmark's tests")
    parser.add_argument("--setup-probe", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_borrowsim()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    seed = gate.REF_SEED if args.seed is None else args.seed
    threads = nproc()
    jobs = workloads.jobs_for(args.workload, seed, smoke=args.smoke)
    work = STATE / "work" / f"{args.workload}-{seed}-{os.getpid()}"
    try:
        paths = workloads.write_configs(jobs, work / "configs")
        verdicts = Verdicts(args.workload, seed, args.smoke)
        if args.trace:
            setup = []
            metrics, detail = traced_run(verdicts, jobs, paths, threads, work)
        else:
            setup = measure_setup(paths, 1 if args.smoke else SETUP_SAMPLES)
            metrics, detail = timed_run(verdicts, jobs, paths, threads, args.seconds, work)
            metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(seed)
    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": threads,
        "environment": env,
        "setup_samples_s": setup,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    STATE.mkdir(exist_ok=True)
    name = f"report-{args.workload}{'-trace' if args.trace else ''}{'-smoke' if args.smoke else ''}.json"
    with open(STATE / name, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
        fh.write("\n")
    for problem in verdicts.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"report: {STATE / name}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
