"""Fingerprint every built-in recipe: run each once at 1e5 replications
(instead of the recipes' 1e6) and record the sha256 of its ``results.csv``.

This is not a benchmark workload and has no bound. It exists so that a
change that claims to keep the numbers (a faster kernel, a merged code
path) can prove every recipe's output is byte-identical to the stored
fingerprints. It takes several minutes on two cores.

    python3 perfbench/fingerprint.py                       # write .perfbench/fingerprints.json
    python3 perfbench/fingerprint.py --check perfbench/fingerprints.json

With ``--check`` it exits 1 when any recipe's hash differs from the file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time

from common import STATE, MissingProgram, environment, import_borrowsim, nproc

REPS = 100_000


def fingerprint(threads: int) -> dict:
    from borrowsim import cli
    from borrowsim.recipes import DEFAULT_SEED, RECIPES

    out = {}
    for name in RECIPES:
        out_dir = STATE / "fingerprint" / name
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "run", "--recipe", name, "--reps", str(REPS), "--seed", str(DEFAULT_SEED),
                "--threads", str(threads), "--out", str(out_dir),
            ])
        wall = time.perf_counter() - started
        if code != 0:
            raise SystemExit(f"error: recipe {name} exited with {code}")
        data = (out_dir / "results.csv").read_bytes()
        out[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "rows": data.count(b"\n") - 1,
            "wall_s": round(wall, 3),
        }
        print(f"{name}: {out[name]['sha256'][:16]} {out[name]['rows']} rows {wall:.1f} s", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=nproc())
    parser.add_argument("--out", default=str(STATE / "fingerprints.json"))
    parser.add_argument("--check", help="fingerprint file to compare against")
    args = parser.parse_args(argv)
    try:
        import_borrowsim()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from borrowsim.recipes import DEFAULT_SEED

    report = {
        "reps": REPS,
        "threads": args.threads,
        "environment": environment(DEFAULT_SEED),
        "recipes": fingerprint(args.threads),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not args.check:
        return 0
    with open(args.check) as fh:
        stored = json.load(fh)
    if stored["reps"] != REPS:
        print(f"error: {args.check} was made at {stored['reps']} reps", file=sys.stderr)
        return 2
    names = sorted(set(stored["recipes"]) | set(report["recipes"]))
    changed = [
        n for n in names
        if stored["recipes"].get(n, {}).get("sha256")
        != report["recipes"].get(n, {}).get("sha256")
    ]
    for n in changed:
        print(f"CHANGED {n}")
    print(f"{len(names) - len(changed)}/{len(names)} recipes byte-identical")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
