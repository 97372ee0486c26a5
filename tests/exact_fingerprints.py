"""Fingerprint every recipe under the exact estimator: run each recipe whose
schema accepts ``"estimator": "exact"`` once at 1e5 replications and record
the sha256 of its ``results.csv``.

The stored Monte Carlo fingerprints cover the default estimator only. This
file pins the exact routes the same way, so a change that moves an exact
number by an ulp shows up as a changed hash. Recipes that refuse the
estimator (the noise-free kinds and the design-prior averages) are skipped
and named.

    python tests/exact_fingerprints.py                  # write tests/fingerprints-exact.json
    python tests/exact_fingerprints.py --check          # compare against it
    python tests/exact_fingerprints.py --check --threads 1

With ``--check`` it writes nothing and exits 1 when any recipe's hash (or
the set of recipes) differs from the stored file. The environment block
records ``simd``, the CPU features NumPy found (its SIMD dispatch can move
an exact number by an ulp); ``--check`` prints the host's set beside the
stored one before its verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from common import environment, import_borrowsim, nproc  # noqa: E402

REPS = 100_000
STORED = ROOT / "tests" / "fingerprints-exact.json"


def simd() -> list[str]:
    """The CPU features NumPy found on this host, as the CI kernel step reads them."""
    from numpy._core._multiarray_umath import __cpu_features__

    return sorted(name for name, found in __cpu_features__.items() if found)


def exact_configs() -> tuple[dict, list[str]]:
    """Each recipe's config under the exact estimator, and the recipes the
    schema refuses it for."""
    from borrowsim.config import ConfigError, normalize_config
    from borrowsim.recipes import RECIPES, recipe_config

    configs, refused = {}, []
    for name in RECIPES:
        cfg = {**recipe_config(name), "estimator": "exact"}
        try:
            normalize_config(cfg)
        except ConfigError:
            refused.append(name)
        else:
            configs[name] = cfg
    return configs, refused


def fingerprint(configs: dict, threads: int) -> dict:
    from borrowsim import cli
    from borrowsim.recipes import DEFAULT_SEED

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "run", "--config", str(path), "--reps", str(REPS), "--seed", str(DEFAULT_SEED),
                    "--threads", str(threads), "--out", str(Path(tmp) / name),
                ])
            wall = time.perf_counter() - started
            if code != 0:
                raise SystemExit(f"error: recipe {name} (exact) exited with {code}")
            data = (Path(tmp) / name / "results.csv").read_bytes()
            out[name] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}
            print(f"{name}: {out[name]['sha256'][:16]} {out[name]['rows']} rows {wall:.1f} s", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=nproc())
    parser.add_argument("--check", action="store_true", help=f"compare against {STORED.name}")
    args = parser.parse_args(argv)
    import_borrowsim()
    from borrowsim.recipes import DEFAULT_SEED

    configs, refused = exact_configs()
    print(f"refused by the schema: {', '.join(refused)}")
    report = {
        "reps": REPS,
        "threads": args.threads,
        "environment": {**environment(DEFAULT_SEED), "simd": simd()},
        "recipes": fingerprint(configs, args.threads),
    }
    if not args.check:
        STORED.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {STORED}")
        return 0
    stored = json.loads(STORED.read_text())
    made = (stored["reps"], stored["environment"]["seed"])
    if made != (REPS, DEFAULT_SEED):
        print(f"error: {STORED.name} was made at {made[0]} reps, seed {made[1]}", file=sys.stderr)
        return 2
    stored_simd = stored["environment"].get("simd")
    print(f"simd (host):   {' '.join(report['environment']['simd'])}")
    print(f"simd (stored): {'not recorded' if stored_simd is None else ' '.join(stored_simd)}")
    names = sorted(set(stored["recipes"]) | set(report["recipes"]))
    changed = [
        n for n in names
        if stored["recipes"].get(n, {}).get("sha256") != report["recipes"].get(n, {}).get("sha256")
    ]
    for n in changed:
        print(f"CHANGED {n}")
    print(f"{len(names) - len(changed)}/{len(names)} exact recipes byte-identical (--threads {args.threads})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
