"""Command-line front end: run sweeps, validate scenario files, list recipes."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, normalize_config
from .recipes import RECIPES, list_recipes, recipe_config
from .sweep import cost_estimate, run_config, write_outputs


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: {path} is not UTF-8 text (byte {exc.start}): {exc.reason}")
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        )
    if not isinstance(cfg, dict):
        raise SystemExit(f"error: {path} is not a JSON object of scenario fields")
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    """Seed/reps precedence: CLI flag, then environment, then the file."""
    cfg = dict(cfg)
    for key, env in (("seed", "OC_SEED"), ("reps", "OC_REPS")):
        value = os.environ.get(env)
        if value is not None:
            try:
                cfg[key] = int(value)
            except ValueError:
                raise ConfigError([f"{env}: must be an integer, got {value!r}"])
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        cfg["reps"] = args.reps
    return cfg


def _threads(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _resolve_config(args) -> dict:
    if bool(args.config) == bool(args.recipe):
        raise SystemExit("error: give exactly one of --config or --recipe")
    if args.recipe:
        if args.recipe not in RECIPES:
            raise SystemExit(
                f"error: unknown recipe {args.recipe!r}; see the 'recipes' command"
            )
        return recipe_config(args.recipe)
    return _load_config(args.config)


def _cmd_run(args) -> int:
    cfg = normalize_config(_apply_overrides(_resolve_config(args), args))
    out_dir = args.out or os.path.join("results", cfg["scenario_id"])
    result = run_config(cfg, threads=args.threads)
    try:
        written = write_outputs(result, cfg, out_dir)
    except OSError as exc:
        print(f"error: cannot write outputs to {out_dir}: {exc}", file=sys.stderr)
        return 1
    for line in result.summary_lines():
        print(f"{cfg['scenario_id']}: {line}")
    print(f"{cfg['scenario_id']}: wrote {', '.join(written)}")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = normalize_config(_apply_overrides(_load_config(args.config), args))
    except ConfigError as exc:
        for e in exc.errors:
            print(f"invalid: {e}")
        return 2
    cells, draws = cost_estimate(cfg)
    print(f"OK: {cfg['scenario_id']} ({cfg['kind']}, {cfg['trial']})")
    print(f"cells: {cells}")
    print(f"monte carlo draws: {draws}")
    return 0


def _cmd_recipes(_args) -> int:
    print(list_recipes())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borrowsim",
        description="Operating-characteristics sweeps for borrowing designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file or built-in recipe")
    run.add_argument("--config", help="path to a scenario JSON file")
    run.add_argument("--recipe", help="name of a built-in recipe")
    run.add_argument("--out", help="output directory (default results/<scenario_id>)")
    run.add_argument("--seed", type=int, help="override the seed")
    run.add_argument("--reps", type=int, help="override the replication count")
    run.add_argument("--threads", type=_threads, help="worker threads (default: all cores)")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario file without running it")
    val.add_argument("--config", required=True)
    val.add_argument("--seed", type=int, help="seed to assume for the check")
    val.add_argument("--reps", type=int, help="replication count to assume")
    val.set_defaults(func=_cmd_validate)

    rec = sub.add_parser("recipes", help="list built-in recipes")
    rec.set_defaults(func=_cmd_recipes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except ConfigError as exc:
        for e in exc.errors:
            print(f"invalid: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone (``borrowsim recipes | head -n 1``): stdout
        # points at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
