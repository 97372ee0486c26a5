"""Every ``def`` in ``src/borrowsim`` is reached by a run.

The script profiles every Python call (``sys.setprofile`` and
``threading.setprofile``, so the sweep's worker threads count) over:

* CLI runs of every recipe at 300 reps, with the Monte Carlo estimator and,
  where the schema accepts it, the exact one;
* ``borrowsim validate`` and ``borrowsim recipes``;
* a hybrid grid with ``w_tilde`` and a one-arm grid with
  ``power_calibrated``, the configs that reach ``hybrid.mean_posterior_weight``
  and ``OneArmScenario.sd_ext``;
* the exact-t call as perfbench's ``exact-t`` workload makes it, on the
  scenario its ``exact_t_scenario`` builds (the CLI cannot reach that route).

It exits 1 if any function defined in ``src/borrowsim/*.py`` (methods,
nested and decorated functions included) is called by none of these, other
than the entries of ``ALLOWLIST``, each with its reason. An allowlisted name
that a run reaches, or that no longer exists, fails too, so the list cannot
go stale.

    python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "borrowsim"
REPS = 300

# Definitions no run reaches, by design: module.qualname -> why it stays.
ALLOWLIST = {
    "config.check_config": "the tests' error-collecting harness over the schema walk",
    "sweep._json_default": "encodes numpy scalars in rows a library caller builds; "
                           "the sweep's own rows hold Python floats",
}


def definitions(path: Path, module: str) -> dict[int, str]:
    """Each function defined in the file at ``path``, keyed by the first line
    of its code object (its first decorator's, or the ``def`` itself), and
    named ``module.outer.inner``."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[min([d.lineno for d in child.decorator_list] + [child.lineno])] = name
            visit(child, name)

    visit(ast.parse(path.read_text(), str(path)), module)
    return found


def profile(run) -> set[tuple[str, int]]:
    """(file, first line) of every Python function called while ``run()``
    runs, in this thread and in every thread it starts."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def check(files: dict[str, Path], called: set[tuple[str, int]], allowlist: dict[str, str]) -> list[str]:
    """Problems: a function in ``files`` (module name -> path) that nothing
    in ``called`` reached, unless allowlisted; an allowlisted one that was
    reached; an allowlisted name that names no function."""
    problems, names = [], set()
    for module, path in files.items():
        path = Path(path).resolve()
        for line, name in sorted(definitions(path, module).items()):
            names.add(name)
            reached = (str(path), line) in called
            if not reached and name not in allowlist:
                problems.append(f"unreached: {name} ({path.name}:{line})")
            elif reached and name in allowlist:
                problems.append(f"allowlisted but reached: {name} ({path.name}:{line})")
    problems += [f"allowlisted but not defined: {name}" for name in sorted(set(allowlist) - names)]
    return problems


def _exact_t_workload():
    """The exact-t calls of perfbench's ``exact-t`` workload, made as it makes them."""
    import borrowsim
    import workloads

    cfg = workloads.jobs_for("exact-t", seed=1)[0].config
    s = workloads.exact_t_scenario(cfg)
    for bias in cfg["bias"]:
        borrowsim.one_arm_tie_exact(s, bias, use_exact_t=True, scan_points=cfg["scan_points"])


def runs(tmp: Path):
    """Every run the check profiles, in one call."""
    from borrowsim import cli
    from borrowsim.recipes import RECIPES, recipe_config
    from exact_fingerprints import exact_configs

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"error: borrowsim {' '.join(argv)} exited with {code}")

    def run(name, cfg):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(cfg))
        main("run", "--config", str(path), "--reps", str(REPS), "--threads", "2", "--out", str(tmp / name))
        return path

    main("recipes")
    for name in RECIPES:
        main("validate", "--config", str(run(name, recipe_config(name))))
    for name, cfg in exact_configs()[0].items():
        run(f"{name}-exact", cfg)
    run("hybrid-w-tilde", {**recipe_config("fig7"), "metrics": ["tie", "w_tilde"]})
    run("one-arm-calibrated", {**recipe_config("fig1"), "metrics": ["tie", "power_calibrated"]})
    _exact_t_workload()


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from common import import_borrowsim

    import_borrowsim()
    with tempfile.TemporaryDirectory() as tmp:
        called = profile(lambda: runs(Path(tmp)))
    files = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}
    problems = check(files, called, ALLOWLIST)
    for problem in problems:
        print(problem)
    total = sum(len(definitions(p, m)) for m, p in files.items())
    print(f"{total} definitions in src/borrowsim, {len(ALLOWLIST)} allowlisted: "
          f"{len(problems)} failing")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
