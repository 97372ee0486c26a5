"""Import footprint: ``import borrowsim`` loads numpy and scipy.special only.

scipy.stats is never loaded, and neither is scipy.optimize, not even by a
root solve: ``gaussian.brentq`` is Brent's method in Python, run here by an
exact TIE raced from four threads and by a calibrated one-arm grid's exact
probe. The check runs in a fresh interpreter, because this suite's own
oracles import both into ``sys.modules``. Run as a script,
``python tests/test_import_footprint.py`` makes the same check against
whichever borrowsim the interpreter finds, an installed one included.
"""

import os
import subprocess
import sys

FOOTPRINT = r"""
import sys
from concurrent.futures import ThreadPoolExecutor

import borrowsim as bs
import borrowsim.cli
from borrowsim import onearm, sweep

loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, f"import borrowsim, borrowsim.cli loaded {loaded}"

# Count the root solves, so neither footprint check below passes vacuously.
solves = []
solve = onearm.brentq
onearm.brentq = lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs)

# The first solves race from four threads, as a sweep's workers would.
sys.setswitchinterval(1e-6)
ext = bs.SufficientStat(0.0, 15, 1.0)
s = bs.OneArmScenario(0.0, 0.5, 20, 1.0, ext, bs.MixturePriorSpec(0.5, ext), seed=1, reps=10)
with ThreadPoolExecutor(4) as pool:
    ties = list(pool.map(lambda _: bs.one_arm_tie_exact(s, 0.3), range(4)))
assert solves, "the exact TIE solved no root"
loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, f"the exact TIE's root solves loaded {loaded}"
assert ties == [bs.one_arm_tie_exact(s, 0.3)] * 4, ties

# A calibrated grid's probe refines exact regions in the sweep's workers.
solves.clear()
cfg = {"schema_version": 1, "trial": "one-arm", "kind": "grid", "scenario_id": "footprint",
       "seed": 1, "n": 20, "n_ext": 15, "reps": 200, "metrics": ["tie", "power_calibrated"],
       "sweep": {"location": ["null_boundary"], "n_robust": [1.0], "w": [0.5], "bias": [0.0, 0.5]}}
rows = sweep.run_config(cfg, threads=2).rows
assert solves and all(row.power_calibrated is not None for row in rows), (solves, rows)
loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, f"the calibration probe's root solves loaded {loaded}"

from scipy.optimize import brentq

def f(x):
    return x**3 - 2.0 * x - 5.0

assert bs.gaussian.brentq(f, 2.0, 3.0, xtol=1e-13) == brentq(f, 2.0, 3.0, xtol=1e-13)
print("import footprint ok")
"""


def test_import_and_root_solves_load_neither_scipy_stats_nor_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "import footprint ok"


if __name__ == "__main__":
    exec(FOOTPRINT)
