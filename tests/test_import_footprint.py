"""Import footprint: ``import borrowsim`` loads numpy and scipy.special only.

scipy.stats is never loaded, and scipy.optimize loads at the first root
solve (``gaussian.brentq``). The check runs in a fresh interpreter, because
this suite's own oracles import both into ``sys.modules``. Run as a script,
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

loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, f"import borrowsim, borrowsim.cli loaded {loaded}"

# The first solves race from four threads, as a sweep's workers would.
sys.setswitchinterval(1e-6)
ext = bs.SufficientStat(0.0, 15, 1.0)
s = bs.OneArmScenario(0.0, 0.5, 20, 1.0, ext, bs.MixturePriorSpec(0.5, ext), seed=1, reps=10)
with ThreadPoolExecutor(4) as pool:
    ties = list(pool.map(lambda _: bs.one_arm_tie_exact(s, 0.3), range(4)))
assert "scipy.optimize" in sys.modules, "the exact TIE solved its region without scipy.optimize"
assert "scipy.stats" not in sys.modules, "a root solve loaded scipy.stats"
assert ties == [bs.one_arm_tie_exact(s, 0.3)] * 4, ties

from scipy.optimize import brentq

def f(x):
    return x**3 - 2.0 * x - 5.0

assert bs.gaussian.brentq(f, 2.0, 3.0, xtol=1e-13) == brentq(f, 2.0, 3.0, xtol=1e-13)
print("import footprint ok")
"""


def test_import_loads_neither_scipy_stats_nor_optimize_until_a_root_solve():
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
