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
m = bs.GaussianMixture((bs.GaussianComponent(0.0, 0.26), bs.GaussianComponent(1.5, 2.0)), (0.7, 0.3))
with ThreadPoolExecutor(4) as pool:
    qs = list(pool.map(lambda _: bs.mixture_quantile(0.3, m), range(4)))
assert "scipy.optimize" in sys.modules, "mixture_quantile solved without scipy.optimize"
assert "scipy.stats" not in sys.modules, "a root solve loaded scipy.stats"

from scipy.optimize import brentq

lo = float(m.means().min() - 12.0 * m.sds().max())
hi = float(m.means().max() + 12.0 * m.sds().max())
direct = float(brentq(lambda x: bs.mixture_cdf(x, m) - 0.3, lo, hi, xtol=1e-13, rtol=8.9e-16))
assert qs == [direct] * 4, (qs, direct)
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
