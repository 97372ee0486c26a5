"""Paths, the program import and the environment block shared by the
benchmark's commands.

The benchmark runs from the root of a source checkout and imports
``borrowsim`` from ``src/`` of that checkout, never from an installed copy,
so every measurement is of the tree being benchmarked.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run leaves behind (job outputs, reports) goes under here.
STATE = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout has no ``src/borrowsim`` to benchmark."""


def import_borrowsim():
    """Import the checkout's ``borrowsim``; raise MissingProgram if absent."""
    if not (SRC / "borrowsim" / "__init__.py").is_file():
        raise MissingProgram(f"no borrowsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import borrowsim

    if Path(borrowsim.__file__).resolve().parent != (SRC / "borrowsim").resolve():
        raise MissingProgram(f"borrowsim was imported from {borrowsim.__file__}, not {SRC}")
    return borrowsim


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """(library path, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), int(fn())
    return (os.path.basename(libs[0]) if libs else None), None


def _llc_bytes():
    sizes = []
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/"):
        try:
            with open(path + "level") as fh:
                level = int(fh.read())
            with open(path + "size") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes.append((level, int(text.rstrip("KMG")) * mult))
    return max(sizes)[1] if sizes else None


def source_digest() -> str:
    """sha256 over the program's source files, stable without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "borrowsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed=None) -> dict:
    """The environment block written into every report."""
    import numpy
    import scipy

    blas_lib, blas_threads = _blas_threads()
    return {
        "cores": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_library": blas_lib,
        "blas_threads": blas_threads,
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
