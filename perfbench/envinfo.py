"""Environment block attached to every benchmark result.

The BLAS thread count alone can flip the sign of a result on a small box,
so it is recorded twice: as the environment variables set, and as the
count the loaded BLAS library reports when it can be asked.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_library_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def src_line_count(src: Path) -> int:
    total = 0
    for path in sorted(src.rglob("*.py")):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def environment(src: Path) -> dict:
    library_threads = blas_library_threads()
    env_threads = {name: os.environ[name] for name in THREAD_VARS if name in os.environ}
    cores = nproc()
    counts = [library_threads] if library_threads is not None else []
    counts += [int(v) for v in env_threads.values() if v.isdigit()]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads": {"env": env_threads, "library": library_threads},
        "nproc": cores,
        "threads_exceed_nproc": any(c > cores for c in counts),
        "platform": platform.platform(),
        "src_lines": src_line_count(src),
    }
