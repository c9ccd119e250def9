"""Machine record attached to every result.

Everything here is read-only: Python and numpy introspection, this process's
own memory map, ``/proc/cpuinfo`` and the CPU cache entries in sysfs.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

CLOCK_NOTE = (
    "all timings come from each process's own time.perf_counter; "
    "no system-wide tracing or profiling is used"
)

# Environment variables the benchmark sets to pin BLAS to one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def last_level_cache() -> str | None:
    """Size of cpu0's highest-level data or unified cache, e.g. '32768K'."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size and kind != "Instruction":
            if best is None or int(level) > best[0]:
                best = (int(level), size)
    return f"L{best[0]} {best[1]}" if best else None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
        "clocks": CLOCK_NOTE,
    }
