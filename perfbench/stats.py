"""Percentiles with a sample-size rule, and the host fingerprint."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys

#: a percentile is reported as supported only with this many samples
#: strictly beyond it
MIN_BEYOND = 10

#: the names BENCHMARK.json allows for metrics and workloads
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: environment variables that pin the BLAS thread pool; set by run.py
#: before NumPy is imported
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1


def _rank(n: int, pct: int) -> int:
    """1-based nearest rank ``ceil(pct/100 * n)``, in exact integers."""
    return -(-pct * n // 100)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile (``pct`` an integer in 1..100), 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, _rank(len(ordered), pct))) - 1]


def supported(n: int, pct: int) -> bool:
    """Whether ``n`` samples leave at least MIN_BEYOND beyond ``pct``."""
    return n - _rank(n, pct) >= MIN_BEYOND


#: the end-to-end latency percentiles are medians over this many
#: consecutive slices of a run (fewer if a slice would be too small)
SLICES = 5
#: smallest slice: p95 keeps MIN_BEYOND samples beyond it
MIN_SLICE = 200


def sliced_percentile(ordered_values, pct: int) -> tuple[float, int]:
    """Median over consecutive equal-count slices of each slice's percentile.

    ``ordered_values`` are in arrival order.  The host's speed drifts on a
    scale of seconds; a slow stretch moves one slice's percentile, not the
    median across slices.  Returns the value and the number of slices.
    """
    n = len(ordered_values)
    k = max(1, min(SLICES, n // MIN_SLICE))
    slices = [ordered_values[i * n // k:(i + 1) * n // k] for i in range(k)]
    per_slice = sorted(percentile(s, pct) for s in slices)
    mid = len(per_slice) // 2
    if len(per_slice) % 2:
        return per_slice[mid], k
    return (per_slice[mid - 1] + per_slice[mid]) / 2, k


def mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _blas_threads() -> int | None:
    """The loaded OpenBLAS's live thread count, if it can be queried."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted(
                {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
            )
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_live": _blas_threads(),
        "platform": sys.platform,
    }
