"""Native leaves for the turbo backend, built once per host with gcc.

Profiling the serving path put most of its kernel time in two NumPy
leaves: the requantize epilogue (many whole-tensor int64 passes) and the
depthwise tap loop (a padded int32 copy plus ``k*k`` strided passes).  The
paper's kernels run both as one fused pass per output element;
``_native.c`` does the same on the host:

* ``vmcu_requant_i32`` / ``vmcu_requant_f64`` — the exact gemmlowp
  requantize in one pass over int32 or float64-held accumulators, with the
  bottleneck's saturating residual add optionally fused in;
* ``vmcu_depthwise`` — a ``k x k`` depthwise convolution that clips taps
  at the zero-padded borders, takes the stride directly, accumulates in
  int32 and requantizes in the same pass.

:func:`build` compiles a C source with ``gcc -O3 -march=native -shared
-fPIC`` into a per-user cache (:func:`cache_dir`) under a name hashed from
the source, the flags, the compiler's identity and the CPU's ISA flags —
``-march=native`` code is only valid on the CPU that built it — so each
host compiles once and later processes only load.  :func:`leaves` builds
and loads the leaves on first use, once per process; it returns ``None``
when there is no compiler or the compile fails, and the turbo backend then
keeps its NumPy leaves.  :func:`status` says which path this process
takes::

    python -c "from repro.kernels.native import status; print(status())"
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import threading
from pathlib import Path

import numpy as np

from repro.errors import KernelError, QuantizationError, ShapeError

__all__ = ["NativeBuildError", "build", "cache_dir", "leaves", "status"]

COMPILER = "gcc"
CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_native.c")
#: a compile that has not finished by then is treated as a failed build
COMPILE_TIMEOUT_S = 120.0


class NativeBuildError(KernelError):
    """The host compiler is missing or rejected a native source."""


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro/native``.

    ``XDG_CACHE_HOME`` defaults to ``~/.cache``.  Deleting the directory
    is always safe; the next process rebuilds what it needs.
    """
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro" / "native"


def _cpu_flags() -> str:
    """The ISA flags ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _compiler_id(cc: str) -> str:
    """The compiler's version identity, read without running it.

    The resolved driver binary (``gcc`` -> ``x86_64-linux-gnu-gcc-12``)
    names the release, and its size and mtime change with every upgrade.
    """
    real = os.path.realpath(cc)
    st = os.stat(real)
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


def _compile(cc: str, source: str, out: str) -> None:
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-", "-o", out],
            input=source, capture_output=True, text=True,
            timeout=COMPILE_TIMEOUT_S, check=False,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"{cc} could not run: {exc}") from exc
    if proc.returncode != 0:
        raise NativeBuildError(
            f"{cc} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        )


def build(source: str, *, directory: Path | None = None) -> Path:
    """Compile ``source`` to a shared library, once per host; its path.

    A cached library is returned without running the compiler.  A build
    compiles to a name private to its process and thread, then
    ``os.replace``\\ s it into place, so concurrent builders — threads or
    processes — leave exactly one complete library and never expose a
    partial one.  Raises :class:`NativeBuildError` when no compiler is on
    ``PATH`` or the compile fails.
    """
    cc = shutil.which(COMPILER)
    if cc is None:
        raise NativeBuildError(f"no {COMPILER} on PATH")
    key = hashlib.sha256(
        "\0".join(
            (source, " ".join(CFLAGS), _compiler_id(cc), _cpu_flags())
        ).encode()
    ).hexdigest()[:24]
    directory = cache_dir() if directory is None else Path(directory)
    path = directory / f"repro-{key}.so"
    if path.is_file():
        return path
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise NativeBuildError(f"cannot create {directory}: {exc}") from exc
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        _compile(cc, source, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class _Leaves:
    """Typed ctypes bindings of the compiled ``_native.c``."""

    def __init__(self, lib: ctypes.CDLL):
        ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
        self._requant_i32 = lib.vmcu_requant_i32
        self._requant_f64 = lib.vmcu_requant_f64
        for fn in (self._requant_i32, self._requant_f64):
            fn.argtypes = (ptr, ptr, ptr, i64, i32, i32)
            fn.restype = None
        self._depthwise = lib.vmcu_depthwise
        self._depthwise.argtypes = (ptr, ptr, ptr) + (i32,) * 11
        self._depthwise.restype = None

    @staticmethod
    def _mult_args(mult) -> tuple[int, int]:
        if not 0 <= mult.shift < 64:
            raise QuantizationError(f"shift {mult.shift} outside [0, 64)")
        return mult.multiplier, mult.shift

    def requantize(self, acc, mult, residual=None) -> np.ndarray:
        """:func:`repro.quant.requantize` in one pass, plus an optional
        saturating int8 ``residual`` add (same element count as ``acc``).

        float64 accumulators must hold integers (the turbo GEMM's exact
        products); anything else is read as int32, as ``requantize`` does.
        """
        acc = np.asarray(acc)
        if acc.dtype == np.float64:
            acc, fn = np.ascontiguousarray(acc), self._requant_f64
        else:
            acc = np.ascontiguousarray(acc, dtype=np.int32)
            fn = self._requant_i32
        res_ptr = None
        if residual is not None:
            if residual.dtype != np.int8 or residual.size != acc.size:
                raise ShapeError(
                    f"residual must be int8 with {acc.size} elements, got "
                    f"{residual.dtype}{list(residual.shape)}"
                )
            residual = np.ascontiguousarray(residual)
            res_ptr = residual.ctypes.data
        out = np.empty(acc.shape, dtype=np.int8)
        fn(acc.ctypes.data, res_ptr, out.ctypes.data, acc.size,
           *self._mult_args(mult))
        return out

    def depthwise(self, xb, w, mult, stride: int, pad: int) -> np.ndarray:
        """Depthwise ``int8[B, H, W, C] * int8[k, k, C]``, requantized.

        Same contract as ``FastBackend._depthwise_batch``.
        """
        if xb.ndim != 4 or xb.dtype != np.int8 or w.dtype != np.int8:
            raise ShapeError("depthwise needs int8 [B, H, W, C] activations")
        bsz, h, wd, c = xb.shape
        k = w.shape[0]
        if w.shape != (k, k, c):
            raise ShapeError(f"depthwise weight must be [k, k, {c}]")
        if stride <= 0 or pad < 0:
            raise ShapeError(f"bad depthwise stride {stride} / pad {pad}")
        p = (h + 2 * pad - k) // stride + 1
        q = (wd + 2 * pad - k) // stride + 1
        if p <= 0 or q <= 0:
            raise ShapeError(
                f"depthwise k={k} pad={pad} collapses {h}x{wd} to {p}x{q}"
            )
        xb = np.ascontiguousarray(xb)
        w = np.ascontiguousarray(w)
        out = np.empty((bsz, p, q, c), dtype=np.int8)
        self._depthwise(
            xb.ctypes.data, w.ctypes.data, out.ctypes.data,
            bsz, h, wd, c, k, stride, pad, p, q, *self._mult_args(mult),
        )
        return out


#: guards the one-time build-and-load below; named in
#: ``kernels.base._serving_locks`` so a fork mid-build cannot leave it
#: locked in the child
_LOCK = threading.Lock()
#: (leaves or None, status line) once this process has tried to load
_loaded: tuple[_Leaves | None, str] | None = None


def _load() -> tuple[_Leaves | None, str]:
    try:
        path = build(SOURCE.read_text())
        leaves = _Leaves(ctypes.CDLL(str(path)))
    except (NativeBuildError, OSError, AttributeError) as exc:
        return None, (
            f"unavailable ({exc}); turbo runs requantize_fast and the "
            "NumPy tap loop"
        )
    return leaves, f"loaded from {path}"


def leaves() -> _Leaves | None:
    """The native leaves, built and loaded on first use in this process.

    ``None`` if this host cannot build them; the outcome is memoized, so
    a failed build is not retried until the next process.
    """
    global _loaded
    state = _loaded
    if state is None:
        with _LOCK:
            if _loaded is None:
                _loaded = _load()
            state = _loaded
    return state[0]


def status() -> str:
    """One line on which requantize/depthwise leaves the turbo backend runs."""
    leaves()
    return f"native leaves: {_loaded[1]}"
