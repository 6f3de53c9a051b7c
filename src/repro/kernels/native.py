"""Native leaves for the turbo backend, built once per host with gcc.

Profiling the serving path put most of its kernel time in the inverted
bottlenecks: whole-tensor NumPy/BLAS passes that materialize the
expanded tensor (at float64) between the expand, depthwise and project
stages.  The paper's fused kernel streams the block row by row instead;
``_native.c`` does the same on the host:

* ``vmcu_bottleneck`` — a whole bottleneck block in one pass per output
  row: pointwise expand, ``k x k`` depthwise at the composite stride
  ``s2*s3`` with taps clipped at the zero-padded borders, pointwise
  project, every requantize and the saturating residual add.  Only a
  ``k``-row int32 ring of the expanded tensor and one row of
  accumulators are ever held;
* ``vmcu_requant_i32`` / ``vmcu_requant_f64`` — the exact gemmlowp
  requantize in one pass over int32 or float64-held accumulators, with the
  bottleneck's saturating residual add optionally fused in;
* ``vmcu_depthwise`` — the standalone depthwise convolution, on the same
  tap loop and requantize as the bottleneck.

The depthwise and bottleneck take weights packed by
:func:`pack_i32_pad16` (int32, channel axis zero-padded to 16k) and run one int32 vector per channel block, sized to
the build target: 16 lanes under AVX-512, 8 under AVX2, 4 otherwise.
``vmcu_bottleneck`` is compiled only with 8 or more lanes (AVX2 and
up), so the build target, not an option, decides whether turbo fuses
bottlenecks (:attr:`_Leaves.fused_bottleneck`).

:func:`build` compiles a C source with ``gcc -O3 -march=native -shared
-fPIC`` into a per-user cache (:func:`cache_dir`) under a name hashed from
the source, the flags, the compiler's identity and the CPU's ISA flags —
``-march=native`` code is only valid on the CPU that built it — so each
host compiles once and later processes only load.  :func:`leaves` builds
and loads the leaves on first use, once per process; it returns ``None``
when there is no compiler or the compile fails, and the turbo backend then
keeps its NumPy leaves.  :func:`status` says which path this process
takes, and whether bottlenecks run fused::

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

__all__ = [
    "NativeBuildError",
    "build",
    "cache_dir",
    "leaves",
    "pack_i32_pad16",
    "status",
]

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


#: channel multiple of the leaves' weight operands (``CPAD`` in the C
#: source): their vector loops run whole blocks of this many channels
CHANNEL_PAD = 16


def _padded(c: int) -> int:
    return -(-c // CHANNEL_PAD) * CHANNEL_PAD


def pack_i32_pad16(w: np.ndarray, seg: int) -> np.ndarray:
    """Promote int8 weights to int32, last axis zero-padded to 16k.

    The operand layout of the native depthwise and fused-bottleneck
    leaves; the zero lanes contribute nothing.  A packer for
    :func:`~repro.kernels.base.cached_pack`, with the same contract as
    :func:`~repro.kernels.base.pack_i32` (``seg`` is unused).
    """
    c = w.shape[-1]
    out = np.zeros((*w.shape[:-1], _padded(c)), dtype=np.int32)
    out[..., :c] = w
    return out


def _packed(w: np.ndarray, lead: tuple[int, ...], c: int) -> np.ndarray:
    """``w`` checked as the :func:`pack_i32_pad16` pack of ``c`` channels."""
    shape = (*lead, _padded(c))
    if w.dtype != np.int32 or w.shape != shape:
        raise ShapeError(
            f"packed weight must be int32{list(shape)}, got "
            f"{w.dtype}{list(w.shape)}"
        )
    return np.ascontiguousarray(w)


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
        self._depthwise.argtypes = (ptr,) * 5 + (i32,) * 11
        self._depthwise.restype = None
        lib.vmcu_lanes.argtypes = ()
        lib.vmcu_lanes.restype = i32
        #: int32 lanes per vector in this build: 16 under AVX-512, 8 under
        #: AVX2, 4 otherwise
        self.lanes = int(lib.vmcu_lanes())
        # compiled only for targets with 256-bit or wider integer vectors
        self._bottleneck = getattr(lib, "vmcu_bottleneck", None)
        if self._bottleneck is not None:
            self._bottleneck.argtypes = (ptr,) * 9 + (i32,) * 18
            self._bottleneck.restype = None

    @property
    def fused_bottleneck(self) -> bool:
        """Whether this build has the fused bottleneck leaf."""
        return self._bottleneck is not None

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
        """Depthwise ``int8[B, H, W, C]`` taps, requantized.

        Same contract as ``FastBackend._depthwise_batch``, except that
        ``w`` is the ``pack_i32_pad16`` pack of the ``int8[k, k, C]``
        weights.
        """
        if xb.ndim != 4 or xb.dtype != np.int8:
            raise ShapeError("depthwise needs int8 [B, H, W, C] activations")
        bsz, h, wd, c = xb.shape
        k = w.shape[0]
        w = _packed(w, (k, k), c)
        if stride <= 0 or pad < 0:
            raise ShapeError(f"bad depthwise stride {stride} / pad {pad}")
        p = (h + 2 * pad - k) // stride + 1
        q = (wd + 2 * pad - k) // stride + 1
        if p <= 0 or q <= 0:
            raise ShapeError(
                f"depthwise k={k} pad={pad} collapses {h}x{wd} to {p}x{q}"
            )
        xb = np.ascontiguousarray(xb)
        out = np.empty((bsz, p, q, c), dtype=np.int8)
        # the int32 ring of k input rows and one row of accumulators
        ring = np.zeros((k, wd, w.shape[-1]), dtype=np.int32)
        row = np.empty((q, w.shape[-1]), dtype=np.int32)
        self._depthwise(
            xb.ctypes.data, w.ctypes.data, out.ctypes.data, ring.ctypes.data,
            row.ctypes.data, bsz, h, wd, c, k, stride, pad, p, q,
            *self._mult_args(mult),
        )
        return out

    def bottleneck(
        self, xb, spec, w_expand, w_dw, w_project, mults
    ) -> np.ndarray:
        """The inverted-bottleneck block ``spec`` over ``int8[B, H, H, c_in]``.

        Expand, depthwise at stride ``s2*s3``, project, every requantize
        and the residual add in one pass per output row, holding only a
        ``k``-row ring of the expanded tensor.  Same contract as
        ``FastBackend._bottleneck_batch``, except that the weights are
        ``pack_i32_pad16`` packs; only builds with
        :attr:`fused_bottleneck` have it.
        """
        if self._bottleneck is None:
            raise KernelError("this build has no fused bottleneck leaf")
        hw, k = spec.hw, spec.kernel
        if xb.ndim != 4 or xb.dtype != np.int8 or xb.shape[1:] != (
            hw, hw, spec.c_in
        ):
            raise ShapeError(
                f"bottleneck needs int8[B,{hw},{hw},{spec.c_in}], got "
                f"{xb.dtype}{list(xb.shape)}"
            )
        we = _packed(w_expand, (spec.c_in,), spec.c_mid)
        wdw = _packed(w_dw, (k, k), spec.c_mid)
        wp = _packed(w_project, (spec.c_mid,), spec.c_out)
        s1, s2, s3 = spec.strides
        hb, p = spec.mid_spatial(), spec.spatial_out()
        if spec.has_residual and (p, spec.c_out) != (hw, spec.c_in):
            raise ShapeError(
                f"residual add needs [{hw},{hw},{spec.c_in}] output, got "
                f"[{p},{p},{spec.c_out}]"
            )
        bsz = xb.shape[0]
        xb = np.ascontiguousarray(xb)
        out = np.empty((bsz, p, p, spec.c_out), dtype=np.int8)
        cm, co = wdw.shape[-1], wp.shape[-1]
        # scratch: one widened input row, the k-row ring of the expanded
        # tensor, and one output row each of depthwise and project sums
        xrow = np.empty((hb, spec.c_in), dtype=np.int32)
        ring = np.empty((k, hb, cm), dtype=np.int32)
        dwrow = np.empty((p, cm), dtype=np.int32)
        prow = np.empty((p, co), dtype=np.int32)
        m1, mdw, m2 = mults
        self._bottleneck(
            xb.ctypes.data, out.ctypes.data, we.ctypes.data, wdw.ctypes.data,
            wp.ctypes.data, xrow.ctypes.data, ring.ctypes.data,
            dwrow.ctypes.data, prow.ctypes.data, bsz, hw, spec.c_in,
            spec.c_mid, spec.c_out, k, s1, s2 * s3, spec.padding, hb, p,
            int(spec.has_residual), *self._mult_args(m1),
            *self._mult_args(mdw), *self._mult_args(m2),
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
    """One line on which leaves the turbo backend runs."""
    found = leaves()
    line = f"native leaves: {_loaded[1]}"
    if found is None:
        return line
    if found.fused_bottleneck:
        return f"{line}; fused bottleneck on, {found.lanes} int32 lanes"
    return (
        f"{line}; fused bottleneck off ({found.lanes}-lane int32 vectors, "
        "needs 8 or more): bottlenecks run the BLAS + requantize + "
        "depthwise leaves"
    )
