"""Native leaves for the turbo backend, built once per host with gcc.

Profiling the serving path put most of its kernel time in the inverted
bottlenecks: whole-tensor NumPy/BLAS passes that materialize the
expanded tensor (at float64) between the expand, depthwise and project
stages.  The paper's fused kernel streams the block row by row instead;
``_native.c`` does the same on the host:

* ``vmcu_bottleneck`` — a whole bottleneck block in one pass per output
  row: pointwise expand, ``k x k`` depthwise at the composite stride
  ``s2*s3`` over zero-bordered rows, pointwise project, every requantize
  and the saturating residual add.  Only a ``k``-row ring of the
  expanded tensor and one row of accumulators are ever held;
* ``vmcu_requant_i32`` / ``vmcu_requant_f64`` — the exact gemmlowp
  requantize in one pass over int32 or float64-held accumulators, with the
  bottleneck's saturating residual add optionally fused in;
* ``vmcu_depthwise`` — the standalone depthwise convolution, on the same
  tap loop and requantize as the bottleneck.

Their multiply-accumulates run as the paper's MCU kernels run them with
SMLAD: int8 operands widened to int16 pairs, and one x86 ``pmaddwd``
adding two products into each int32 lane.  That is exact: an int8
product is at most ``2**14`` in magnitude, so a pair sum is at most
``2**15``; ``pmaddwd`` overflows only on two ``(-32768)*(-32768)``
products, which int8 operands never produce; and the lanes accumulate
modulo ``2**32`` like NumPy's int32.  Weights come from
:func:`pack_i16_pairs`: the reduction axis in int16 pairs, the channel
axis zero-padded to 16k.  The depthwise pairs horizontally adjacent taps,
so its rows are held paired too.  Vectors are sized to the build target
by its predefined macros: 16 int32 lanes under AVX-512BW, 8 under AVX2,
4 under SSE2, which every x86-64 target has, and a portable form of
``pmaddwd`` at 4 lanes elsewhere.  Every build has every leaf.

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

__all__ = [
    "NativeBuildError",
    "build",
    "cache_dir",
    "leaves",
    "pack_i16_pairs",
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


def pack_i16_pairs(w: np.ndarray, seg: int) -> np.ndarray:
    """int8 ``w[..., K, C]`` as int16 pairs ``[..., ceil(K/2), C16, 2]``.

    Element ``[..., t, c, j]`` is ``w[..., 2t + j, c]``: the two
    reduction terms one ``pmaddwd`` lane multiplies.  ``K`` is zero-padded
    to even and ``C`` to ``C16``, a multiple of 16; the zero lanes
    contribute nothing.  The operand layout of the native leaves (``K`` is
    ``c_in`` for the expand, ``c_mid`` for the project and the horizontal
    tap axis for the depthwise ``[k, k, C]``).  A packer for
    :func:`~repro.kernels.base.cached_pack`, with the same contract as
    :func:`~repro.kernels.base.pack_i32` (``seg`` is unused).
    """
    *lead, kdim, c = w.shape
    out = np.zeros((*lead, -(-kdim // 2), _padded(c), 2), dtype=np.int16)
    out[..., :c, 0] = w[..., 0::2, :]
    out[..., : kdim // 2, :c, 1] = w[..., 1::2, :]
    return out


def _packed(
    w: np.ndarray, lead: tuple[int, ...], kdim: int, c: int
) -> np.ndarray:
    """``w`` checked as the :func:`pack_i16_pairs` pack of int8
    ``[*lead, kdim, c]`` weights."""
    shape = (*lead, -(-kdim // 2), _padded(c), 2)
    if w.dtype != np.int16 or w.shape != shape:
        raise ShapeError(
            f"packed weight must be int16{list(shape)}, got "
            f"{w.dtype}{list(w.shape)}"
        )
    return np.ascontiguousarray(w)


def _tap_rows(k: int, stride: int, pad: int, q: int, wd: int, cpad: int):
    """Scratch of the depthwise tap loop for ``q`` outputs per row over
    ``wd``-pixel rows: the zeroed bordered row and the ring of ``k``
    paired rows (``erow`` and ``ring`` in the C source)."""
    ns = (q - 1) * stride + 2 * (-(-k // 2)) - 1
    erow = np.zeros((max(ns + 1, pad + wd), cpad), dtype=np.int16)
    return erow, np.empty((k, ns, cpad, 2), dtype=np.int16)


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
        self._depthwise.argtypes = (ptr,) * 6 + (i32,) * 11
        self._depthwise.restype = None
        self._bottleneck = lib.vmcu_bottleneck
        self._bottleneck.argtypes = (ptr,) * 10 + (i32,) * 18
        self._bottleneck.restype = None
        lib.vmcu_lanes.argtypes = ()
        lib.vmcu_lanes.restype = i32
        #: int32 lanes per vector in this build: 16 under AVX-512BW, 8
        #: under AVX2, 4 otherwise
        self.lanes = int(lib.vmcu_lanes())

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
        ``w`` is the ``pack_i16_pairs`` pack of the ``int8[k, k, C]``
        weights.
        """
        if xb.ndim != 4 or xb.dtype != np.int8:
            raise ShapeError("depthwise needs int8 [B, H, W, C] activations")
        bsz, h, wd, c = xb.shape
        k = w.shape[0]
        w = _packed(w, (k,), k, c)
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
        cp = w.shape[-2]
        erow, ring = _tap_rows(k, stride, pad, q, wd, cp)
        acc = np.empty((q, cp), dtype=np.int32)
        self._depthwise(
            xb.ctypes.data, w.ctypes.data, out.ctypes.data, erow.ctypes.data,
            ring.ctypes.data, acc.ctypes.data, bsz, h, wd, c, k, stride,
            pad, p, q, *self._mult_args(mult),
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
        ``pack_i16_pairs`` packs.
        """
        hw, k = spec.hw, spec.kernel
        if xb.ndim != 4 or xb.dtype != np.int8 or xb.shape[1:] != (
            hw, hw, spec.c_in
        ):
            raise ShapeError(
                f"bottleneck needs int8[B,{hw},{hw},{spec.c_in}], got "
                f"{xb.dtype}{list(xb.shape)}"
            )
        we = _packed(w_expand, (), spec.c_in, spec.c_mid)
        wdw = _packed(w_dw, (k,), k, spec.c_mid)
        wp = _packed(w_project, (), spec.c_mid, spec.c_out)
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
        cm, co = wdw.shape[-2], wp.shape[-2]
        # scratch: one widened input row (its odd column stays zero), the
        # bordered row and k-row paired ring of the expanded tensor, the
        # project's input row, and one row of each stage's raw sums
        xrow = np.zeros((hb, spec.c_in + spec.c_in % 2), dtype=np.int16)
        erow, ring = _tap_rows(k, s2 * s3, spec.padding, p, hb, cm)
        drow = np.empty((p, cm), dtype=np.int16)
        acc = np.empty((hb, max(cm, co)), dtype=np.int32)
        m1, mdw, m2 = mults
        self._bottleneck(
            xb.ctypes.data, out.ctypes.data, we.ctypes.data, wdw.ctypes.data,
            wp.ctypes.data, xrow.ctypes.data, erow.ctypes.data,
            ring.ctypes.data, drow.ctypes.data, acc.ctypes.data, bsz, hw,
            spec.c_in, spec.c_mid, spec.c_out, k, s1, s2 * s3,
            spec.padding, hb, p, int(spec.has_residual),
            *self._mult_args(m1), *self._mult_args(mdw),
            *self._mult_args(m2),
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
    return f"{line}; {found.lanes} int32 lanes"
