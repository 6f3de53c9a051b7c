"""Native leaves for the turbo backend, built once per host with gcc.

Profiling the serving path put most of its kernel time in the inverted
bottlenecks: whole-tensor NumPy/BLAS passes that materialize the
expanded tensor (at float64) between the expand, depthwise and project
stages.  The paper's fused kernel streams the block row by row instead;
``_native.c`` does the same on the host, and runs every other pipeline
stage too, so a whole segment of a compiled model is one call to the
library's one compute entry:

* ``vmcu_segment`` — the stages of a segment in order over a batch, from
  a table of stage rows (:class:`SegmentTable`: each stage's kind,
  geometry, requantize multipliers and the addresses of its packed
  weights), each stage writing its own output array; a single stage is
  a one-row table.  The rows come from :func:`pointwise_stage`,
  :func:`dense_stage`, :func:`bottleneck_stage` and
  :func:`avgpool_stage`; their layout is private to this module and the
  C source, which checks it when the library loads.  A bottleneck row
  runs pointwise expand, ``k x k`` depthwise at the composite stride
  ``s2*s3`` over zero-bordered rows, pointwise project, every requantize
  and the saturating residual add, holding only a ``k``-row ring of the
  expanded tensor (as int16 pairs) and the project's int16 input row; a
  pointwise or dense row runs int16-pair GEMM rows over strided pixels,
  64 pixels at a time; an average-pool row sums and requantizes.

The library's other exports (``vmcu_stage_fields``, ``vmcu_lanes`` and
``vmcu_accumulate``) describe the build and are checked when it loads.
Kernel-API calls that no compiled model makes, the standalone depthwise
and conv2d, have no native leaf: turbo runs them on its portable leaves.
Every stage allocates its own scratch, so concurrent callers share only
read-only inputs.

The stages' multiply-accumulates run as the paper's MCU kernels run them
with SMLAD: int8 operands widened to int16 pairs, and one x86 ``pmaddwd``
adding two products into each int32 lane (or one ``vpdpwssd``, which
also adds them to the accumulator, on AVX512-VNNI targets).  That is
exact: an int8 product is at most ``2**14`` in magnitude, so a pair sum
is at most ``2**15``; ``pmaddwd`` overflows only on two
``(-32768)*(-32768)`` products, which int8 operands never produce; and
the lanes accumulate modulo ``2**32`` like NumPy's int32.  Weights come
from :func:`pack_i16_pairs`: the reduction axis in int16 pairs, the
channel axis zero-padded to 16k.  The bottleneck's depthwise pairs
horizontally adjacent taps, so its ring rows are held paired too.
Vectors are sized to the build target by its predefined macros: 16 int32
lanes under AVX-512BW, 8 under AVX2, 4 under SSE2, which every x86-64
target has, and a portable form of ``pmaddwd`` at 4 lanes elsewhere.
Every build runs every stage kind.

Both multiply-accumulate loops (GEMM rows and depthwise taps) run
register blocks of pixels by channel vectors, at least 8 independent
accumulators wherever the row is long enough, and each block ends in
the requantize, written straight from its accumulators to int8 output
pixels, the next GEMM's int16 operands or the depthwise ring's int16
pairs: no int32 row of accumulators is ever stored.

:func:`build` compiles a C source with ``gcc -O3 -march=native -shared
-fPIC`` into a per-user cache (:func:`cache_dir`) under a name hashed from
the source, the flags, the compiler's identity and the CPU's ISA flags —
``-march=native`` code is only valid on the CPU that built it — so each
host compiles once and later processes only load.  :func:`leaves` builds
and loads the leaves on first use, once per process; it returns ``None``
when there is no compiler or the compile fails, and the turbo backend then
keeps its NumPy and BLAS leaves.  :func:`status` says which path this process
takes, and for the loaded build its lanes and accumulate instruction::

    python -c "from repro.kernels.native import status; print(status())"
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import KernelError, QuantizationError, ShapeError

__all__ = [
    "NativeBuildError",
    "SegmentTable",
    "Stage",
    "avgpool_stage",
    "bottleneck_stage",
    "build",
    "cache_dir",
    "dense_stage",
    "leaves",
    "pack_i16_pairs",
    "pointwise_stage",
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


#: what a build's multiply-accumulates run (``vmcu_accumulate``):
#: ``vpdpwssd`` under AVX512-VNNI, ``pmaddwd`` and an add on other x86-64
#: targets, the portable form of ``pmaddwd`` elsewhere
_ACCUMULATE = ("vpdpwssd", "pmaddwd", "portable pmaddwd")

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


def _mult_args(mult) -> tuple[int, int]:
    if not 0 <= mult.shift < 64:
        raise QuantizationError(f"shift {mult.shift} outside [0, 64)")
    return mult.multiplier, mult.shift


# --------------------------------------------------------------------------- #
# stage rows
# --------------------------------------------------------------------------- #
#: the int64 fields of one stage row, in the order of the ``F_*`` fields of
#: ``_native.c`` (which documents them); checked against the library when
#: it loads
_STAGE_FIELDS = (
    "kind", "h", "w", "c_in", "c_mid", "c_out", "k", "s1", "stride", "pad",
    "hb", "p", "q", "residual", "m0", "sh0", "m1", "sh1", "m2", "sh2",
    "w0", "w1", "w2",
)
#: values of the ``kind`` field
_POINTWISE, _BOTTLENECK, _AVGPOOL = 0, 1, 2


class Stage(NamedTuple):
    """One pipeline stage as a row of the native leaves' stage table."""

    #: ``int64[len(_STAGE_FIELDS)]``
    row: np.ndarray
    #: what the stage reads and writes per batch element
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    #: the packed weights whose addresses the row holds
    packs: tuple[np.ndarray, ...]
    #: whether a batch element of any shape with ``prod(in_shape)``
    #: elements is read as ``in_shape`` (a dense stage's input rows, as
    #: the fast backend reads them); otherwise it must be ``in_shape``
    flat_input: bool = False


def _stage(kind, in_shape, out_shape, packs=(), mults=(), **fields) -> Stage:
    fields["kind"] = kind
    for i, w in enumerate(packs):
        fields[f"w{i}"] = w.ctypes.data
    for i, mult in enumerate(mults):
        fields[f"m{i}"], fields[f"sh{i}"] = _mult_args(mult)
    row = np.array([fields.get(f, 0) for f in _STAGE_FIELDS], dtype=np.int64)
    row.setflags(write=False)
    return Stage(row, in_shape, out_shape, tuple(packs))


def pointwise_stage(h, wd, c_in, c_out, stride, w, mult) -> Stage:
    """``int8[h, wd, c_in]`` -> ``int8[p, q, c_out]``, keeping every
    ``stride``-th pixel; ``w`` is the :func:`pack_i16_pairs` pack of the
    ``int8[c_in, c_out]`` weights."""
    if min(h, wd, c_in, c_out, stride) <= 0:
        raise ShapeError(
            f"bad pointwise geometry {h}x{wd}x{c_in}->{c_out} / {stride}"
        )
    p, q = (h - 1) // stride + 1, (wd - 1) // stride + 1
    return _stage(
        _POINTWISE, (h, wd, c_in), (p, q, c_out),
        (_packed(w, (), c_in, c_out),), (mult,),
        h=h, w=wd, c_in=c_in, c_out=c_out, stride=stride, p=p, q=q,
    )


def dense_stage(m, k, n, w, mult) -> Stage:
    """``int8[m, k]`` -> ``int8[m, n]``: a pointwise stage over ``m``
    pixels; ``w`` is the pack of the ``int8[k, n]`` weights."""
    stage = pointwise_stage(m, 1, k, n, 1, w, mult)
    return stage._replace(
        in_shape=(m, k), out_shape=(m, n), flat_input=True
    )


def bottleneck_stage(spec, we, wdw, wp, mults) -> Stage:
    """The inverted-bottleneck block ``spec``: ``int8[hw, hw, c_in]`` ->
    ``int8[p, p, c_out]``, with the packs of its expand, depthwise and
    project weights and their three multipliers."""
    hw, k = spec.hw, spec.kernel
    packs = (
        _packed(we, (), spec.c_in, spec.c_mid),
        _packed(wdw, (k,), k, spec.c_mid),
        _packed(wp, (), spec.c_mid, spec.c_out),
    )
    s1, s2, s3 = spec.strides
    hb, p = spec.mid_spatial(), spec.spatial_out()
    if spec.has_residual and (p, spec.c_out) != (hw, spec.c_in):
        raise ShapeError(
            f"residual add needs [{hw},{hw},{spec.c_in}] output, got "
            f"[{p},{p},{spec.c_out}]"
        )
    return _stage(
        _BOTTLENECK, (hw, hw, spec.c_in), (p, p, spec.c_out), packs, mults,
        h=hw, w=hw, c_in=spec.c_in, c_mid=spec.c_mid, c_out=spec.c_out, k=k,
        s1=s1, stride=s2 * s3, pad=spec.padding, hb=hb, p=p, q=p,
        residual=int(spec.has_residual),
    )


def avgpool_stage(h, wd, c, mult) -> Stage:
    """``int8[h, wd, c]`` -> ``int8[c]``: the requantized sum over every
    pixel (``mult`` folds in the averaging)."""
    if min(h, wd, c) <= 0:
        raise ShapeError(f"bad average-pool geometry {h}x{wd}x{c}")
    return _stage(_AVGPOOL, (h, wd, c), (c,), mults=(mult,), h=h, w=wd, c_in=c)


class SegmentTable:
    """A chain of stages bound for one ``vmcu_segment`` call.

    Immutable once built.  It holds every pack its rows point at, so
    whoever holds the table holds the weights it runs; a caller whose
    weights changed binds a new table rather than editing this one.
    The rows' address is taken once, here, since the rows never move.
    """

    __slots__ = (
        "rows", "rows_ptr", "in_shape", "flat_input", "out_shapes", "packs",
    )

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise ShapeError("a segment needs at least one stage")
        for a, b in zip(stages, stages[1:]):
            if math.prod(a.out_shape) != math.prod(b.in_shape):
                raise ShapeError(
                    f"stage output {list(a.out_shape)} cannot feed a stage "
                    f"reading {list(b.in_shape)}"
                )
        self.rows = np.stack([s.row for s in stages])
        self.rows.setflags(write=False)
        self.rows_ptr = self.rows.ctypes.data
        self.in_shape = stages[0].in_shape
        self.flat_input = stages[0].flat_input
        self.out_shapes = tuple(s.out_shape for s in stages)
        self.packs = tuple(w for s in stages for w in s.packs)


def _batch(xb, shape, flat: bool) -> np.ndarray:
    """``xb`` checked as ``int8[B, *shape]``, C-contiguous; with ``flat``,
    any ``xb`` of ``prod(shape)`` elements per batch element, reshaped."""
    if flat and xb.ndim and xb.size == len(xb) * math.prod(shape):
        xb = xb.reshape(len(xb), *shape)
    if xb.dtype != np.int8 or xb.shape[1:] != shape:
        raise ShapeError(
            f"stage needs int8[B,{','.join(map(str, shape))}], got "
            f"{xb.dtype}{list(xb.shape)}"
        )
    return np.ascontiguousarray(xb)


def _check(status: int) -> None:
    if status:
        raise MemoryError("a native leaf could not allocate its scratch")


class _Leaves:
    """Typed ctypes bindings of the compiled ``_native.c``."""

    def __init__(self, lib: ctypes.CDLL):
        ptr, i32 = ctypes.c_void_p, ctypes.c_int32
        self._segment = lib.vmcu_segment
        self._segment.argtypes = (ptr, i32, i32, ptr, ptr)
        for fn in (self._segment, lib.vmcu_stage_fields, lib.vmcu_lanes):
            fn.restype = i32
        lib.vmcu_accumulate.restype = ctypes.c_char_p
        lib.vmcu_stage_fields.argtypes = lib.vmcu_lanes.argtypes = ()
        lib.vmcu_accumulate.argtypes = ()
        if lib.vmcu_stage_fields() != len(_STAGE_FIELDS):
            raise NativeBuildError(
                f"the library's stage rows have {lib.vmcu_stage_fields()} "
                f"fields, this module writes {len(_STAGE_FIELDS)}"
            )
        #: int32 lanes per vector in this build: 16 under AVX-512BW, 8
        #: under AVX2, 4 otherwise
        self.lanes = int(lib.vmcu_lanes())
        #: the multiply-accumulate instruction of this build, one of
        #: ``_ACCUMULATE``
        self.accumulate = lib.vmcu_accumulate().decode()
        if self.accumulate not in _ACCUMULATE:
            raise NativeBuildError(
                f"the library accumulates with {self.accumulate!r}, not one "
                f"of {_ACCUMULATE}"
            )

    def segment(self, table: SegmentTable, xb) -> list[np.ndarray]:
        """Every stage of ``table`` over the batch ``xb`` in one call.

        Returns one new array per stage, ``int8[B, *out_shape]``: each
        stage's output is its own allocation, so holding one stage's
        result never pins another's.
        """
        xb = _batch(xb, table.in_shape, table.flat_input)
        bsz = len(xb)
        outs = [np.empty((bsz, *s), dtype=np.int8) for s in table.out_shapes]
        _check(self._segment(
            table.rows_ptr, len(outs), bsz, xb.ctypes.data,
            (ctypes.c_void_p * len(outs))(*[o.ctypes.data for o in outs]),
        ))
        return outs


#: guards the one-time build-and-load below; named in
#: ``kernels.base._serving_locks`` so a caller forking while another
#: thread builds cannot leave it locked in the child
_LOCK = threading.Lock()
#: (leaves or None, status line) once this process has tried to load
_loaded: tuple[_Leaves | None, str] | None = None


def _load() -> tuple[_Leaves | None, str]:
    try:
        path = build(SOURCE.read_text())
        leaves = _Leaves(ctypes.CDLL(str(path)))
    except (NativeBuildError, OSError, AttributeError) as exc:
        return None, (
            f"unavailable ({exc}); turbo runs BLAS GEMMs, requantize_fast "
            "and the NumPy tap loop"
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
    """One line on which leaves the turbo backend runs: for the native
    build, its int32 lanes and accumulate instruction (``16 int32 lanes,
    vpdpwssd``)."""
    found = leaves()
    line = f"native leaves: {_loaded[1]}"
    if found is None:
        return line
    return f"{line}; {found.lanes} int32 lanes, {found.accumulate}"
