"""Tests for whole-library C generation (Section 6.2).

Structural checks on the emitted source, plus the semantic one: the
library compiled with the host ``gcc`` must leave the segment pool bit
for bit as :class:`~repro.ir.interpreter.Interpreter` leaves it when both
run the same IR on the same shapes.
"""

import ctypes

import numpy as np
import pytest

from repro.core.pool import CircularSegmentPool
from repro.errors import LoweringError
from repro.ir.codegen_c import CCodegen
from repro.ir.interpreter import Interpreter
from repro.ir.library import (
    build_depthwise_kernel,
    build_fc_kernel,
    build_pointwise_kernel,
)
from repro.kernels import native
from repro.kernels.fully_connected import FullyConnectedKernel, pack_fc_weights
from repro.kernels.pointwise import PointwiseConvKernel
from repro.quant import quantize_multiplier
from tests.conftest import random_int8

MULT = quantize_multiplier(0.02)


def full_library():
    return [
        build_fc_kernel(4, MULT),
        build_pointwise_kernel(4, MULT),
        build_depthwise_kernel(8, MULT),
    ]


class TestGenerateLibrary:
    def test_all_kernels_present_once(self):
        src = CCodegen().generate_library(full_library())
        for name in ("vmcu_fc", "vmcu_pointwise", "vmcu_depthwise"):
            assert src.count(f"void {name}(") == 1

    def test_preamble_emitted_once(self):
        src = CCodegen().generate_library(full_library())
        assert src.count("vmcu_pool_t") >= 3
        assert src.count("typedef struct") == 1
        assert src.count("static inline uint32_t vmcu_wrap") == 1

    def test_per_kernel_segment_constants(self):
        src = CCodegen().generate_library(full_library())
        assert "#define VMCU_SEG 4" in src
        assert "#define VMCU_SEG 8" in src
        # redefinitions are preceded by #undef so the unit compiles cleanly
        assert src.count("#undef VMCU_SEG") == 3

    def test_balanced_braces(self):
        src = CCodegen().generate_library(full_library())
        assert src.count("{") == src.count("}")

    def test_duplicate_names_rejected(self):
        progs = [build_fc_kernel(4, MULT), build_fc_kernel(8, MULT)]
        with pytest.raises(LoweringError):
            CCodegen().generate_library(progs)

    def test_empty_library_rejected(self):
        with pytest.raises(LoweringError):
            CCodegen().generate_library([])

    def test_code_size_independent_of_shapes(self):
        """Section 6.2: dynamic shapes keep library size configuration-free.

        Generating the library is the whole story — no per-shape variants
        exist, so the source is identical no matter which layer shapes the
        deployment will run.
        """
        a = CCodegen().generate_library(full_library())
        b = CCodegen().generate_library(full_library())
        assert a == b


# --------------------------------------------------------------------------- #
# the library compiled for the host vs the interpreter
# --------------------------------------------------------------------------- #
#: one segment size for every drawn shape: the compiled functions take
#: shapes as runtime parameters, so a single build serves them all
SEG = 4


class _Pool(ctypes.Structure):
    """``vmcu_pool_t`` from the generated preamble."""

    _fields_ = [
        ("data", ctypes.c_void_p),
        ("n_slots", ctypes.c_uint32),
        ("seg_bytes", ctypes.c_uint32),
    ]


@pytest.fixture(scope="module")
def host_library(tmp_path_factory):
    programs = [build_fc_kernel(SEG, MULT), build_pointwise_kernel(SEG, MULT)]
    src = CCodegen().generate_library(programs)
    try:
        path = native.build(src, directory=tmp_path_factory.mktemp("codegen"))
    except native.NativeBuildError as exc:
        pytest.skip(str(exc))
    lib = ctypes.CDLL(str(path))
    return {p.name: (getattr(lib, p.name), p) for p in programs}


def run_both(fn, program, x, weights, plan, params, *, rotate: bool):
    """Run ``program`` compiled and interpreted; both final pool images.

    With ``rotate``, both tensor bases move so the lower one sits on the
    last slot (the circular pool is translation invariant, so the plan
    stays valid) and the kernel's addresses run past the end and wrap.
    """
    n_slots = plan.span_slots
    shift = n_slots - 1 - min(plan.in_base, plan.out_base) if rotate else 0
    in_base = plan.in_base + shift
    out_base = plan.out_base + shift
    if rotate:
        assert max(in_base + plan.in_segments, out_base + plan.out_segments) > n_slots
    params = dict(params, in_base=in_base, out_base=out_base)
    flash = pack_fc_weights(weights, SEG).view(np.uint8).ravel()

    pool = CircularSegmentPool(n_slots, SEG)
    pool.store_tensor(in_base, x, "In")
    Interpreter(
        program, pool=pool, flash={"Weight": flash}, params=params
    ).execute()

    image = np.zeros((n_slots, SEG), dtype=np.uint8)
    segments = x.view(np.uint8).reshape(-1, SEG)
    image[(in_base + np.arange(len(segments))) % n_slots] = segments
    c_pool = _Pool(image.ctypes.data, n_slots, SEG)
    fn.argtypes = [ctypes.POINTER(_Pool), ctypes.c_void_p] + [
        ctypes.c_int32
    ] * len(program.params)
    fn.restype = None
    fn(ctypes.byref(c_pool), flash.ctypes.data,
       *(params[name] for name in program.params))
    return image.ravel(), pool.sram.read(0, n_slots * SEG)


class TestHostCompiledLibrary:
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("m,k,n", [(3, 8, 4), (5, 12, 8), (1, 4, 16)])
    def test_fc_matches_interpreter(self, host_library, rng, m, k, n, wrap):
        fn, program = host_library["vmcu_fc"]
        kern = FullyConnectedKernel(m, k, n, seg_bytes=SEG)
        compiled, interpreted = run_both(
            fn, program, random_int8(rng, (m, k)), random_int8(rng, (k, n)),
            kern.plan(), dict(M=m, NS=kern.ns, KS=kern.ks), rotate=wrap,
        )
        np.testing.assert_array_equal(compiled, interpreted)

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize(
        "h,c,k,stride", [(5, 4, 4, 1), (6, 8, 4, 2), (4, 4, 12, 1)]
    )
    def test_pointwise_matches_interpreter(
        self, host_library, rng, h, c, k, stride, wrap
    ):
        fn, program = host_library["vmcu_pointwise"]
        kern = PointwiseConvKernel(h, h, c, k, stride=stride, seg_bytes=SEG)
        compiled, interpreted = run_both(
            fn, program, random_int8(rng, (h, h, c)), random_int8(rng, (c, k)),
            kern.plan(),
            dict(
                P=kern.p, Q=kern.q, W=h, CE=kern.ce, CA=kern.ca, ST=stride,
                HW=h * h,
            ),
            rotate=wrap,
        )
        np.testing.assert_array_equal(compiled, interpreted)
