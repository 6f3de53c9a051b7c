"""Structural tests for the C code generator."""

import pytest

from repro.errors import LoweringError
from repro.ir.codegen_c import CCodegen
from repro.ir.library import build_fc_kernel
from repro.quant import quantize_multiplier


def fc_source():
    return CCodegen().generate(build_fc_kernel(4, quantize_multiplier(0.02)))


class TestPreamble:
    def test_runtime_helpers_present(self):
        src = fc_source()
        for helper in (
            "vmcu_wrap",
            "vmcu_ram_load",
            "vmcu_ram_store",
            "vmcu_ram_free",
            "vmcu_dot_block",
            "vmcu_requantize",
            "vmcu_sqrdmulh",
            "vmcu_broadcast",
        ):
            assert helper in src, helper

    def test_smlad_idiom_guarded(self):
        src = fc_source()
        assert "__SMLAD" in src
        assert "__ARM_FEATURE_DSP" in src  # host-compilable fallback exists

    def test_modulo_wrap_semantics(self):
        src = fc_source()
        assert "addr % p->n_slots" in src

    def test_preamble_can_be_suppressed(self):
        src = CCodegen(emit_preamble=False).generate(
            build_fc_kernel(4, quantize_multiplier(0.02))
        )
        assert "vmcu_sqrdmulh" not in src.split("void vmcu_fc")[0]
        assert "#include <stdint.h>" not in src


class TestKernelFunction:
    def test_signature(self):
        src = fc_source()
        assert "void vmcu_fc(vmcu_pool_t *pool" in src
        assert "const uint8_t *Weight_flash" in src
        for p in ("int32_t M", "int32_t NS", "int32_t KS",
                  "int32_t in_base", "int32_t out_base"):
            assert p in src

    def test_tensor_bases_bound(self):
        src = fc_source()
        assert "const int32_t In_base = in_base;" in src
        assert "const int32_t Out_base = out_base;" in src

    def test_loop_structure(self):
        src = fc_source()
        assert "for (int32_t m = 0; m < M; m += 1)" in src
        assert "for (int32_t k = 0; k < KS; k += 1)" in src

    def test_segment_size_constant(self):
        src = fc_source()
        assert "#define VMCU_SEG 4" in src

    def test_requantize_constants_inlined(self):
        mult = quantize_multiplier(0.02)
        src = CCodegen().generate(build_fc_kernel(4, mult))
        assert str(mult.multiplier) in src
        assert f", {mult.shift});" in src

    def test_unroll_pragma(self):
        prog = build_fc_kernel(4, quantize_multiplier(0.02), unroll_inner=True)
        src = CCodegen().generate(prog)
        assert "#pragma GCC unroll" in src

    def test_dynamic_shapes_single_function(self):
        """Section 6.2: one function serves all shapes (no shape constants
        beyond the segment size appear in the source)."""
        src = fc_source()
        body = src.split("void vmcu_fc")[1]
        # loop bounds are parameters, not literals
        assert "< M;" in body and "< NS;" in body and "< KS;" in body


class TestExpressionLowering:
    def test_min_max_helpers(self):
        from repro.ir.nodes import Const, Max, Min

        cg = CCodegen()
        assert cg.expr(Min(Const(1), Const(2))) == "vmcu_min(1, 2)"
        assert cg.expr(Max(Const(1), Const(2))) == "vmcu_max(1, 2)"

    def test_arith_parenthesized(self):
        from repro.ir.nodes import Var

        cg = CCodegen()
        assert cg.expr(Var("m") * 4 + 1) == "((m * 4) + 1)"

    def test_unknown_expr_rejected(self):
        class Weird:
            pass

        with pytest.raises(LoweringError):
            CCodegen().expr(Weird())
