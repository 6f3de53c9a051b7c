"""C code generation (Section 6.2's "library generation").

Lowers an IR :class:`Program` to a self-contained C translation unit:

* a preamble with the intrinsic implementations — ``Dot`` lowers to the
  SXTB16 + SMLAD idiom (guarded so the same source compiles on a host for
  inspection), ``Broadcast`` to PKHBT packing, ``RAMLoad``/``RAMStore`` to
  ``memcpy`` with circular-buffer wrapping, ``Requantize`` to the
  SQRDMULH + rounding-shift pipeline;
* one function per kernel taking the tensor base addresses and shape
  parameters, so the emitted library supports dynamic shapes and the code
  size does not grow with input configurations (Section 6.2).

Without an ARM toolchain the ARM-only intrinsic paths are checked
structurally (the expected instruction idioms appear, addresses match the
IR).  Everything else is checked by execution: the tests compile the
generated library with the host ``gcc`` (through
:func:`repro.kernels.native.build`) and require the compiled ``vmcu_fc``
and ``vmcu_pointwise`` to leave the segment pool bit for bit as the
interpreter leaves it on the same IR, including when pool addresses wrap.
"""

from __future__ import annotations

from repro.errors import LoweringError
from repro.ir.nodes import (
    Add,
    If,
    MulAcc,
    BinOp,
    Broadcast,
    Const,
    Dot,
    Expr,
    FlashLoad,
    FloorDiv,
    For,
    Max,
    Min,
    Mod,
    Mul,
    Program,
    RAMFree,
    RAMLoad,
    RAMStore,
    RegAlloc,
    Requantize,
    Stmt,
    Sub,
    Var,
    VectorAdd,
)

__all__ = ["CCodegen"]

_PREAMBLE = r"""
#include <stdint.h>
#include <string.h>

/* ---- vMCU runtime: circular segment pool ------------------------------- */
typedef struct {
    uint8_t *data;      /* pool storage                       */
    uint32_t n_slots;   /* capacity in segments               */
    uint32_t seg_bytes; /* segment size                       */
} vmcu_pool_t;

/* Boundary check + wrap (Figure 2, "Boundary Check").  n_slots is usually a
 * power of two so the modulo strength-reduces to an AND. */
static inline uint32_t vmcu_wrap(const vmcu_pool_t *p, uint32_t addr) {
    return (addr >= p->n_slots) ? (addr % p->n_slots) : addr;
}

static inline void vmcu_ram_load(const vmcu_pool_t *p, uint32_t addr,
                                 int8_t *dst) {
    memcpy(dst, p->data + (size_t)vmcu_wrap(p, addr) * p->seg_bytes,
           p->seg_bytes);
}

static inline void vmcu_ram_store(vmcu_pool_t *p, uint32_t addr,
                                  const int8_t *src) {
    memcpy(p->data + (size_t)vmcu_wrap(p, addr) * p->seg_bytes, src,
           p->seg_bytes);
}

/* RAMFree is bookkeeping only on-device: the planner guarantees the slot is
 * dead; nothing to do at run time. */
static inline void vmcu_ram_free(vmcu_pool_t *p, uint32_t addr) {
    (void)p; (void)addr;
}

/* ---- Dot: int8 dot-accumulate, SMLAD idiom ------------------------------ */
#if defined(__ARM_FEATURE_DSP)
static inline int32_t vmcu_dot16(const int8_t *a, const int8_t *b, int n,
                                 int32_t acc) {
    /* widen packed int8 pairs with SXTB16, accumulate with SMLAD */
    for (int i = 0; i + 1 < n; i += 2) {
        uint32_t pa = __SXTB16(*(const uint32_t *)(const void *)(a + i));
        uint32_t pb = __SXTB16(*(const uint32_t *)(const void *)(b + i));
        acc = __SMLAD(pa, pb, acc);
    }
    if (n & 1) acc += (int32_t)a[n - 1] * (int32_t)b[n - 1];
    return acc;
}
#else
static inline int32_t vmcu_dot16(const int8_t *a, const int8_t *b, int n,
                                 int32_t acc) {
    for (int i = 0; i < n; ++i) acc += (int32_t)a[i] * (int32_t)b[i];
    return acc;
}
#endif

/* dst[i] += a[i] * b[i]: depthwise inner step, SMLAD pairs on ARM */
static inline void vmcu_mulacc(int32_t *dst, const int8_t *a,
                               const int8_t *b, int n) {
    for (int i = 0; i < n; ++i) dst[i] += (int32_t)a[i] * (int32_t)b[i];
}

/* dst[j] += a . B[:,j] over a SEG x SEG block (row-major B) */
static inline void vmcu_dot_block(int32_t *dst, const int8_t *a,
                                  const int8_t *b, int k, int n) {
    for (int j = 0; j < n; ++j) {
        int32_t acc = 0;
        for (int i = 0; i < k; ++i) acc += (int32_t)a[i] * (int32_t)b[i * n + j];
        dst[j] += acc;
    }
}

/* ---- Requantize: SQRDMULH + rounding shift + SSAT ----------------------- */
static inline int32_t vmcu_sqrdmulh(int32_t a, int32_t b) {
    int64_t ab = (int64_t)a * (int64_t)b;
    int64_t nudge = ab >= 0 ? (1LL << 30) : (1 - (1LL << 30));
    /* C division truncates toward zero, matching gemmlowp (a >> 31 would
     * floor and be off by one for negatives) */
    int64_t r = (ab + nudge) / (1LL << 31);
    if (r > INT32_MAX) r = INT32_MAX;
    if (r < INT32_MIN) r = INT32_MIN;
    return (int32_t)r;
}

static inline int32_t vmcu_rdivpot(int32_t x, int exponent) {
    if (exponent == 0) return x;
    int32_t mask = (1 << exponent) - 1;
    int32_t remainder = x & mask;
    int32_t threshold = (mask >> 1) + (x < 0 ? 1 : 0);
    return (x >> exponent) + (remainder > threshold ? 1 : 0);
}

static inline void vmcu_requantize(int8_t *dst, const int32_t *src, int n,
                                   int32_t multiplier, int shift) {
    for (int i = 0; i < n; ++i) {
        int32_t v = vmcu_rdivpot(vmcu_sqrdmulh(src[i], multiplier), shift);
        if (v > 127) v = 127;
        if (v < -128) v = -128;
        dst[i] = (int8_t)v;
    }
}

/* ---- Broadcast: PKHBT packing on ARM, plain fill elsewhere -------------- */
static inline void vmcu_broadcast(int8_t *dst, int n, int8_t value) {
    memset(dst, (uint8_t)value, (size_t)n);
}

/* ---- saturating int8 vector add (residual connections) ------------------ */
static inline void vmcu_sadd8(int8_t *dst, const int8_t *a, const int8_t *b,
                              int n) {
    for (int i = 0; i < n; ++i) {
        int16_t v = (int16_t)a[i] + (int16_t)b[i];
        if (v > 127) v = 127;
        if (v < -128) v = -128;
        dst[i] = (int8_t)v;
    }
}
"""


class CCodegen:
    """Lower IR programs to C source."""

    def __init__(self, *, emit_preamble: bool = True):
        self.emit_preamble = emit_preamble
        self._reg_sizes: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return str(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Min):
            return f"vmcu_min({self.expr(e.a)}, {self.expr(e.b)})"
        if isinstance(e, Max):
            return f"vmcu_max({self.expr(e.a)}, {self.expr(e.b)})"
        if isinstance(e, BinOp):
            ops = {Add: "+", Sub: "-", Mul: "*", FloorDiv: "/", Mod: "%"}
            for klass, sym in ops.items():
                if isinstance(e, klass):
                    return f"({self.expr(e.a)} {sym} {self.expr(e.b)})"
        raise LoweringError(f"cannot lower expression {e!r}")

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _stmt(self, s: Stmt, lines: list[str], indent: int) -> None:
        pad = "    " * indent
        if isinstance(s, For):
            v = s.var
            hint = "#pragma GCC unroll 65534\n" + pad if s.unroll else ""
            lines.append(
                f"{pad}{hint}for (int32_t {v} = 0; {v} < {self.expr(s.extent)}; "
                f"{v} += {s.step}) {{"
            )
            for inner in s.body:
                self._stmt(inner, lines, indent + 1)
            lines.append(f"{pad}}}")
            return
        if isinstance(s, If):
            lines.append(
                f"{pad}if ({self.expr(s.lhs)} {s.op} {self.expr(s.rhs)}) {{"
            )
            for inner in s.body:
                self._stmt(inner, lines, indent + 1)
            lines.append(f"{pad}}}")
            return
        if isinstance(s, MulAcc):
            lines.append(
                f"{pad}vmcu_mulacc({s.dst}, {s.a}, {s.b}, VMCU_SEG);"
            )
            return
        if isinstance(s, RegAlloc):
            self._reg_sizes[s.dst] = s.size
            lines.append(f"{pad}int32_t {s.dst}[{s.size}];")
            lines.append(
                f"{pad}for (int _i = 0; _i < {s.size}; ++_i) "
                f"{s.dst}[_i] = {s.init};"
            )
            return
        if isinstance(s, RAMLoad):
            lines.append(f"{pad}int8_t {s.dst}[VMCU_SEG];")
            lines.append(
                f"{pad}vmcu_ram_load(pool, (uint32_t)({self.expr(s.addr)}"
                f" + {s.tensor}_base), {s.dst});"
            )
            return
        if isinstance(s, FlashLoad):
            lines.append(
                f"{pad}const int8_t *{s.dst} = (const int8_t *)("
                f"{s.region}_flash + ({self.expr(s.offset)}));"
            )
            self._reg_sizes[s.dst] = s.size
            return
        if isinstance(s, Dot):
            lines.append(
                f"{pad}vmcu_dot_block({s.dst}, {s.a}, {s.b}, VMCU_SEG, "
                f"VMCU_SEG);"
            )
            return
        if isinstance(s, VectorAdd):
            lines.append(f"{pad}int8_t {s.dst}[VMCU_SEG];")
            lines.append(f"{pad}vmcu_sadd8({s.dst}, {s.a}, {s.b}, VMCU_SEG);")
            return
        if isinstance(s, Requantize):
            size = self._reg_sizes.get(s.src, 0) or "VMCU_SEG"
            lines.append(f"{pad}int8_t {s.dst}[{size}];")
            lines.append(
                f"{pad}vmcu_requantize({s.dst}, {s.src}, {size}, "
                f"{s.multiplier}, {s.shift});"
            )
            return
        if isinstance(s, RAMStore):
            lines.append(
                f"{pad}vmcu_ram_store(pool, (uint32_t)({self.expr(s.addr)}"
                f" + {s.tensor}_base), {s.src});"
            )
            return
        if isinstance(s, RAMFree):
            lines.append(
                f"{pad}vmcu_ram_free(pool, (uint32_t)({self.expr(s.addr)}"
                f" + {s.tensor}_base));"
            )
            return
        if isinstance(s, Broadcast):
            lines.append(f"{pad}int8_t {s.dst}[{s.size}];")
            lines.append(
                f"{pad}vmcu_broadcast({s.dst}, {s.size}, "
                f"(int8_t)({self.expr(s.value)}));"
            )
            return
        raise LoweringError(f"cannot lower statement {s!r}")

    # ------------------------------------------------------------------ #
    def _kernel_function(self, program: Program) -> list[str]:
        """Emit one kernel's function definition (no preamble)."""
        self._reg_sizes = {}
        ram = [t for t in program.tensors if t.space == "ram"]
        flash = [t for t in program.tensors if t.space == "flash"]
        args = ["vmcu_pool_t *pool"]
        args += [f"const uint8_t *{t.name}_flash" for t in flash]
        args += [f"int32_t {p}" for p in program.params]
        lines = [
            f"#undef VMCU_SEG",
            f"#define VMCU_SEG {program.seg_bytes}",
            f"void {program.name}({', '.join(args)}) {{",
        ]
        for t in ram:
            base = t.base or "0"
            lines.append(f"    const int32_t {t.name}_base = {base};")
        body_lines: list[str] = []
        for s in program.body:
            self._stmt(s, body_lines, 1)
        lines.extend(body_lines)
        lines.append("}")
        return lines

    def _helpers(self) -> list[str]:
        return [
            "static inline int32_t vmcu_min(int32_t a, int32_t b)"
            " { return a < b ? a : b; }",
            "static inline int32_t vmcu_max(int32_t a, int32_t b)"
            " { return a > b ? a : b; }",
        ]

    def generate(self, program: Program) -> str:
        """Emit the full translation unit for one kernel."""
        lines: list[str] = []
        if self.emit_preamble:
            lines.append(_PREAMBLE)
        lines.extend(self._helpers())
        lines.append("")
        lines.extend(self._kernel_function(program))
        return "\n".join(lines) + "\n"

    def generate_library(self, programs: list[Program]) -> str:
        """Emit the Section 6.2 "light library": all kernels, one unit.

        The runtime preamble and helpers appear once; each kernel keeps its
        own segment-size constant.  Because shapes are runtime parameters,
        the code size is independent of the input configurations the
        library will serve.
        """
        if not programs:
            raise LoweringError("library needs at least one kernel")
        names = [p.name for p in programs]
        if len(set(names)) != len(names):
            raise LoweringError(f"duplicate kernel names in library: {names}")
        lines: list[str] = []
        if self.emit_preamble:
            lines.append(_PREAMBLE)
        lines.extend(self._helpers())
        for program in programs:
            lines.append("")
            lines.extend(self._kernel_function(program))
        return "\n".join(lines) + "\n"
