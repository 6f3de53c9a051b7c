"""vMCU reproduction: coordinated memory management and kernel optimization
for DNN inference on MCUs (MLSys 2024).

Public API highlights:

* :class:`repro.core.CircularSegmentPool` — the virtualized MCU memory.
* :class:`repro.core.SingleLayerPlanner` / solvers — Equation 1.
* :class:`repro.core.InvertedBottleneckPlanner` — Equation 2 fused blocks.
* :mod:`repro.kernels` — segment-aware kernels with simulated execution.
* :mod:`repro.runtime` — whole-network chained execution in one pool.
* :mod:`repro.compiler` — graph-to-pipeline compiler with plan caching;
  :func:`repro.compile` is the one-call entry point.
* :mod:`repro.serving` — plan-once/run-many sessions over compiled models
  (``compiled.serve()``), dispatching to the ``"turbo"`` backend.
* :mod:`repro.baselines` — TinyEngine / HMCOS / Serenity memory managers.
* :mod:`repro.eval` — drivers that regenerate every figure and table.
"""

from repro import (
    analysis,
    baselines,
    compiler,
    core,
    eval,
    graph,
    ir,
    kernels,
    mcu,
    quant,
    runtime,
    serving,
)
from repro.compiler import compile_model as compile
from repro.errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "baselines",
    "compile",
    "compiler",
    "core",
    "eval",
    "graph",
    "ir",
    "kernels",
    "mcu",
    "quant",
    "runtime",
    "serving",
    "ReproError",
    "__version__",
]
