"""Segment-aware kernel library (Section 5).

Two families live here:

* :mod:`repro.kernels.reference` — plain NumPy int8 reference operators
  (golden results for every test).
* Segment-aware kernels that execute against the circular segment pool with
  the five-step structure of Figure 2 (load segment / compute / update
  segment / free segment / boundary check): fully connected, pointwise
  convolution, depthwise convolution (in-place), 2D convolution, and the
  fused inverted-bottleneck kernel of Figure 6.

Each kernel provides a ``plan()`` (memory plan via the Eq.-1/Eq.-2 solvers),
``run()`` (numerically exact simulated execution, race-checked) and
``cost()`` (analytic cycle/energy model for figure-scale shapes).
"""

from repro.kernels.base import (
    ExecutionBackend,
    KernelCostModel,
    KernelRun,
    execution_backends,
    get_execution_backend,
    register_execution_backend,
)
from repro.kernels.fully_connected import FullyConnectedKernel
from repro.kernels.pointwise import PointwiseConvKernel
from repro.kernels.depthwise import DepthwiseConvKernel
from repro.kernels.conv2d import Conv2dKernel
from repro.kernels.bottleneck import FusedBottleneckKernel
from repro.kernels.fastpath import FastBackend  # registers "fast"
from repro.kernels.turbo import TurboBackend  # registers "turbo"

__all__ = [
    "ExecutionBackend",
    "FastBackend",
    "TurboBackend",
    "KernelCostModel",
    "KernelRun",
    "execution_backends",
    "get_execution_backend",
    "register_execution_backend",
    "FullyConnectedKernel",
    "PointwiseConvKernel",
    "DepthwiseConvKernel",
    "Conv2dKernel",
    "FusedBottleneckKernel",
]
