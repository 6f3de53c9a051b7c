"""The three benchmark workloads and their seeded inputs.

Every input the program sees — arrival schedule, tenant draws, pool
choices and the int8 input tensors themselves — is a pure function of the
workload and ``--seed`` (see :func:`schedule` and :func:`input_pool`).

Why these three:

* ``vww-interactive`` — about 4.7 ms of kernel arithmetic per request
  against microseconds of dispatch, batches near size 1: the kernels and
  requantize leaves dominate.
* ``tiny-fleet`` — tens of microseconds of arithmetic per request at
  500-1000 req/s: admission, batch forming, queue wait and session
  assembly dominate, and a kernel change should leave it unchanged.
  Runnable by name but not listed in ``BENCHMARK.json``: on a shared
  2-core host whose vCPUs are stolen for seconds at a time, its latency
  quartiles spread by 0.67 (p50) and 1.17 (p95) of their median over ten
  seeds, far beyond any usable regression bound.
* ``imagenet-batch`` — 176x176x16 activations and 5x5/7x7 depthwise taps
  at full batch: the same kernels as ``vww-interactive`` in the
  memory-bound regime, and the workload where batching moves throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.models import build_classifier_graph
from repro.graph.synthetic import linear_chain
from repro.mcu.device import STM32F411RE, STM32F767ZI, DeviceProfile

#: mean sojourn in each state of the tiny-fleet two-state MMPP
MMPP_MEAN_DWELL_S = 0.5

# independent random streams drawn from one --seed
_ARRIVALS, _TENANTS, _POOL_PICKS, _INPUTS = range(4)


@dataclass(frozen=True)
class Tenant:
    name: str
    build: Callable[[], object]
    device: DeviceProfile
    #: share of requests this tenant receives (normalized over tenants)
    weight: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: tuple[Tenant, ...]
    #: a request slower than this (from its due instant) misses the SLO
    latency_limit_s: float
    #: open loop: arrival rate(s) in req/s (one = Poisson, two = MMPP)
    rates: tuple[float, ...] = ()
    #: closed loop: requests kept outstanding (0 = open loop)
    outstanding: int = 0
    #: distinct inputs per tenant (each checked against a reference run)
    pool_size: int = 32

    @property
    def open_loop(self) -> bool:
        return self.outstanding == 0

    def describe(self) -> str:
        if not self.open_loop:
            load = f"closed loop, {self.outstanding} outstanding"
        elif len(self.rates) == 1:
            load = f"open loop, Poisson {self.rates[0]:g} req/s"
        else:
            load = "open loop, MMPP " + "/".join(f"{r:g}" for r in self.rates)
            load += " req/s"
        return (
            f"{load}, {len(self.tenants)} tenant(s), "
            f"limit {self.latency_limit_s * 1e3:g} ms"
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="vww-interactive",
            tenants=(
                Tenant(
                    "vww",
                    lambda: build_classifier_graph("vww", classes=2),
                    STM32F411RE,
                ),
            ),
            latency_limit_s=0.100,
            rates=(50.0,),
        ),
        Workload(
            name="tiny-fleet",
            tenants=(
                Tenant(
                    "chain2-f411",
                    lambda: linear_chain(2, hw=8, channels=8),
                    STM32F411RE, 1.0,
                ),
                Tenant(
                    "chain4-f767",
                    lambda: linear_chain(4, hw=8, channels=8),
                    STM32F767ZI, 1 / 2,
                ),
                Tenant(
                    "chain6-f411",
                    lambda: linear_chain(6, hw=8, channels=8),
                    STM32F411RE, 1 / 3,
                ),
                Tenant(
                    "wide4-f767",
                    lambda: linear_chain(4, hw=8, channels=16),
                    STM32F767ZI, 1 / 4,
                ),
            ),
            latency_limit_s=0.020,
            # half the 1000/2000 req/s first proposed: on a 2-core host
            # whose vCPUs are stolen for seconds at a time, 2000 req/s
            # bursts filled the 256-deep queue and requests were refused
            rates=(500.0, 1000.0),
        ),
        Workload(
            name="imagenet-batch",
            tenants=(
                Tenant(
                    "imagenet",
                    lambda: build_classifier_graph("imagenet", classes=1000),
                    STM32F767ZI,
                ),
            ),
            latency_limit_s=2.0,
            outstanding=16,
            pool_size=8,
        ),
    )
}


def _rng(seed: int, workload: Workload, stream: int, *extra: int):
    key = sum(map(ord, workload.name))
    return np.random.default_rng([seed, key, stream, *extra])


def mix(workload: Workload) -> np.ndarray:
    """Each tenant's share of requests (sums to 1)."""
    w = np.array([t.weight for t in workload.tenants], dtype=np.float64)
    return w / w.sum()


def _uniform_arrivals(rng, start: float, length: float, rate: float):
    """Poisson arrivals on ``[start, start+length)``, conditioned on count.

    Given their number, the points of a Poisson process are uniform and
    independent; fixing the number at ``rate * length`` keeps the offered
    load identical across seeds, so seed-to-seed spread is the system's.
    """
    n = int(round(rate * length))
    return start + np.sort(rng.uniform(0.0, length, n))


def _arrivals(workload: Workload, seed: int, seconds: float) -> np.ndarray:
    rng = _rng(seed, workload, _ARRIVALS)
    if len(workload.rates) == 1:
        return _uniform_arrivals(rng, 0.0, seconds, workload.rates[0])
    # two-state MMPP: exponential sojourns, alternating states, rescaled
    # so each state holds exactly half the run (fixed offered load)
    n_dwell = max(1, int(np.ceil(seconds / (2 * MMPP_MEAN_DWELL_S))))
    dwell = rng.exponential(MMPP_MEAN_DWELL_S, size=(2, n_dwell))
    dwell *= (seconds / 2) / dwell.sum(axis=1, keepdims=True)
    first = int(rng.integers(2))
    parts, t = [], 0.0
    for i in range(n_dwell):
        for state in (first, 1 - first):
            length = dwell[state, i]
            parts.append(
                _uniform_arrivals(rng, t, length, workload.rates[state])
            )
            t += length
    return np.concatenate(parts)


@dataclass(frozen=True)
class Schedule:
    """Seed-pure request stream: due offsets, tenant and pool indices.

    ``due_s`` is empty for a closed loop, whose requests are due when the
    previous one completes; its tenant/pool columns are then consumed in
    order (and cycled if a run outlasts them).
    """

    due_s: np.ndarray
    tenant: np.ndarray
    pool: np.ndarray

    def __len__(self) -> int:
        return len(self.tenant)


#: closed-loop stream length per measured second (well above any rate
#: the closed-loop workload reaches on a 2-core host)
CLOSED_LOOP_PER_S = 200


def schedule(workload: Workload, seed: int, seconds: float) -> Schedule:
    if workload.open_loop:
        due = _arrivals(workload, seed, seconds)
        n = len(due)
    else:
        due = np.empty(0)
        n = int(CLOSED_LOOP_PER_S * seconds) + workload.outstanding
    tenant = _rng(seed, workload, _TENANTS).choice(
        len(workload.tenants), size=n, p=mix(workload)
    )
    pool = _rng(seed, workload, _POOL_PICKS).integers(
        workload.pool_size, size=n
    )
    return Schedule(due_s=due, tenant=tenant, pool=pool)


def input_pool(workload: Workload, seed: int, tenant_index: int, graph):
    """``pool_size`` feeds mappings for one tenant's graph."""
    rng = _rng(seed, workload, _INPUTS, tenant_index)
    return [
        {
            name: rng.integers(
                -128, 128, size=graph.tensors[name].spec.shape, dtype=np.int8
            )
            for name in graph.inputs
        }
        for _ in range(workload.pool_size)
    ]
