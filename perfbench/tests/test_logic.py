"""Tests for the benchmark's own logic (not for the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import random
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats, workloads
from perfbench.tracing import Span, Tracer, self_times, union_length

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# percentiles
# --------------------------------------------------------------------------- #
def test_percentile_is_nearest_rank():
    rng = random.Random(0)
    for n in (1, 2, 7, 100, 999):
        values = [rng.random() for _ in range(n)]
        ordered = sorted(values)
        for pct in (1, 50, 95, 99, 100):
            rank = math.ceil(Fraction(pct, 100) * n)
            assert stats.percentile(values, pct) == ordered[rank - 1]
    assert stats.percentile([], 50) == 0.0


@pytest.mark.parametrize(
    "n, pct, ok",
    [
        (1000, 99, True), (999, 99, False),
        # 0.95 * 200 is 190.00000000000003 in floating point
        (200, 95, True), (199, 95, False),
        (20, 50, True), (19, 50, False),
    ],
)
def test_percentile_needs_ten_samples_beyond_it(n, pct, ok):
    assert stats.supported(n, pct) is ok


# --------------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------------- #
def _span(sid, start, end, parent=0, thread=1):
    return Span(sid, "x", float(start), float(end), parent, thread)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, 10),
        _span(2, 1, 4, parent=1),
        _span(3, 5, 9, parent=1),
        _span(4, 2, 3, parent=2),
    ]
    st = self_times(spans)
    assert st == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    # the self times of a tree partition its root span
    assert sum(st.values()) == spans[0].duration


def test_overlapping_spans_of_another_thread_are_not_children():
    spans = [
        _span(1, 0, 10, thread=1),
        _span(2, 2, 8, thread=2),
        _span(3, 3, 5, parent=2, thread=2),
    ]
    assert self_times(spans) == {1: 10.0, 2: 4.0, 3: 2.0}


def test_overlapping_children_are_subtracted_once():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_tracer_links_parents_per_thread_and_restores():
    class Box:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            time.sleep(0.002)
            return n

    originals = dict(vars(Box))
    tracer = Tracer()
    tracer.patch(Box, "outer", "outer", amount=lambda a, kw: a[1])
    tracer.patch(Box, "inner", "inner", seq=lambda a, kw, out: out)
    try:
        threads = [
            threading.Thread(target=Box().outer, args=(i,)) for i in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(10)
            assert not th.is_alive()
    finally:
        tracer.restore()
    assert vars(Box)["outer"] is originals["outer"]
    assert vars(Box)["inner"] is originals["inner"]

    spans = tracer.take()
    assert tracer.take() == []
    outers = {s.sid: s for s in spans if s.name == "outer"}
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == len(inners) == 4
    assert sorted(s.amount for s in outers.values()) == [0, 1, 2, 3]
    for s in inners:
        parent = outers[s.parent]
        assert parent.thread == s.thread
        assert parent.start <= s.start <= s.end <= parent.end
        assert s.seq == parent.amount
    st = self_times(spans)
    total = sum(s.duration for s in outers.values())
    assert math.isclose(sum(st.values()), total, rel_tol=1e-9)


# --------------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------------- #
COLUMNS = ("due_s", "tenant", "pool")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_a_pure_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    a, b, c = (workloads.schedule(w, seed, 4.0) for seed in (7, 7, 8))
    assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in COLUMNS)
    assert not all(
        np.array_equal(getattr(a, k), getattr(c, k)) for k in COLUMNS
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_pool_is_a_pure_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    graph = w.tenants[0].build()
    a, b, c = (workloads.input_pool(w, s, 0, graph) for s in (7, 7, 8))
    assert len(a) == w.pool_size
    for x, y, z in zip(a, b, c):
        assert x.keys() == set(graph.inputs)
        assert all(v.dtype == np.int8 for v in x.values())
        assert all(np.array_equal(x[k], y[k]) for k in x)
    assert not all(np.array_equal(x[k], z[k]) for x, z in zip(a, c) for k in x)


@pytest.mark.parametrize("name", ["vww-interactive", "tiny-fleet"])
def test_open_loop_offers_the_nominal_load_on_every_seed(name):
    w = workloads.WORKLOADS[name]
    seconds = 6.0
    nominal = seconds * sum(w.rates) / len(w.rates)
    for seed in range(5):
        due = workloads.schedule(w, seed, seconds).due_s
        assert np.all(np.diff(due) >= 0)
        assert due[0] >= 0 and due[-1] < seconds
        # per-sojourn rounding only
        assert abs(len(due) - nominal) <= seconds / workloads.MMPP_MEAN_DWELL_S


def test_tenant_draws_follow_the_zipf_mix():
    w = workloads.WORKLOADS["tiny-fleet"]
    tenants = workloads.schedule(w, 3, 20.0).tenant
    share = np.bincount(tenants, minlength=len(w.tenants)) / len(tenants)
    assert np.allclose(share, workloads.mix(w), atol=0.01)
    assert np.allclose(workloads.mix(w), [12 / 25, 6 / 25, 4 / 25, 3 / 25])


# --------------------------------------------------------------------------- #
# names
# --------------------------------------------------------------------------- #
def test_names_are_restricted_and_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] + [
        m["name"] for m in bench["end_to_end"] + bench["per_layer"]
    ]
    assert len(set(names)) == len(names)
    assert all(stats.NAME_RE.fullmatch(n) for n in names)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert all(stats.NAME_RE.fullmatch(n) for n in workloads.WORKLOADS)
    for bad in ("bad name", "a/b", "-x", "x" * 65, "p99%"):
        assert not stats.NAME_RE.fullmatch(bad)
