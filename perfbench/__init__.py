"""The repository benchmark: serving latency, throughput and modeled MCU cost.

Drives the public API from outside — ``repro.compile``, then a
``repro.serving.Dispatcher`` with two thread workers and every other knob
at its default — under seeded load, checks every response bit for bit,
and prints one JSON result line.  Run from the repository root::

    python3 perfbench/run.py --workload vww-interactive --seed 1 \\
        --seconds 30 --trace 0

``--trace 1`` adds a traced run whose spans give the per-layer numbers.
The workloads, metrics and bounds are declared in ``BENCHMARK.json``.
"""
