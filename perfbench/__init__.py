"""The repository benchmark: seeded workloads driven through the
program's public entry points, with end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root;
``BENCHMARK.json`` lists the workloads and metrics.

* :mod:`perfbench.requests` -- seeded, plain-data request generators;
* :mod:`perfbench.workloads` -- requests to program calls, output checks;
* :mod:`perfbench.tracing` -- spans around layer entry points, per-layer metrics;
* :mod:`perfbench.stats` -- percentiles and the sample-count rule;
* :mod:`perfbench.run` -- the command.
"""
