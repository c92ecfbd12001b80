"""perfbench: the repository's performance benchmark.

Five named workloads drive the simulator through its stable public surface
(``repro.experiments.runner.run_spec`` with scenario names and size
parameters only).  *Host* time is what is measured; the *simulated*
statistics are the correctness reference and must never move.  See
``perfbench/README.md`` for the metric and workload tables, the
interaction rule and the pairing protocol for performance claims.
"""
