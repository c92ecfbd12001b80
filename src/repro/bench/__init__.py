"""Experiment harness: one entry point per table/figure of the paper.

Each ``run_*`` function builds a fresh simulated platform, runs the
experiment and returns plain dictionaries/lists with the same rows or series
the paper reports.  Every one is declared as a scenario where it is defined
(:func:`repro.experiments.registry.scenario`), so the functions below, the
pytest benchmarks under ``benchmarks/`` and the ``python -m repro`` CLI all
dispatch to the same registered experiment.  ``python -m repro list`` prints
the index; ``docs/EXPERIMENTS.md`` maps it to the paper.
"""

from repro.bench.micro import run_table2, run_table2_cell, run_table3, table1_testbed
from repro.bench.transfer import (
    run_distribution,
    run_fig3a,
    run_fig3bc,
    run_ftp_alone,
)
from repro.bench.fabric import run_fabric_failover, run_fabric_scale
from repro.bench.fault import run_fig4
from repro.bench.blast import run_fig5, run_fig6
from repro.bench.reporting import format_table, shape_check
from repro.bench.scale import (
    run_completion_curve,
    run_scale_grid,
    run_sync_storm,
)

__all__ = [
    "format_table",
    "run_completion_curve",
    "run_distribution",
    "run_fabric_failover",
    "run_fabric_scale",
    "run_fig3a",
    "run_fig3bc",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_ftp_alone",
    "run_scale_grid",
    "run_sync_storm",
    "run_table2",
    "run_table2_cell",
    "run_table3",
    "shape_check",
    "table1_testbed",
]
