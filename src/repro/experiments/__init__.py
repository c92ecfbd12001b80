"""Declarative experiment scenarios (the paper as a runnable catalog).

The paper's central claim is that data-management *behaviour* is declared —
attributes, protocols, replication under churn — rather than programmed.
This package applies the same idea to the experiments themselves: every
table, figure and beyond-the-paper stress run is a **registered scenario**,
declared once on its implementation
(:func:`~repro.experiments.registry.scenario`) and described by a
:class:`~repro.experiments.spec.ScenarioSpec` — a plain, JSON-round-trippable
record of *which* scenario runs with *which* parameters and seed — instead of
a bespoke Python function with hard-coded wiring.

Layers:

* :mod:`repro.experiments.spec` — ``ScenarioSpec`` (name + params), dict/JSON
  round-trip, parameter-grid expansion for sweeps.
* :mod:`repro.experiments.registry` — the ``scenario`` declaration and the
  ``ScenarioRegistry`` it fills, mapping scenario names to
  :class:`ScenarioDefinition` (runner callable, paper reference, defaults
  introspected from the runner's signature), in the style of
  :mod:`repro.transfer.registry`.
* :mod:`repro.experiments.runner` — resolve a spec against the registry, run
  it, and shape the outcome into deterministic, JSON-serialisable results
  (same seed → byte-identical output).
* :mod:`repro.experiments.executor` — the sweep engine: process-pool
  execution (``--jobs N`` byte-identical to serial), content-derived
  per-point seeds, crash isolation with structured failure entries,
  progress reporting.
* :mod:`repro.experiments.cache` — the content-addressed result cache
  (scenario + resolved params + code-version salt) that lets a re-run
  sweep skip every already-computed point.
* :mod:`repro.experiments.scenarios` — the list of modules whose import
  declares the built-in catalog: one scenario per paper table/figure
  (Tables 1-3, Figures 3a-6) and the BENCH scale runs in :mod:`repro.bench`,
  and :mod:`repro.experiments.extra`.
* :mod:`repro.experiments.extra` — the scenarios beyond the paper (flash
  crowds, Weibull churn, catalog load, MapReduce under churn).

``python -m repro`` (see :mod:`repro.__main__`) exposes the catalog on the
command line: ``list``, ``describe``, ``run`` and ``sweep``.
"""

from repro.experiments.spec import ScenarioSpec, expand_grid
from repro.experiments.registry import (
    ScenarioDefinition,
    ScenarioRegistry,
    UnknownScenarioError,
    scenario,
)
from repro.experiments.runner import (
    ScenarioResult,
    default_registry,
    run_scenario,
    run_spec,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.executor import (
    SweepOutcome,
    derive_point_seed,
    execute_sweep,
)

__all__ = [
    "ResultCache",
    "ScenarioDefinition",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepOutcome",
    "UnknownScenarioError",
    "default_cache_dir",
    "default_registry",
    "derive_point_seed",
    "execute_sweep",
    "expand_grid",
    "run_scenario",
    "run_spec",
    "scenario",
]
