"""Resolve scenario specs against the registry and run them reproducibly.

The runner is deliberately thin: a scenario's physics lives in its runner
callable; this module contributes (a) name → definition → fully-resolved
:class:`~repro.experiments.spec.ScenarioSpec` resolution and (b)
deterministic serialisation of the outcome (same spec, same seed →
byte-identical JSON).  Cartesian parameter sweeps are
:func:`repro.experiments.executor.execute_sweep`.

What a scenario returns is its simulated outcome, and it is exactly what
``python -m repro run --out`` writes: serialisation drops nothing, and a
value JSON cannot represent is an error, not a ``repr``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.experiments.registry import (
    _CATALOG,
    ScenarioDefinition,
    ScenarioRegistry,
)
from repro.experiments.spec import ScenarioSpec
from repro.sim import ids

__all__ = [
    "ScenarioResult",
    "default_registry",
    "json_safe",
    "run_scenario",
    "run_spec",
]


def default_registry() -> ScenarioRegistry:
    """The process-wide catalog, with every built-in scenario declared.

    Declaring them means importing every layer of the simulator, so it
    happens on first use rather than with this module.
    """
    from repro.experiments import scenarios  # noqa: F401  (declares them)
    return _CATALOG


def json_safe(value, path: str = "value"):
    """Recursively shape *value* for deterministic JSON serialisation.

    Tuples and sets become lists (sets sorted).  Anything JSON cannot
    represent raises ``TypeError`` naming where it sits under *path*
    (``results/rows[3]/report: MasterWorkerReport``).
    """
    if isinstance(value, Mapping):
        return {str(key): json_safe(item, f"{path}/{key}")
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item, f"{path}[{index}]")
                for index, item in enumerate(value)]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(item, path) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"{path}: {type(value).__name__} is not JSON-serialisable")


@dataclass
class ScenarioResult:
    """The outcome of one scenario run: the resolved spec plus raw results."""

    spec: ScenarioSpec
    results: object
    definition: ScenarioDefinition

    def to_dict(self) -> Dict[str, object]:
        """The serialisable form: spec echo + results."""
        return {
            "spec": json_safe(self.spec.to_dict(), "spec"),
            "scenario": self.spec.scenario,
            "paper_ref": self.definition.paper_ref,
            "results": json_safe(self.results, "results"),
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, fixed indent, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def run_spec(spec: ScenarioSpec,
             registry: Optional[ScenarioRegistry] = None) -> ScenarioResult:
    """Run a (possibly partial) spec; unspecified params take their defaults."""
    registry = registry if registry is not None else default_registry()
    definition = registry.get(spec.scenario)
    resolved = definition.spec(**spec.params)
    # Every run numbers its hosts, flows, transfers and AUIDs from the same
    # state, whatever ran before it in this process.
    ids.rewind()
    results = definition.runner(**resolved.params)
    return ScenarioResult(spec=resolved, results=results, definition=definition)


def run_scenario(name: str,
                 registry: Optional[ScenarioRegistry] = None,
                 **params: object):
    """Run a registered scenario by name and return its *raw* results.

    This is the dispatch path of the ``repro.bench`` entry points: the call
    is validated against the registered parameter schema and executed through
    the same resolved-spec machinery as the CLI.
    """
    return run_spec(ScenarioSpec(scenario=name, params=dict(params)),
                    registry=registry).results
