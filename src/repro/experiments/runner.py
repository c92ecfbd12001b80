"""Resolve scenario specs against the registry and run them reproducibly.

The runner is deliberately thin: a scenario's physics lives in its runner
callable; this module contributes (a) name → definition → fully-resolved
:class:`~repro.experiments.spec.ScenarioSpec` resolution and (b)
deterministic serialisation of the outcome (same spec, same seed →
byte-identical JSON).  Cartesian parameter sweeps are
:func:`repro.experiments.executor.execute_sweep`.

Serialisation scrubs each definition's ``volatile_keys`` — wall-clock
timings and non-JSON report objects — recursively from the results, so that
the JSON written by ``python -m repro run --out`` only contains simulated,
seed-reproducible quantities.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

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


def json_safe(value, scrub: Sequence[str] = ()):
    """Recursively shape *value* for deterministic JSON serialisation.

    Dict keys named in *scrub* are dropped at any depth; tuples/sets become
    lists (sets sorted); anything JSON cannot represent is replaced by its
    ``repr`` — with memory addresses (``at 0x...``) scrubbed, so the
    byte-identical-output contract survives even an object a scenario forgot
    to declare in its ``volatile_keys``.
    """
    if isinstance(value, Mapping):
        return {str(key): json_safe(item, scrub)
                for key, item in value.items() if str(key) not in scrub}
    if isinstance(value, (list, tuple)):
        return [json_safe(item, scrub) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(item, scrub) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))


@dataclass
class ScenarioResult:
    """The outcome of one scenario run: the resolved spec plus raw results."""

    spec: ScenarioSpec
    results: object
    definition: ScenarioDefinition

    def to_dict(self) -> Dict[str, object]:
        """The serialisable form: spec echo + scrubbed results."""
        return {
            "spec": json_safe(self.spec.to_dict()),
            "scenario": self.spec.scenario,
            "paper_ref": self.definition.paper_ref,
            "results": json_safe(self.results, self.definition.volatile_keys),
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, fixed indent, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_spec(spec: ScenarioSpec,
             registry: Optional[ScenarioRegistry] = None) -> ScenarioResult:
    """Run a (possibly partial) spec; unspecified params take their defaults."""
    registry = registry if registry is not None else default_registry()
    definition = registry.get(spec.scenario)
    resolved = definition.spec(**spec.params)
    # Every run numbers its hosts, flows, transfers and AUIDs from the same
    # state, whatever ran before it in this process.  Rewind on entry only:
    # a scenario that itself calls run_spec (sweep-parallel) keeps going on
    # the ids its last inner run left behind, in every process alike.
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
