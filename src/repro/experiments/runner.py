"""Resolve scenario specs against the registry and run them reproducibly.

The runner is deliberately thin: a scenario's physics lives in its runner
callable; this module contributes (a) name → definition → fully-resolved
:class:`~repro.experiments.spec.ScenarioSpec` resolution, (b) deterministic
serialisation of the outcome (same spec, same seed → byte-identical JSON),
and (c) cartesian parameter sweeps.

Serialisation scrubs each definition's ``volatile_keys`` — wall-clock
timings and non-JSON report objects — recursively from the results, so that
the JSON written by ``python -m repro run --out`` only contains simulated,
seed-reproducible quantities.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.registry import ScenarioDefinition, ScenarioRegistry
from repro.experiments.spec import ScenarioSpec, expand_grid
from repro.sim import ids

__all__ = [
    "ScenarioResult",
    "default_registry",
    "json_safe",
    "run_scenario",
    "run_spec",
    "run_sweep",
]


_DEFAULT_REGISTRY: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry, populated with the built-in catalog.

    The catalog module imports the bench harnesses, which in turn resolve
    their entry points through this function — hence the lazy import.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        from repro.experiments import scenarios
        _DEFAULT_REGISTRY = scenarios.build_registry()
    return _DEFAULT_REGISTRY


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


def run_sweep(
    name: str,
    grid: Mapping[str, Sequence[object]],
    base_params: Optional[Mapping[str, object]] = None,
    registry: Optional[ScenarioRegistry] = None,
    *,
    jobs: int = 1,
    cache=None,
    retries: int = 0,
    derive_seeds: bool = False,
    progress=None,
) -> List[ScenarioResult]:
    """Run the cartesian product of *grid* over scenario *name*.

    ``base_params`` applies to every run; each grid combination overrides it.
    Returns one :class:`ScenarioResult` per combination, in grid order.

    With the defaults this is the original in-process serial path and the
    returned results carry the runner's *raw* (unscrubbed) output.  Passing
    ``jobs`` > 1, a :class:`~repro.experiments.cache.ResultCache`,
    ``retries`` or ``derive_seeds`` routes through the sweep executor
    (:func:`repro.experiments.executor.execute_sweep`): results then hold
    the *serialised* (volatile-key-scrubbed) run documents — serialising
    either form yields byte-identical sweep JSON — and a point that keeps
    raising aborts with :class:`~repro.experiments.executor.SweepFailure`
    instead of propagating the bare exception.
    """
    registry = registry if registry is not None else default_registry()
    if jobs <= 1 and cache is None and retries == 0 \
            and not derive_seeds and progress is None:
        base = dict(base_params or {})
        results = []
        for overrides in expand_grid(grid):
            params = dict(base)
            params.update(overrides)
            results.append(run_spec(ScenarioSpec(scenario=name, params=params),
                                    registry=registry))
        return results

    from repro.experiments.executor import SweepFailure, execute_sweep
    outcome = execute_sweep(
        name, grid, base_params=base_params, registry=registry, jobs=jobs,
        cache=cache, retries=retries, progress=progress,
        derive_seeds=derive_seeds)
    if not outcome.ok:
        failures = outcome.failures()
        first = failures[0].failure
        raise SweepFailure(
            f"{len(failures)} of {outcome.stats.points} sweep points failed; "
            f"first: {first.error}: {first.message}", failures)
    definition = registry.get(name)
    return [
        ScenarioResult(spec=ScenarioSpec.from_dict(point.run["spec"]),
                       results=point.run["results"],
                       definition=definition)
        for point in outcome.points
    ]


def sweep_to_dict(name: str, grid: Mapping[str, Sequence[object]],
                  runs: Sequence[ScenarioResult]) -> Dict[str, object]:
    """Serialisable form of a sweep: the grid plus every run's spec/results."""
    return {
        "scenario": name,
        "grid": {axis: list(values) for axis, values in sorted(grid.items())},
        "runs": [run.to_dict() for run in runs],
    }


__all__.append("sweep_to_dict")
