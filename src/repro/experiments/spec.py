"""Scenario specifications: declarative, serialisable experiment descriptions.

A :class:`ScenarioSpec` is the declarative unit of the experiment subsystem:
the *name* of a registered scenario plus the *parameters* it runs with
(including the seed of the scenario's :class:`~repro.sim.rng.RandomStreams`).
Specs round-trip through plain dictionaries and JSON so that an experiment —
exactly as executed — can be stored next to its results, replayed, or
generated by sweep tooling.

:func:`expand_grid` expands a parameter grid (name → list of values) into the
cartesian product of override dictionaries, the building block of the
``python -m repro sweep`` subcommand.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence

__all__ = ["ScenarioSpec", "expand_grid"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible experiment: a scenario name plus its parameters.

    ``params`` holds every argument the scenario's runner will receive; the
    registry fills unspecified arguments from the runner's signature defaults
    when the spec is built through
    :meth:`repro.experiments.registry.ScenarioDefinition.spec`, so a spec
    serialised after resolution is *complete* — replaying it is insensitive
    to later default changes.
    """

    scenario: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.scenario or not isinstance(self.scenario, str):
            raise ValueError("scenario must be a non-empty string")
        if not isinstance(self.params, dict):
            raise TypeError("params must be a dict")

    # -- derived views ------------------------------------------------------
    @property
    def seed(self):
        """The RNG seed, if this scenario is seeded (``None`` otherwise)."""
        return self.params.get("seed")

    def with_params(self, **overrides: object) -> "ScenarioSpec":
        """A copy of this spec with ``overrides`` merged into the params."""
        merged = dict(self.params)
        merged.update(overrides)
        return ScenarioSpec(scenario=self.scenario, params=merged)

    # -- dict / JSON round-trip --------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain-dict form (sorted params) suitable for JSON."""
        return {
            "scenario": self.scenario,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ScenarioSpec":
        if "scenario" not in doc:
            raise ValueError("spec dict needs a 'scenario' key")
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise TypeError("'params' must be a mapping")
        return cls(scenario=str(doc["scenario"]), params=dict(params))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def expand_grid(grid: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """The cartesian product of a parameter grid, as override dictionaries.

    ``{"replica": [3, 5], "protocol": ["ftp", "bittorrent"]}`` expands to the
    four override dicts, in a deterministic order (axes in the order given,
    last axis varying fastest — the order ``itertools.product`` produces).
    """
    axes: List[str] = list(grid)
    for axis in axes:
        values = grid[axis]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise TypeError(f"grid axis {axis!r} must be a list of values")
        if len(values) == 0:
            raise ValueError(f"grid axis {axis!r} is empty")
    combos = itertools.product(*(grid[axis] for axis in axes))
    return [dict(zip(axes, combo)) for combo in combos]
