"""Scenario registry: the plug-in point for declarative experiments.

Mirrors :mod:`repro.transfer.registry`: scenarios are registered by name and
resolved by name, so new experiments plug into the catalog (and the
``python -m repro`` CLI) without touching any dispatch code.  A
:class:`ScenarioDefinition` couples the runner callable with its provenance
(the paper section/figure it reproduces, a one-line title, tags) and with the
parameter schema introspected from the runner's signature — the registry is
the single source of truth for scenario defaults.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments.spec import ScenarioSpec

__all__ = ["ScenarioDefinition", "ScenarioRegistry", "UnknownScenarioError"]


class UnknownScenarioError(KeyError):
    """Raised when a scenario name nobody registered is requested."""


@dataclass(frozen=True)
class ScenarioDefinition:
    """A registered scenario: runner + provenance + parameter schema."""

    name: str
    runner: Callable[..., object]
    title: str
    paper_ref: str = ""                  # e.g. "Figure 4 (§4.4)" or "beyond the paper"
    group: str = "paper"                 # "paper" | "scale" | "extra"
    tags: Tuple[str, ...] = ()
    #: result keys scrubbed (recursively) from serialised output: wall-clock
    #: measurements and non-JSON objects; the in-memory result keeps them.
    volatile_keys: Tuple[str, ...] = ()

    @property
    def module(self) -> str:
        return getattr(self.runner, "__module__", "")

    @property
    def description(self) -> str:
        doc = inspect.getdoc(self.runner) or ""
        return doc.strip()

    @property
    def summary(self) -> str:
        """First line of the runner's docstring (falls back to the title)."""
        return self.description.splitlines()[0] if self.description else self.title

    # -- parameter schema ---------------------------------------------------
    def parameters(self) -> Dict[str, object]:
        """Name → default for every keyword parameter of the runner.

        Parameters without a default map to ``inspect.Parameter.empty`` (the
        caller must supply them).
        """
        out: Dict[str, object] = {}
        for param in inspect.signature(self.runner).parameters.values():
            if param.kind in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD):
                continue
            out[param.name] = param.default
        return out

    def accepts_extra_params(self) -> bool:
        """True when the runner has a ``**kwargs`` catch-all."""
        return any(p.kind == inspect.Parameter.VAR_KEYWORD
                   for p in inspect.signature(self.runner).parameters.values())

    def accepts(self, name: str) -> bool:
        return name in self.parameters() or self.accepts_extra_params()

    @property
    def seeded(self) -> bool:
        return self.accepts("seed")

    # -- spec construction --------------------------------------------------
    def spec(self, **overrides: object) -> ScenarioSpec:
        """A fully-resolved spec: signature defaults merged with overrides.

        Unknown override names raise ``ValueError`` unless the runner accepts
        ``**kwargs``; parameters that have no default and no override raise
        too, so a returned spec is always runnable.
        """
        params = {name: default for name, default in self.parameters().items()
                  if default is not inspect.Parameter.empty}
        known = set(self.parameters())
        for key, value in overrides.items():
            if key not in known and not self.accepts_extra_params():
                raise ValueError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"known parameters: {sorted(known)}")
            params[key] = value
        missing = [name for name, default in self.parameters().items()
                   if default is inspect.Parameter.empty and name not in params]
        if missing:
            raise ValueError(
                f"scenario {self.name!r} requires parameters {missing}")
        return ScenarioSpec(scenario=self.name, params=params)

    def cli_example(self) -> str:
        """A ready-to-paste CLI invocation for this scenario."""
        return f"python -m repro run {self.name} --out results.json"


class ScenarioRegistry:
    """Maps scenario names to :class:`ScenarioDefinition`."""

    def __init__(self):
        self._definitions: Dict[str, ScenarioDefinition] = {}

    # -- registration -------------------------------------------------------
    def register(
        self,
        name: str,
        runner: Callable[..., object],
        title: str,
        paper_ref: str = "",
        group: str = "paper",
        tags: Iterable[str] = (),
        volatile_keys: Iterable[str] = (),
        replace: bool = False,
    ) -> ScenarioDefinition:
        key = name.lower()
        if key in self._definitions and not replace:
            raise ValueError(f"scenario {name!r} already registered")
        definition = ScenarioDefinition(
            name=key, runner=runner, title=title, paper_ref=paper_ref,
            group=group, tags=tuple(tags), volatile_keys=tuple(volatile_keys),
        )
        self._definitions[key] = definition
        return definition

    # -- resolution ---------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._definitions)

    def get(self, name: str) -> ScenarioDefinition:
        key = name.lower()
        definition = self._definitions.get(key)
        if definition is None:
            close = difflib.get_close_matches(key, self.names(), n=3)
            hint = f"; did you mean {close}?" if close else ""
            raise UnknownScenarioError(
                f"no scenario registered under {name!r}{hint} "
                f"(known scenarios: {self.names()})")
        return definition

    def definitions(self, group: Optional[str] = None) -> List[ScenarioDefinition]:
        out = [self._definitions[name] for name in self.names()]
        if group is not None:
            out = [d for d in out if d.group == group]
        return out
