"""Scenario registry: the plug-in point for declarative experiments.

Mirrors :mod:`repro.transfer.registry`: scenarios are registered by name and
resolved by name, so new experiments plug into the catalog (and the
``python -m repro`` CLI) without touching any dispatch code.  A
:class:`ScenarioDefinition` couples the runner callable with its provenance
(the paper section/figure it reproduces, a one-line title, tags) and with the
parameter schema introspected from the runner's signature — the registry is
the single source of truth for scenario defaults.

A scenario is declared once, on its implementation, with :func:`scenario`::

    @scenario("fig4", title="Fault-tolerant replicated storage under churn",
              paper_ref="Figure 4 (§4.4)", tags=("churn",))
    def run_fig4(replica: int = 5, seed: int = 42): ...

The decorator files the definition in the process-wide catalog (served by
:func:`repro.experiments.runner.default_registry`) and returns the public
entry point: same signature and docstring, but a call is validated against
the parameter schema and run through the catalog, so ``run_fig4(...)`` and
``python -m repro run fig4`` are one and the same experiment.
"""

from __future__ import annotations

import difflib
import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments.spec import ScenarioSpec

__all__ = ["ScenarioDefinition", "ScenarioRegistry", "UnknownScenarioError",
           "scenario"]


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
        replace: bool = False,
    ) -> ScenarioDefinition:
        key = name.lower()
        definition = ScenarioDefinition(
            name=key, runner=runner, title=title, paper_ref=paper_ref,
            group=group, tags=tuple(tags),
        )
        existing = self._definitions.get(key)
        if existing is not None and not replace:
            raise ValueError(
                f"scenario {name!r} already registered by {existing.module}; "
                f"second registration from {definition.module}")
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


#: Where every :func:`scenario` declaration lands; read it through
#: :func:`repro.experiments.runner.default_registry`, which first imports the
#: modules that declare the built-in scenarios.
_CATALOG = ScenarioRegistry()


def scenario(
    name: str,
    title: str,
    paper_ref: str = "",
    group: str = "paper",
    tags: Iterable[str] = (),
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Declare the decorated function as scenario *name*.

    Returns the public entry point in the function's place.  The raw
    implementation stays reachable as ``entry.scenario_impl``: a composite
    scenario (``fig5`` over ``blast``) calls that, so its building blocks run
    inside the caller's run — no second ``ids.rewind()``, no re-validation.
    """
    def declare(impl: Callable[..., object]) -> Callable[..., object]:
        _CATALOG.register(name, impl, title=title, paper_ref=paper_ref,
                          group=group, tags=tags)
        signature = inspect.signature(impl)

        @functools.wraps(impl)
        def entry_point(*args, **kwargs):
            # The runner imports this module; bind it at call time.
            from repro.experiments.runner import run_scenario
            bound = signature.bind(*args, **kwargs)
            params = {}
            for param_name, value in bound.arguments.items():
                kind = signature.parameters[param_name].kind
                if kind == inspect.Parameter.VAR_KEYWORD:
                    params.update(value)      # flatten the **kwargs catch-all
                elif kind == inspect.Parameter.VAR_POSITIONAL:
                    raise TypeError(
                        f"scenario entry point {name!r} does not support "
                        f"*args parameters")
                else:
                    params[param_name] = value
            return run_scenario(name, **params)

        entry_point.scenario_name = name
        entry_point.scenario_impl = impl
        return entry_point

    return declare
