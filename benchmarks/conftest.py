"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, or pins a
shape beyond it, at the sizes its scenario declares (``sizes=`` on
``@scenario``).  ``REPRO_SIZES`` picks the tier for the whole run:

* unset — the scenario function defaults;
* ``quick`` — the smallest sizes at which every shape check holds (CI);
* ``paper`` — the paper's full grids (hundreds of nodes, Figure 5 up to 275
  workers), which takes considerably longer.

Any other value fails the session before a benchmark runs.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import pytest

from repro.experiments import default_registry

#: The values ``REPRO_SIZES`` may take (unset: the function defaults).
TIERS = ("quick", "paper")


def size_tier() -> Optional[str]:
    """The ``REPRO_SIZES`` tier, or ``None`` for the function defaults."""
    tier = os.environ.get("REPRO_SIZES") or None
    if tier is not None and tier not in TIERS:
        raise pytest.UsageError(
            f"REPRO_SIZES={tier!r} is not a size tier: set it to "
            f"{' or '.join(map(repr, TIERS))}, or leave it unset for the "
            f"scenario defaults")
    return tier


def pytest_configure(config) -> None:
    size_tier()


def sizes(scenario: str) -> Dict[str, object]:
    """Every parameter of *scenario* at the ``REPRO_SIZES`` tier."""
    definition = default_registry().get(scenario)
    tier = size_tier()
    return definition.spec(**(definition.sizes(tier) if tier else {})).params


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def emit(title: str, text: str) -> None:
    """Print a paper-style table under a clear banner (shown with -s)."""
    banner = "=" * len(title)
    print(f"\n{title}\n{banner}\n{text}\n")
