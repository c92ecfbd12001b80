"""AUID generation.

The BitDew prototype persists every runtime object (Data, Attribute,
Locator, Transfer, ...) through Java JDO/JPOX; each object carries an AUID,
"a variant of the DCE UID" (§3.5).  :func:`new_auid` produces such
identifiers deterministically when a label is supplied (useful for
reproducible simulations) and randomly otherwise.  The services persist
their objects through :class:`repro.storage.database.Database` directly.
"""

from __future__ import annotations

import uuid
from typing import Optional

from repro.sim import ids

__all__ = ["new_auid"]

_NAMESPACE = uuid.UUID("8c6b7f2e-bd3e-4c5a-9e6d-2b1f0a7c4d5e")


def new_auid(label: Optional[str] = None) -> str:
    """Return a new AUID (globally unique identifier string).

    When *label* is provided the AUID is derived deterministically from the
    label and the run's AUID sequence (stable across runs of a seeded
    simulation that creates objects in the same order); otherwise a random
    UUID4 is used.
    """
    if label is not None:
        return str(uuid.uuid5(_NAMESPACE, f"{label}:{next(ids.auids)}"))
    return str(uuid.uuid4())  # detlint: ignore[DET005] — documented non-deterministic fallback; seeded simulations always label their AUIDs
