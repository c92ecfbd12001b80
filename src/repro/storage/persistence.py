"""JDO-like object persistence and AUID generation.

The BitDew prototype persists every runtime object (Data, Attribute,
Locator, Transfer, ...) through Java JDO/JPOX; each object carries an AUID,
"a variant of the DCE UID" (§3.5).  :func:`new_auid` produces such
identifiers deterministically when a seed counter is supplied (useful for
reproducible simulations) and randomly otherwise.  The
:class:`PersistenceManager` maps dataclass-like objects to database
collections by class name, mirroring the transparent persistence the paper
relies on.
"""

from __future__ import annotations

import uuid
from typing import Any, Callable, Dict, List, Optional, Type, TypeVar

from repro.sim import ids
from repro.storage.database import Database

__all__ = ["PersistenceManager", "new_auid"]

T = TypeVar("T")

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


class PersistenceManager:
    """Maps objects with a ``uid`` attribute to database collections."""

    def __init__(self, database: Database):
        self.database = database

    @staticmethod
    def _collection_for(cls: Type) -> str:
        return f"jdo.{cls.__name__}"

    # -- immediate (cost-free) operations -------------------------------------
    def make_persistent(self, obj: Any) -> Any:
        """Persist (insert or update) *obj* keyed by its ``uid``."""
        uid = getattr(obj, "uid", None)
        if not uid:
            raise ValueError("object has no uid; assign one with new_auid()")
        self.database.raw_upsert(self._collection_for(type(obj)), uid, obj)
        return obj

    def delete_persistent(self, obj: Any) -> bool:
        uid = getattr(obj, "uid", None)
        if not uid:
            raise ValueError("object has no uid")
        return self.database.raw_delete(self._collection_for(type(obj)), uid)

    def get_by_uid(self, cls: Type[T], uid: str) -> Optional[T]:
        return self.database.raw_get(self._collection_for(cls), uid)

    def query(self, cls: Type[T],
              predicate: Optional[Callable[[T], bool]] = None) -> List[T]:
        return self.database.raw_query(self._collection_for(cls), predicate)

    def count(self, cls: Type) -> int:
        return self.database.size(self._collection_for(cls))

    # -- simulated (costed) operations -----------------------------------------
    def make_persistent_sim(self, obj: Any):
        """Generator: persist *obj* paying the database's simulated cost."""
        uid = getattr(obj, "uid", None)
        if not uid:
            raise ValueError("object has no uid; assign one with new_auid()")
        return self.database.upsert(self._collection_for(type(obj)), uid, obj)

    def get_by_uid_sim(self, cls: Type[T], uid: str):
        return self.database.get(self._collection_for(cls), uid)

    def delete_persistent_sim(self, obj: Any):
        uid = getattr(obj, "uid", None)
        if not uid:
            raise ValueError("object has no uid")
        return self.database.delete(self._collection_for(type(obj)), uid)
