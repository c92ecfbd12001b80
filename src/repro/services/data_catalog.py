"""Data Catalog service (DC, paper §3.4.1).

The DC indexes every datum's meta-information (name, checksum, size, flags,
status) and the *locators* of its permanent copies — copies living on stable
repository hosts.  Replica locations on volatile hosts are **not** stored
here; they go to the Distributed Data Catalog (the DHT), which keeps the
DC's critical path short and load-balances replica look-ups.

All protocol-facing methods are generators: they pay the database engine's
simulated costs, which is exactly what the Table 2 micro-benchmark measures
(one remote data creation is an object creation on the client, an RMI
round-trip and a database write to serialise the object).  Cost-free
``*_now`` variants back the unit tests and internal bookkeeping; each
generator is its ``*_now`` body under one ``Database.execute``.

Each of the three collections is stored under the key its readers ask by; an
immutable record (frozen locators, a key's ``frozenset`` of values) is written
and read in place, only the mutable ``Data`` row is snapshotted
(``docs/ARCHITECTURE.md``, "What the catalog stores").
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.data import Data, DataStatus, Locator
from repro.core.exceptions import DataNotFoundError
from repro.storage.database import Database

__all__ = ["DataCatalogService"]

_DATA = "dc.data"
_LOCATORS = "dc.locators"
_KV = "dc.keyvalue"


class DataCatalogService:
    """Central index of data meta-information and permanent-copy locators."""

    def __init__(self, database: Database):
        self.database = database
        #: protocol statistics (used by the overhead accounting)
        self.requests = 0

    # ------------------------------------------------------------------ data
    def register_data(self, data: Data):
        """Generator: create the data slot in the catalog (one DB write)."""
        self.requests += 1
        yield from self.database.execute(lambda: self.register_data_now(data))
        return data

    def register_data_now(self, data: Data) -> Data:
        self.database.raw_upsert(_DATA, data.uid, data)
        return data

    def get_data(self, uid: str):
        """Generator: fetch one datum by uid (one DB read)."""
        self.requests += 1
        data = yield from self.database.execute(lambda: self.get_data_now(uid))
        if data is None:
            raise DataNotFoundError(f"no data with uid {uid!r} in the catalog")
        return data

    def get_data_now(self, uid: str) -> Optional[Data]:
        return self.database.raw_get(_DATA, uid)

    def find_by_name(self, name: str):
        """Generator: all data whose label equals *name* (one DB query).

        The paper's ``searchData``: the one read that is by value, not by
        key, and so the one predicate scan in this module.
        """
        self.requests += 1
        rows = yield from self.database.execute(
            lambda: self.database.raw_query(_DATA, lambda d: d.name == name))
        return rows

    def update_status(self, uid: str, status: DataStatus):
        """Generator: update a datum's life-cycle status."""
        self.requests += 1

        def _update():
            data = self.database.raw_get(_DATA, uid)
            if data is None:
                raise DataNotFoundError(f"no data with uid {uid!r} in the catalog")
            data.status = status
            self.database.raw_upsert(_DATA, uid, data)
            return data

        result = yield from self.database.execute(_update, statements=2)
        return result

    def delete_data(self, uid: str):
        """Generator: remove a datum and its locators from the catalog."""
        self.requests += 1

        def _delete():
            self.database.raw_delete(_LOCATORS, uid)
            return self.database.raw_delete(_DATA, uid)

        removed = yield from self.database.execute(_delete, statements=2)
        return removed

    def all_data_now(self) -> List[Data]:
        return self.database.raw_query(_DATA)

    @property
    def data_count(self) -> int:
        return self.database.size(_DATA)

    # ------------------------------------------------------------------ locators
    # One ``dc.locators`` record per datum, stored under the key every reader
    # asks by: ``{locator.uid: locator}`` in insertion order.  A frozen
    # Locator is its own snapshot, so the record is written and read in place.

    def add_locator(self, locator: Locator):
        """Generator: register a permanent copy's location."""
        self.requests += 1
        yield from self.database.execute(lambda: self.add_locator_now(locator))
        return locator

    def add_locator_now(self, locator: Locator) -> Locator:
        record = self.database.collection(_LOCATORS).setdefault(
            locator.data_uid, {})
        record[locator.uid] = locator
        return locator

    def locators_for(self, data_uid: str):
        """Generator: all known locators of a datum."""
        self.requests += 1
        rows = yield from self.database.execute(
            lambda: self.locators_for_now(data_uid))
        return rows

    def locators_for_now(self, data_uid: str) -> List[Locator]:
        record = self.database.collection(_LOCATORS).get(data_uid, {})
        return list(record.values())

    # ------------------------------------------------------------------ key/value
    # One ``dc.keyvalue`` record per published key: the ``frozenset`` of its
    # values, its own snapshot like the locator record.  Callers get a ``set``.

    def publish_pair(self, key: str, value):
        """Generator: the centralized counterpart of the DDC publish (Table 3)."""
        self.requests += 1

        def _insert():
            table = self.database.collection(_KV)
            stored = table[key] = table.get(key, frozenset()) | {value}
            return set(stored)

        result = yield from self.database.execute(_insert)
        return result

    def lookup_pair(self, key: str):
        """Generator: read back the values published under *key*."""
        self.requests += 1
        values = yield from self.database.execute(
            lambda: self.lookup_pair_now(key))
        return values

    def lookup_pair_now(self, key: str) -> set:
        return set(self.database.collection(_KV).get(key, ()))

    # ------------------------------------------------------------------ migration
    # The elastic fabric (services/rebalance.py) moves catalog state between
    # shards one *routing key* at a time.  A routing key K bundles everything
    # the router ever sends to this shard under K: the datum with uid K, the
    # locators of data_uid K, and the key/value set published under K — the
    # record stored under K in each of the three collections.

    def migration_keys(self) -> List[str]:
        """Sorted routing keys with any state on this shard (no DB cost)."""
        return sorted({key for name in (_DATA, _LOCATORS, _KV)
                       for key in self.database.collection(name)})

    def export_key_now(self, key: str) -> dict:
        """Everything stored under routing key *key* (cost-free snapshot)."""
        return {
            "data": self.database.raw_get(_DATA, key),
            "locators": sorted(self.locators_for_now(key),
                               key=lambda l: l.uid),
            "kv": self.database.collection(_KV).get(key),
        }

    def export_key(self, key: str):
        """Generator: read one routing key's state out (one admin-connection statement)."""
        self.requests += 1
        snapshot = yield from self.database.admin_execute(
            lambda: self.export_key_now(key))
        return snapshot

    def import_key_now(self, key: str, snapshot: dict) -> None:
        """Install *snapshot* under *key*, replacing any previous state."""
        self.drop_key_now(key)
        if snapshot.get("data") is not None:
            self.database.raw_upsert(_DATA, key, snapshot["data"])
        for locator in snapshot.get("locators", ()):
            self.add_locator_now(locator)
        if snapshot.get("kv") is not None:
            self.database.collection(_KV)[key] = frozenset(snapshot["kv"])

    def import_key(self, key: str, snapshot: dict):
        """Generator: install one routing key's state (one admin-connection statement)."""
        self.requests += 1
        yield from self.database.admin_execute(
            lambda: self.import_key_now(key, snapshot))

    def drop_key_now(self, key: str) -> None:
        """Remove every record under routing key *key* (migration clean-up)."""
        for name in (_DATA, _LOCATORS, _KV):
            self.database.raw_delete(name, key)

    def drop_key(self, key: str):
        """Generator: drop one routing key's state (one admin-connection statement)."""
        self.requests += 1
        yield from self.database.admin_execute(lambda: self.drop_key_now(key))
