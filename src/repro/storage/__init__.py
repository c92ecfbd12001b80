"""Storage substrate: database back-ends, AUIDs, local file systems.

The BitDew prototype serialises its meta-data through Java JDO/JPOX into a
relational database (MySQL over the network, or the embedded HsqlDB engine),
optionally through the DBCP connection pool, and stores file content on
ordinary file systems or legacy file servers.  This subpackage rebuilds those
pieces:

* :mod:`repro.storage.database` — a functional in-process object store with
  two cost profiles (networked vs embedded engine) and an optional
  connection pool; this is what Table 2 measures.
* :mod:`repro.storage.persistence` — AUID generation (the unique
  identifiers every BitDew object carries).
* :mod:`repro.storage.filesystem` — logical file content (size + MD5
  checksum + optional payload) and per-host local file systems / reservoir
  caches with capacity accounting.
"""

from repro.storage.database import (
    ConnectionPool,
    Database,
    DatabaseEngine,
    EmbeddedSQLEngine,
    NetworkedSQLEngine,
)
from repro.storage.filesystem import FileContent, LocalFileSystem, StorageFullError
from repro.storage.persistence import new_auid

__all__ = [
    "ConnectionPool",
    "Database",
    "DatabaseEngine",
    "EmbeddedSQLEngine",
    "FileContent",
    "LocalFileSystem",
    "NetworkedSQLEngine",
    "StorageFullError",
    "new_auid",
]
