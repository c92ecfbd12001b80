"""Database back-ends and connection pooling.

The paper's Table 2 measures the rate of "data slot creations" through four
back-end combinations: {MySQL, HsqlDB} x {with DBCP, without DBCP}.  The
relevant cost structure is:

* every operation pays the engine's *operation* cost (parse + write + commit),
* without a connection pool, every operation additionally pays the engine's
  *connection* cost (MySQL's networked handshake is expensive, ~3.5 ms;
  HsqlDB's in-process connection is cheap, ~0.1 ms),
* the database serialises operations: a single service thread drives it, so
  concurrent callers queue (the paper notes multi-threading as future work).

The store itself is functional — a set of named collections holding object
snapshots, with key access and predicate queries — so the Data Catalog, its
one client, really persists and retrieves its state through it (the Data
Scheduler only pays the statement costs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = [
    "ConnectionPool",
    "Database",
    "DatabaseEngine",
    "EmbeddedSQLEngine",
    "NetworkedSQLEngine",
]


@dataclass(frozen=True)
class DatabaseEngine:
    """Cost profile of a database engine.

    ``operation_cost_s`` is charged per statement, ``connection_cost_s`` per
    connection establishment (i.e. per statement when no pool is used).
    """

    name: str
    operation_cost_s: float
    connection_cost_s: float

    def __post_init__(self):
        if self.operation_cost_s < 0 or self.connection_cost_s < 0:
            raise ValueError("costs must be non-negative")


#: Opening one connection: MySQL's client/server handshake, HsqlDB in-process.
MYSQL_CONNECTION_COST_S = 3475e-6
HSQLDB_CONNECTION_COST_S = 80e-6
#: One statement on the embedded engine.
HSQLDB_OPERATION_COST_S = 230e-6
#: Connections a ``ConnectionPool`` holds.
POOL_SIZE = 8


def NetworkedSQLEngine(operation_cost_s: float = 525e-6) -> DatabaseEngine:
    """MySQL-like engine: client/server protocol, expensive connection setup."""
    return DatabaseEngine("mysql", operation_cost_s, MYSQL_CONNECTION_COST_S)


def EmbeddedSQLEngine() -> DatabaseEngine:
    """HsqlDB-like engine: embedded in the service process, cheap connections."""
    return DatabaseEngine("hsqldb", HSQLDB_OPERATION_COST_S,
                          HSQLDB_CONNECTION_COST_S)


class ConnectionPool:
    """A DBCP-like pool of ``POOL_SIZE`` connections, opened once and reused.

    The pool bounds concurrency as well — callers wanting a connection when
    all are checked out wait in FIFO order.
    """

    def __init__(self, env: Environment, engine: DatabaseEngine):
        self.env = env
        self.engine = engine
        self._slots = Resource(env, capacity=POOL_SIZE)
        #: connections established so far (each pays the connection cost once)
        self.connections_opened = 0

    def acquire(self):
        """Generator: obtain a pooled connection.

        Physical connections are opened lazily: a new one is only established
        when every already-opened connection is checked out (DBCP's grow-on-
        demand behaviour), so sequential callers reuse a single connection.
        """
        request = self._slots.request()
        yield request
        checked_out = self._slots.count
        if self.connections_opened < checked_out:
            self.connections_opened += 1
            yield self.env.timeout(self.engine.connection_cost_s)
        return request

    def release(self, request) -> None:
        self._slots.release(request)


class Database:
    """A functional object store with simulated access costs.

    The ``raw_*`` operations store and return deep-copied snapshots, which
    keeps the store honest about persistence semantics (mutating an object
    after it was stored, or one read back, does not silently change the
    database); immutable records need no copy and go through ``collection``.
    """

    def __init__(
        self,
        env: Environment,
        engine: Optional[DatabaseEngine] = None,
        pool: Optional[ConnectionPool] = None,
    ):
        self.env = env
        self.engine = engine if engine is not None else EmbeddedSQLEngine()
        self.pool = pool
        self._collections: Dict[str, Dict[str, Any]] = {}
        #: The database executes statements serially.
        self._executor = Resource(env, capacity=1)
        #: Dedicated admin connection (see :meth:`admin_execute`).
        self._admin_executor = Resource(env, capacity=1)
        self._admin_connected = False
        #: statistics
        self.operations = 0

    # -- immediate (cost-free) access, used by unit tests and local setup ----
    def collection(self, name: str) -> Dict[str, Any]:
        return self._collections.setdefault(name, {})

    def size(self, name: str) -> int:
        return len(self._collections.get(name, {}))

    #: The one copy between a caller's object and the stored one, on the way
    #: in and on the way out.
    _snapshot = staticmethod(copy.deepcopy)

    # -- raw functional operations (no simulated cost) -----------------------
    def raw_upsert(self, collection: str, key: str, obj: Any) -> None:
        self.collection(collection)[key] = self._snapshot(obj)

    def raw_get(self, collection: str, key: str) -> Any:
        value = self._collections.get(collection, {}).get(key)
        return None if value is None else self._snapshot(value)

    def raw_delete(self, collection: str, key: str) -> bool:
        table = self._collections.get(collection, {})
        return table.pop(key, None) is not None

    def raw_query(self, collection: str,
                  predicate: Optional[Callable[[Any], bool]] = None) -> List[Any]:
        table = self._collections.get(collection, {})
        values: Iterable[Any] = table.values()
        if predicate is not None:
            values = (v for v in values if predicate(v))
        return [self._snapshot(v) for v in values]

    # -- simulated statements -------------------------------------------------
    def execute(self, operation: Callable[[], Any], statements: int = 1):
        """Generator: run *operation* with the engine's simulated costs.

        ``statements`` scales the operation cost (e.g. a transaction writing
        three rows).  The connection cost is charged per call when no pool is
        configured; with a pool it is only charged when the pool opens a new
        physical connection.
        """
        if statements <= 0:
            raise ValueError("statements must be positive")
        pooled_request = None
        if self.pool is not None:
            pooled_request = yield from self.pool.acquire()
        else:
            yield self.env.timeout(self.engine.connection_cost_s)
        try:
            with self._executor.request() as req:
                yield req
                yield self.env.timeout(self.engine.operation_cost_s * statements)
                result = operation()
        finally:
            if pooled_request is not None:
                self.pool.release(pooled_request)
        self.operations += 1
        return result

    def admin_execute(self, operation: Callable[[], Any]):
        """Generator: run *operation*, one statement, on the dedicated *admin*
        connection.

        Maintenance work — the elastic fabric's shard migrations — runs on
        its own database connection, so it pays the engine's full statement
        costs but serialises only against other admin statements, never
        behind the request path's queue (a migration must make progress on
        an overloaded shard; that is exactly when it is needed).  The
        single admin connection is opened lazily, once.
        """
        with self._admin_executor.request() as req:
            yield req
            if not self._admin_connected:
                self._admin_connected = True
                yield self.env.timeout(self.engine.connection_cost_s)
            yield self.env.timeout(self.engine.operation_cost_s)
            result = operation()
        self.operations += 1
        return result
