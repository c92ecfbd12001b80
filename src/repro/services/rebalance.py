"""Elastic fabric: live shard split/merge with zero-loss key migration.

The fabric's shard count is fixed at deployment (PR 5); production traffic
is bursty.  This module rebalances a *running* fabric: it moves the catalog
and scheduler state owned by the consistent-hash arcs that change hands in
an S → S±1 ring transition, while client traffic keeps flowing, with

* **zero lost requests** — every client call issued during the migration
  completes against the shard that authoritatively owns its key at that
  instant, and
* **zero duplicated effects** — a key's state is mutated on exactly one
  authoritative shard; dual reads during the overlap are de-duplicated by
  the scatter merge.

The protocol is the classic four-phase live migration:

``prepare``
    Build the new ring (same vnode family, so only the joining/leaving
    shard's arcs change hands), enumerate the routing keys on every shard
    (paying one RPC round trip per shard and service — ``migration_keys``
    is not a generator, so no database statement is charged), and take an
    atomic key snapshot from which the
    :class:`~repro.services.router.HandoffPlan` per service is computed.  For a split the new shard's services, database and
    endpoints come up now (:meth:`ServiceFabric.add_shard`).  The routing
    overlay (:class:`ShardMigration`) is installed atomically with the
    plan: planned keys keep routing to their source shard; keys born later
    route by the *new* ring from their first request.

``copy``
    Every planned key is exported from its source and imported into its
    destination shard through ordinary failover RPC (a service-host crash
    mid-copy reroutes to a replica; export/import/drop are idempotent, so
    even a lost response is safely retried).  Client traffic continues;
    any operation or scheduler-internal mutation touching a copied key
    marks it *dirty*.

``cutover``
    New placements of the moving scheduler entries are quiesced, the
    planned keys are **sealed** (new client calls on them park on an
    event), in-flight calls drain, and dirty keys are re-copied until
    clean — convergence is guaranteed because sealed keys take no client
    writes and quiesced entries take no new placements; only failure-
    detector repairs can re-dirty, and each re-copy round picks those up.
    Then every planned key *flips* to its destination and the seal lifts:
    parked calls resume against the new owner (the forwarding that makes
    the window lossless).  The sealed wall-clock is recorded.

``drain``
    Moved state is dropped from the source shards (requests already route
    to the destinations; scatters still dual-read until the drop lands and
    de-duplicate by uid), the rings are committed fabric-wide, and — for a
    merge — the leaving shard waits for its last in-flight invocation
    before its endpoints and services retire.

:class:`RebalanceCoordinator` drives the protocol as a simulation process
and records a :class:`MigrationStats` per transition (keys moved vs the
theoretical minimum, dirty re-copy rounds, sealed duration) — the numbers
the ``fabric-rebalance`` bench reports.  ``on_phase`` is the chaos-test
hook: it fires at every phase boundary so tests can crash service hosts at
the worst possible instants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.rpc import RpcError, RpcResponseLostError
from repro.services.router import FabricRouter, HandoffPlan

__all__ = ["MigrationStats", "RebalanceCoordinator", "ShardMigration"]

_SERVICES = ("dc", "ds")


@dataclass
class MigrationStats:
    """What one live ring transition cost."""

    kind: str                     #: "split" or "merge"
    old_shards: int
    new_shards: int
    started_at: float
    finished_at: float = 0.0
    #: per service: keys in the handoff plan / on any shard / re-copied
    keys_planned: Dict[str, int] = field(default_factory=dict)
    total_keys: Dict[str, int] = field(default_factory=dict)
    keys_recopied: Dict[str, int] = field(default_factory=dict)
    #: per service: the balanced-ring minimum the plan is judged against
    theoretical_minimum: Dict[str, float] = field(default_factory=dict)
    dirty_rounds: int = 0
    sealed_s: float = 0.0

    @property
    def keys_moved(self) -> int:
        return sum(self.keys_planned.values())

    @property
    def minimum_moves(self) -> float:
        return sum(self.theoretical_minimum.values())

    @property
    def move_ratio(self) -> float:
        """Keys moved over the balanced-ring minimum (≤ 1+ε for a good ring)."""
        minimum = self.minimum_moves
        return self.keys_moved / minimum if minimum else 0.0


class ShardMigration:
    """The routing overlay for one in-flight ring transition.

    Owns the migration state machine the router consults on every keyed
    invocation: which keys are planned to move, which have flipped to
    their destination, whether the cutover seal is up, how many tracked
    calls are in flight, and which copied keys were dirtied by later
    mutations.
    """

    def __init__(self, env, kind: str,
                 new_rings: Dict[str, "ShardRing"],
                 plans: Dict[str, HandoffPlan]):
        self.env = env
        self.kind = kind
        self.new_rings = dict(new_rings)
        #: service -> key -> KeyMove
        self.planned = {service: {move.key: move
                                  for move in plans[service].moves}
                        for service in _SERVICES}
        self.flipped: Dict[str, Set[str]] = {s: set() for s in _SERVICES}
        self.dirty: Dict[str, Set[str]] = {s: set() for s in _SERVICES}
        self.sealed = False
        self.sealed_at: Optional[float] = None
        self.sealed_s = 0.0
        self._unseal_event = None
        self._inflight = 0
        self._drain_event = None

    # ------------------------------------------------------------------ routing
    def effective_shard(self, service: str, key: str) -> int:
        """The shard that authoritatively owns *key* right now."""
        move = self.planned[service].get(key)
        if move is not None:
            return move.dst if key in self.flipped[service] else move.src
        # Not planned ⇒ the key had no state when the plan snapshot was
        # taken; it lives wherever the *new* ring puts it from birth (for
        # keys on unchanged arcs that is also the old owner).
        return self.new_rings[service].shard_for(key)

    def is_blocked(self, service: str, key: str) -> bool:
        return (self.sealed and key in self.planned[service]
                and key not in self.flipped[service])

    def wait_key(self, service: str, key: str):
        """Generator: park while *key* sits in the sealed cutover window."""
        while self.is_blocked(service, key):
            yield self._unseal_event

    def wait_keys(self, service: str, keys):
        """Generator: park while *any* of *keys* is sealed."""
        while self.sealed and any(self.is_blocked(service, key)
                                  for key in keys):
            yield self._unseal_event

    # ------------------------------------------------------------------ tracking
    def note_enter(self, service: str, keys) -> Tuple[str, List[str]]:
        """Track a call touching *keys*; returns the token for note_exit."""
        tracked = [key for key in keys
                   if key in self.planned[service]
                   and key not in self.flipped[service]]
        self._inflight += len(tracked)
        return (service, tracked)

    def note_exit(self, token: Tuple[str, List[str]]) -> None:
        service, tracked = token
        for key in tracked:
            if key not in self.flipped[service]:
                # The completed call may have mutated source-shard state
                # copied earlier; re-copy before the flip.
                self.dirty[service].add(key)
        self._inflight -= len(tracked)
        if (self._inflight <= 0 and self._drain_event is not None
                and not self._drain_event.triggered):
            self._drain_event.succeed()

    def note_dirty_from(self, service: str, shard: int, key: str) -> None:
        """Scheduler-internal mutation on *shard*: dirty if it is the source."""
        move = self.planned[service].get(key)
        if (move is not None and move.src == shard
                and key not in self.flipped[service]):
            self.dirty[service].add(key)

    def has_dirty(self) -> bool:
        return any(self.dirty[service] for service in _SERVICES)

    def take_dirty(self) -> List[Tuple[str, str]]:
        """Drain the dirty sets into a deterministic re-copy worklist."""
        work = [(service, key) for service in _SERVICES
                for key in sorted(self.dirty[service])]
        for service in _SERVICES:
            self.dirty[service].clear()
        return work

    # ------------------------------------------------------------------ cutover
    def seal(self) -> None:
        self.sealed = True
        self.sealed_at = self.env.now
        self._unseal_event = self.env.event()

    def wait_drained(self):
        """Generator: wait until no tracked call is in flight."""
        while self._inflight > 0:
            self._drain_event = self.env.event()
            yield self._drain_event
        self._drain_event = None

    def flip_all(self) -> None:
        for service in _SERVICES:
            self.flipped[service].update(self.planned[service])

    def unseal(self) -> None:
        self.sealed = False
        if self.sealed_at is not None:
            self.sealed_s += self.env.now - self.sealed_at
            self.sealed_at = None
        event, self._unseal_event = self._unseal_event, None
        if event is not None and not event.triggered:
            event.succeed()


class RebalanceCoordinator:
    """Drives live shard splits and merges against a running fabric."""

    #: re-copy rounds before the coordinator declares non-convergence
    MAX_DIRTY_ROUNDS = 64

    def __init__(self, fabric, router: FabricRouter,
                 on_phase: Optional[Callable] = None):
        self.fabric = fabric
        self.router = router
        self.env = fabric.env
        self.channel = fabric.channel()
        self.on_phase = on_phase
        #: completed transitions, in order
        self.history: List[MigrationStats] = []

    # ------------------------------------------------------------------ public
    def split(self):
        """Generator: grow the fabric by one shard, live."""
        result = yield from self._run("split", self.fabric.shards + 1)
        return result

    def merge(self):
        """Generator: shrink the fabric by one shard (the tail), live."""
        if self.fabric.shards <= 1:
            raise ValueError("cannot merge below one shard")
        result = yield from self._run("merge", self.fabric.shards - 1)
        return result

    # ------------------------------------------------------------------ RPC plumbing
    def _call(self, service: str, shard: int, method: str, *args):
        """Generator: coordinator RPC with failover *and* lost-response retry.

        Every migration RPC (enumerate/export/import/drop) is idempotent,
        so — unlike client traffic, where at-most-once forbids it — a
        response lost to a crash is safe to retry against a replica.
        """
        attempts = 0
        while True:
            try:
                result = yield from self.channel.invoke_failover(
                    self.router._resolver(service, shard), method, *args,
                    policy=self.fabric.failover_policy)
                return result
            except RpcResponseLostError:
                attempts += 1
                if attempts > 8:
                    raise
                yield self.env.timeout(self.fabric.failover_policy.backoff_s)

    def _phase(self, phase: str, migration: Optional[ShardMigration]) -> None:
        if self.on_phase is not None:
            self.on_phase(phase, migration)

    def _copy_one(self, service: str, key: str, src: int, dst: int):
        """Generator: move one key's state src → dst (replace semantics)."""
        if service == "dc":
            snapshot = yield from self._call("dc", src, "export_key", key)
            if (snapshot["data"] is None and not snapshot["locators"]
                    and snapshot["kv"] is None):
                # The key lost its state since it was planned (deleted);
                # make the destination match.
                yield from self._call("dc", dst, "drop_key", key)
            else:
                yield from self._call("dc", dst, "import_key", key, snapshot)
        else:
            snapshot = yield from self._call("ds", src, "export_entry", key)
            if snapshot is None:
                yield from self._call("ds", dst, "drop_entry", key)
            else:
                yield from self._call("ds", dst, "import_entry", snapshot)

    # ------------------------------------------------------------------ the protocol
    def _run(self, kind: str, new_shards: int):
        fabric = self.fabric
        router = self.router
        if fabric.migration is not None:
            raise RpcError("a shard migration is already in progress")
        old_shards = fabric.shards
        stats = MigrationStats(kind=kind, old_shards=old_shards,
                               new_shards=new_shards,
                               started_at=self.env.now)

        # ---------------------------------------------------------- prepare
        self._phase("prepare", None)
        new_rings = {service: fabric.ring_for(service).with_shards(new_shards)
                     for service in _SERVICES}
        old_rings = {service: fabric.ring_for(service)
                     for service in _SERVICES}
        if kind == "split":
            fabric.add_shard()
        # Pay the enumeration cost: one RPC round trip per shard and
        # service (migration_keys is a plain method — no database statement).
        for service in _SERVICES:
            for shard in range(old_shards):
                yield from self._call(service, shard, "migration_keys")
        # Atomic snapshot + plan + overlay install (no yields in between):
        # every key written before this instant is either in the plan or on
        # an unchanged arc; every key born after it routes by the new ring.
        services = {"dc": fabric.catalog_shards, "ds": fabric.scheduler_shards}
        plans: Dict[str, HandoffPlan] = {}
        for service in _SERVICES:
            keys: List[str] = []
            for shard in range(old_shards):
                keys.extend(services[service][shard].migration_keys())
            plans[service] = old_rings[service].plan_handoff(
                new_rings[service], keys)
            stats.keys_planned[service] = plans[service].keys_moved
            stats.total_keys[service] = plans[service].total_keys
            stats.theoretical_minimum[service] = (
                plans[service].theoretical_minimum)
        migration = ShardMigration(self.env, kind, new_rings, plans)
        fabric.migration = migration
        for shard in range(old_shards):
            fabric.scheduler_shards[shard]._mutation_hook = (
                lambda uid, _shard=shard: migration.note_dirty_from(
                    "ds", _shard, uid))

        ds_by_src: Dict[int, Set[str]] = {}
        for move in plans["ds"].moves:
            ds_by_src.setdefault(move.src, set()).add(move.key)
        try:
            # ------------------------------------------------------- copy
            self._phase("copy", migration)
            for service in _SERVICES:
                for move in plans[service].moves:
                    yield from self._copy_one(service, move.key,
                                              move.src, move.dst)

            # ---------------------------------------------------- cutover
            self._phase("cutover", migration)
            for shard, uids in sorted(ds_by_src.items()):
                fabric.scheduler_shards[shard].quiesce(uids)
            migration.seal()
            yield from migration.wait_drained()
            recopied = {service: 0 for service in _SERVICES}
            while migration.has_dirty():
                stats.dirty_rounds += 1
                if stats.dirty_rounds > self.MAX_DIRTY_ROUNDS:
                    raise RpcError(
                        f"shard migration failed to converge after "
                        f"{self.MAX_DIRTY_ROUNDS} re-copy rounds")
                for service, key in migration.take_dirty():
                    move = migration.planned[service][key]
                    yield from self._copy_one(service, key,
                                              move.src, move.dst)
                    recopied[service] += 1
            stats.keys_recopied = recopied
            migration.flip_all()
            migration.unseal()

            # ------------------------------------------------------ drain
            self._phase("drain", migration)
            for service in _SERVICES:
                drop = "drop_key" if service == "dc" else "drop_entry"
                for move in plans[service].moves:
                    yield from self._call(service, move.src, drop, move.key)
            for shard, uids in sorted(ds_by_src.items()):
                fabric.scheduler_shards[shard].unquiesce(uids)
            fabric.commit_transition(new_rings["dc"], new_rings["ds"],
                                     new_shards)
            if kind == "merge":
                # The leaving shard serves no keys any more (planned keys
                # flipped; new keys route by the committed ring), but a
                # straggler call may still hold its resolver — retire only
                # once idle.
                yield from router.wait_shard_idle(new_shards)
        finally:
            # Unwind the overlay even on a failed migration: lift the seal
            # (parked calls must not hang), unfreeze placements, drop the
            # dirty hooks, and restore plain ring routing.  After an
            # aborted copy the sources remain authoritative — stale
            # destination copies are reads-only duplicates the scatter
            # merge already de-duplicates.
            if migration.sealed:
                migration.unseal()
            for shard, uids in sorted(ds_by_src.items()):
                fabric.scheduler_shards[shard].unquiesce(uids)
            for shard in range(min(old_shards, len(fabric.scheduler_shards))):
                fabric.scheduler_shards[shard]._mutation_hook = None
            fabric.migration = None
        if kind == "merge":
            fabric.retire_tail_shard()
        stats.sealed_s = migration.sealed_s
        stats.finished_at = self.env.now
        self.history.append(stats)
        return stats
