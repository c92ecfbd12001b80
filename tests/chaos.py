"""Reusable fault-injection and invariant-checking harness for the fabric.

The elastic-fabric claims — "no request is lost, none is double-applied,
no key is left behind" — are global invariants over the catalog and
scheduler shards, not properties of any single call.  This module gives
the chaos tests one vocabulary for proving them:

* :class:`RequestLedger` — a linear ledger of every client request a test
  issues.  Each request is ``begin``-ed before its first RPC and either
  ``complete``-d (with what the client believes it accomplished) or
  ``fail``-ed (the client saw an error — allowed, but then the ledger does
  not demand the effect).  Verification replays the ledger against the raw
  shard state, bypassing the router: a *completed* effect must exist
  exactly once across ALL shards, whatever migrations happened since.

* :class:`ChaosHarness` — fault injection synchronised with the migration
  protocol.  ``crash_on_phase`` returns an ``on_phase`` callback for the
  :class:`~repro.services.rebalance.RebalanceCoordinator` that kills a
  chosen service host the instant a chosen phase begins (the worst
  moments: mid-copy, right at the seal, during the source drops), with an
  optional scheduled recovery.  ``verify`` audits the invariants and
  returns human-readable violations; ``assert_ok`` raises on any.

The harness is deliberately dependency-free (stdlib only) so the CI smoke
jobs and the property suite can both drive it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["ChaosHarness", "FederationChaosHarness", "RequestLedger"]


class RequestLedger:
    """A linear record of every client request issued by a test."""

    def __init__(self):
        self.records: List[Dict[str, object]] = []
        self._next_rid = 0

    def begin(self, kind: str, key: str, value: Optional[str] = None) -> dict:
        """Open a ledger record before the request's first RPC."""
        record = {"rid": self._next_rid, "kind": kind, "key": key,
                  "value": value, "status": "pending"}
        self._next_rid += 1
        self.records.append(record)
        return record

    @staticmethod
    def complete(record: dict) -> None:
        record["status"] = "completed"

    @staticmethod
    def fail(record: dict) -> None:
        record["status"] = "failed"

    def by_status(self, status: str) -> List[dict]:
        return [r for r in self.records if r["status"] == status]

    @property
    def completed(self) -> List[dict]:
        return self.by_status("completed")

    @property
    def pending(self) -> List[dict]:
        return self.by_status("pending")

    @property
    def failed(self) -> List[dict]:
        return self.by_status("failed")


class ChaosHarness:
    """Crash service hosts at migration phase boundaries; audit invariants."""

    def __init__(self, runtime, ledger: Optional[RequestLedger] = None):
        self.runtime = runtime
        self.env = runtime.env
        self.fabric = runtime.fabric
        self.ledger = ledger if ledger is not None else RequestLedger()
        #: (phase, host name, time) per injected crash
        self.crashes: List[tuple] = []
        #: phases observed, in order (the protocol's audit trail)
        self.phases: List[tuple] = []

    # ------------------------------------------------------------------ faults
    def crash_on_phase(self, phase: str, host, recover_after_s: float = 6.0,
                       chain=None):
        """An ``on_phase`` callback crashing *host* when *phase* begins.

        The crash lands synchronously inside the coordinator's phase
        transition — before the phase's first RPC — which is the worst
        instant for it: every in-flight client call and every coordinator
        copy targeting the host must fail over.  With ``recover_after_s``
        the host comes back (its heartbeats resume and routing returns);
        pass ``None`` to leave it dead.  ``chain`` composes another
        ``on_phase`` callback (observed before the crash).
        """
        def on_phase(name, migration):
            self.phases.append((name, self.env.now))
            if chain is not None:
                chain(name, migration)
            if name == phase and host.online:
                self.crashes.append((name, host.name, self.env.now))
                self.runtime.crash_service_host(host)
                if recover_after_s is not None:
                    self.env.process(self._recover_later(host,
                                                         recover_after_s))
        return on_phase

    def observe_phases(self):
        """An ``on_phase`` callback that only records the protocol trail."""
        def on_phase(name, migration):
            self.phases.append((name, self.env.now))
        return on_phase

    def _recover_later(self, host, delay_s: float):
        yield self.env.timeout(delay_s)
        if not host.online:
            self.runtime.recover_service_host(host)

    # ------------------------------------------------------------------ audit
    def verify(self) -> List[str]:
        """Audit the ledger and the global shard invariants; return violations.

        Raw-scans every shard (no router, no RPC cost), so the audit sees
        exactly what migrations left behind:

        * a completed ``publish`` record's (key, value) exists on exactly
          one catalog shard, exactly once;
        * a completed ``pin`` record's host owns the uid on the scheduler;
        * a completed ``sync`` record (value ``(overlay_up, to_delete)``)
          was told to delete nothing — every uid the harness presents is
          managed throughout, so a deletion means the cache view reached a
          shard that does not own it;
        * every scheduler uid is managed by exactly one shard;
        * no ledger record is still pending (the test must resolve every
          request it began — lost-in-flight requests are the bug chaos
          testing exists to catch).
        """
        violations: List[str] = []
        fabric = self.fabric

        for record in self.ledger.completed:
            kind, key, value = record["kind"], record["key"], record["value"]
            if kind == "publish":
                holders = []
                copies = 0
                for index, shard in enumerate(fabric.catalog_shards):
                    values = shard.lookup_pair_now(key)
                    if values:
                        holders.append(index)
                        copies += sum(1 for v in values if v == value)
                if copies == 0:
                    violations.append(
                        f"lost: completed publish {key!r}={value!r} "
                        f"not found on any catalog shard")
                elif len(holders) > 1:
                    violations.append(
                        f"duplicated: key {key!r} lives on catalog shards "
                        f"{holders}")
                elif copies > 1:
                    violations.append(
                        f"duplicated: value {value!r} appears {copies} "
                        f"times under key {key!r}")
            elif kind == "pin":
                owners = set()
                for shard in fabric.scheduler_shards:
                    entry = shard.entry(key)
                    if entry is not None:
                        owners.update(entry.owners)
                if value not in owners:
                    violations.append(
                        f"lost: completed pin of {key!r} on {value!r} "
                        f"but owners are {sorted(owners)}")
            elif kind == "sync" and value[1]:
                violations.append(
                    f"misrouted: sync of {key!r} was told to delete "
                    f"managed uids {value[1]}")

        managed: Dict[str, List[int]] = {}
        for index, shard in enumerate(fabric.scheduler_shards):
            for uid in shard.migration_keys():
                managed.setdefault(uid, []).append(index)
        for uid, shards in sorted(managed.items()):
            if len(shards) > 1:
                violations.append(
                    f"duplicated: scheduler uid {uid!r} managed by shards "
                    f"{shards}")

        pending = self.ledger.pending
        if pending:
            violations.append(
                f"{len(pending)} ledger records still pending "
                f"(first: {pending[0]})")
        return violations

    def assert_ok(self) -> None:
        violations = self.verify()
        assert not violations, "chaos invariants violated:\n" + "\n".join(
            f"  - {v}" for v in violations)


class FederationChaosHarness:
    """WAN faults at replication phase boundaries; sovereignty audit.

    The federated counterpart of :class:`ChaosHarness`: instead of crashing
    service hosts inside one fabric, it severs the WAN link between two
    domains — optionally synchronised with the
    :class:`~repro.federation.replication.FederationReplicator` protocol via
    ``partition_on_phase`` (scan/offer/copy/commit, mirroring the rebalance
    coordinator's hook).  ``verify`` replays a ledger of intended exports
    against the raw per-domain state and runs the sovereignty audit: no
    export lost, none double-installed, and nothing non-``public`` observed
    outside its home domain.
    """

    def __init__(self, federation, ledger: Optional[RequestLedger] = None):
        self.federation = federation
        self.env = federation.env
        self.ledger = ledger if ledger is not None else RequestLedger()
        #: ("sever"|"heal", domain_a, domain_b, time) per injected WAN fault
        self.faults: List[tuple] = []
        #: replication phases observed, in order
        self.phases: List[tuple] = []

    # ------------------------------------------------------------------ faults
    def partition(self, domain_a: str, domain_b: str) -> None:
        """Sever the WAN link between two domains (both directions)."""
        self.faults.append(("sever", domain_a, domain_b, self.env.now))
        self.federation.partition(domain_a, domain_b)

    def heal(self, domain_a: str, domain_b: str) -> None:
        self.faults.append(("heal", domain_a, domain_b, self.env.now))
        self.federation.heal(domain_a, domain_b)

    def partition_on_phase(self, phase: str, domain_a: str, domain_b: str,
                           heal_after_s: Optional[float] = 6.0, chain=None):
        """An ``on_phase`` callback severing the WAN when *phase* begins.

        Fires once, synchronously inside the replicator's phase transition
        — before the phase's first WAN call — so every in-flight offer,
        bulk copy and import of that round sees the partition.  With
        ``heal_after_s`` the link heals later and the replicator's periodic
        replanning must catch up exactly-once; pass ``None`` to leave the
        federation split.  ``chain`` composes another callback.
        """
        fired = [False]

        def on_phase(name, replicator):
            self.phases.append((name, self.env.now))
            if chain is not None:
                chain(name, replicator)
            if name == phase and not fired[0]:
                fired[0] = True
                self.partition(domain_a, domain_b)
                if heal_after_s is not None:
                    self.env.process(
                        self._heal_later(domain_a, domain_b, heal_after_s))
        return on_phase

    def observe_phases(self):
        """An ``on_phase`` callback that only records the protocol trail."""
        def on_phase(name, replicator):
            self.phases.append((name, self.env.now))
        return on_phase

    def _heal_later(self, domain_a: str, domain_b: str, delay_s: float):
        yield self.env.timeout(delay_s)
        link = self.federation.link(domain_a, domain_b)
        if not link.up:
            self.heal(domain_a, domain_b)

    # ------------------------------------------------------------------ audit
    def _catalog_copies(self, domain, uid: str) -> int:
        return sum(1 for row in domain.catalog.all_data_now()
                   if row.uid == uid)

    def verify(self) -> List[str]:
        """Audit the export ledger and the sovereignty invariants.

        Raw-scans every domain (no gateways, no WAN), so the audit sees
        exactly what the partition left behind:

        * a completed ``replicate`` record's uid is installed in the target
          domain exactly once (catalog), not zero (lost) or more
          (duplicated);
        * nothing non-``public`` is observed outside its home domain —
          ``private`` leaks via :meth:`Federation.private_leaks`, and any
          pinned (``unlisted``/``private``) datum in a foreign catalog is a
          replication policy breach;
        * no ledger record is still pending.
        """
        violations: List[str] = []
        federation = self.federation

        for record in self.ledger.completed:
            if record["kind"] != "replicate":
                continue
            uid, target = record["key"], record["value"]
            domain = federation.domain(target)
            copies = self._catalog_copies(domain, uid)
            if copies == 0:
                violations.append(
                    f"lost: completed replicate of {uid!r} to {target!r} "
                    f"but the target catalog does not know it")
            elif copies > 1:
                violations.append(
                    f"duplicated: {uid!r} installed {copies} times in "
                    f"{target!r}")

        violations.extend(federation.private_leaks())

        for home_name, home in federation.domains.items():
            for data in home.home_data():
                if home.visibility_of(data.uid) == "public":
                    continue
                for other_name, other in federation.domains.items():
                    if other_name != home_name and other.knows(data.uid):
                        violations.append(
                            f"leaked: pinned "
                            f"({home.visibility_of(data.uid)}) datum "
                            f"{data.uid} (home {home_name}) observed in "
                            f"{other_name}'s catalog")

        pending = self.ledger.pending
        if pending:
            violations.append(
                f"{len(pending)} ledger records still pending "
                f"(first: {pending[0]})")
        return violations

    def assert_ok(self) -> None:
        violations = self.verify()
        assert not violations, "federation invariants violated:\n" + "\n".join(
            f"  - {v}" for v in violations)
