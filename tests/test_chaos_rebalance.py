"""Chaos regression: service-host crashes mid-migration, in every phase.

Each test runs a live shard split or merge under real client traffic and
kills a service host the instant a chosen protocol phase begins — the
worst possible moments for the migration: before the plan snapshot,
mid-copy, right at the cutover seal, during the source drops.  The
coordinator's RPCs fail over (export/import/drop are idempotent, so even a
lost response is retried safely); client traffic fails over under the
at-most-once policy.  Afterwards the :class:`tests.chaos.ChaosHarness`
audits the global invariants raw: every completed request's effect exists
exactly once across ALL shards, every scheduler uid is managed by exactly
one shard, and no ledger record was left in flight.
"""

from __future__ import annotations

import pytest

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.net.rpc import RpcError
from repro.net.topology import cluster_topology
from repro.services.rebalance import RebalanceCoordinator
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent

from tests.chaos import ChaosHarness, RequestLedger

_PHASES = ("prepare", "copy", "cutover", "drain")


def _make_data(i):
    content = FileContent.from_seed(f"chaos-{i:04d}", 0.002)
    return Data.from_content(content), content


def _chaos_migration(kind: str, crash_phase: str, n_data: int = 36,
                     n_workers: int = 6, traffic_for_s: float = 14.0):
    """One live migration with a crash at *crash_phase*; returns the pieces."""
    env = Environment()
    topo = cluster_topology(env, n_workers=n_workers, n_service_hosts=3,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    runtime = BitDewEnvironment(
        topo, shards=2, service_hosts=3, service_replicas=2,
        sync_period_s=3600.0, heartbeat_period_s=1.0)
    fabric = runtime.fabric
    scheduler = runtime.data_scheduler
    catalog = runtime.data_catalog
    repository = runtime.container.data_repository

    attribute = Attribute(name="chaos", replica=1, protocol="http")
    datas = []
    for i in range(n_data):
        data, content = _make_data(i)
        catalog.register_data_now(data)
        locator = repository.store_now(data, content)
        catalog.add_locator_now(locator)
        scheduler.schedule(data, attribute)
        datas.append(data)
    agents = runtime.attach_all(auto_sync=False)
    done = runtime.kick_sync()
    env.run(until=done)

    ledger = RequestLedger()
    harness = ChaosHarness(runtime, ledger)
    # The crashed host backs shard replicas but is not the DR/DT primary,
    # so bulk transfers stay up while the service layer fails over.
    victim = fabric.hosts[1]
    coordinator = RebalanceCoordinator(
        fabric, runtime.router,
        on_phase=harness.crash_on_phase(crash_phase, victim,
                                        recover_after_s=8.0))

    t_start = env.now
    all_uids = {d.uid for d in datas}

    def client_loop(agent, index):
        count = 0
        while env.now - t_start < traffic_for_s:
            count += 1
            key = f"req-{agent.host.name}-{count:04d}"
            record = ledger.begin("publish", key, agent.host.name)
            try:
                yield from agent.invoke("dc", "publish_pair", key,
                                        agent.host.name)
                ledger.complete(record)
            except RpcError:
                ledger.fail(record)
            data = datas[(count * n_workers + index) % len(datas)]
            record = ledger.begin("pin", data.uid, agent.host.name)
            try:
                yield from agent.invoke("ds", "pin", data,
                                        agent.host.name, attribute)
                ledger.complete(record)
            except RpcError:
                ledger.fail(record)
            # A synchronisation presenting every datum: its cache view is
            # partitioned by effective owner while the overlay is up.
            overlay = runtime.fabric.migration is not None
            record = ledger.begin("sync", agent.host.name)
            try:
                result = yield from agent.invoke(
                    "ds", "synchronize", agent.host.name, all_uids)
                record["value"] = (overlay, result.to_delete)
                ledger.complete(record)
            except RpcError:
                ledger.fail(record)
            yield env.timeout(0.25)

    outcome = {}

    def transition():
        yield env.timeout(1.0)
        if kind == "split":
            stats = yield from coordinator.split()
        else:
            stats = yield from coordinator.merge()
        outcome["stats"] = stats

    for index, agent in enumerate(agents):
        env.process(client_loop(agent, index))
    env.process(transition())
    env.run(until=env.timeout(traffic_for_s + 10.0))
    return env, runtime, harness, outcome, datas, agents


class TestCrashEveryPhase:
    @pytest.mark.parametrize("phase", _PHASES)
    def test_split_survives_crash_in_phase(self, phase):
        env, runtime, harness, outcome, datas, agents = _chaos_migration(
            "split", phase)
        stats = outcome.get("stats")
        assert stats is not None, f"split never completed (crash in {phase})"
        assert runtime.fabric.shards == 3
        assert [name for name, _at in harness.phases] == list(_PHASES)
        assert len(harness.crashes) == 1
        harness.assert_ok()

    @pytest.mark.parametrize("phase", ("copy", "cutover"))
    def test_merge_survives_crash_in_phase(self, phase):
        env, runtime, harness, outcome, datas, agents = _chaos_migration(
            "merge", phase)
        stats = outcome.get("stats")
        assert stats is not None, f"merge never completed (crash in {phase})"
        assert runtime.fabric.shards == 1
        assert len(runtime.fabric.catalog_shards) == 1
        assert len(harness.crashes) == 1
        harness.assert_ok()

    def test_crash_free_migration_is_quiet(self):
        """Control: without injected faults the ledger shows zero failures
        and the protocol trail is exactly the four phases."""
        env, runtime, harness, outcome, datas, agents = _chaos_migration(
            "split", "no-crash")
        assert outcome.get("stats") is not None
        assert harness.crashes == []
        assert harness.ledger.failed == []
        assert any(r["value"][0] for r in harness.ledger.completed
                   if r["kind"] == "sync"), "no sync met the live overlay"
        harness.assert_ok()


class TestLedgerSemantics:
    def test_ledger_partitions_by_status(self):
        ledger = RequestLedger()
        a = ledger.begin("publish", "k1", "v")
        b = ledger.begin("publish", "k2", "v")
        c = ledger.begin("pin", "u1", "h")
        ledger.complete(a)
        ledger.fail(b)
        assert [r["rid"] for r in ledger.completed] == [0]
        assert [r["rid"] for r in ledger.failed] == [1]
        assert [r["rid"] for r in ledger.pending] == [2]
