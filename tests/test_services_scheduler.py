"""Unit tests for the Data Scheduler (Algorithm 1) and the failure detector."""

import pytest

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.services.data_scheduler import DataSchedulerService
from repro.services.heartbeat import FailureDetector
from repro.storage.database import Database


@pytest.fixture
def detector(env):
    return FailureDetector(env, heartbeat_period_s=1.0, timeout_multiplier=3.0)


@pytest.fixture
def scheduler(env, detector):
    return DataSchedulerService(env, database=Database(env),
                                failure_detector=detector, max_data_schedule=16)


def sync(scheduler, host, cached=(), reservoir=True):
    return scheduler.compute_schedule(host, set(cached), reservoir=reservoir)


class TestFailureDetector:
    def test_heartbeat_and_liveness(self, env, detector):
        detector.heartbeat("h1")
        assert detector.is_alive("h1")
        assert detector.known_hosts() == ["h1"]
        assert not detector.is_alive("unknown")

    def test_timeout_declares_dead(self, env, detector):
        dead = []
        detector.on_failure(dead.append)
        detector.heartbeat("h1")
        env._now = 4.0   # advance beyond 3 x heartbeat
        assert detector.sweep() == ["h1"]
        assert dead == ["h1"]
        assert not detector.is_alive("h1")
        assert detector.liveness("h1").declared_dead_at == 4.0

    def test_recovery_callback(self, env, detector):
        recovered = []
        detector.on_recovery(recovered.append)
        detector.heartbeat("h1")
        env._now = 10.0
        detector.sweep()
        detector.heartbeat("h1")
        assert recovered == ["h1"]
        assert detector.is_alive("h1")

    def test_sweep_loop_process(self, env, detector):
        dead = []
        detector.on_failure(dead.append)
        detector.heartbeat("h1")
        detector.start()
        detector.start()   # idempotent
        env.run(until=10)
        assert dead == ["h1"]
        detector.stop()

    def test_forget(self, env, detector):
        detector.heartbeat("h1")
        detector.forget("h1")
        assert detector.known_hosts() == []

    def test_validation(self, env):
        with pytest.raises(ValueError):
            FailureDetector(env, heartbeat_period_s=0)
        with pytest.raises(ValueError):
            FailureDetector(env, timeout_multiplier=0)

    def test_timeout_property(self, env, detector):
        assert detector.timeout_s == pytest.approx(3.0)


class TestSchedulingReplica:
    def test_replica_assigned_up_to_count(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=2))
        first = sync(scheduler, "h1")
        assert data.uid in first.to_download
        second = sync(scheduler, "h2")
        assert data.uid in second.to_download
        third = sync(scheduler, "h3")
        assert data.uid not in third.to_download
        assert scheduler.owners_of(data.uid) == {"h1", "h2"}

    def test_replicate_to_all(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=-1))
        for host in ("h1", "h2", "h3", "h4", "h5"):
            result = sync(scheduler, host)
            assert data.uid in result.to_download

    def test_cached_data_is_kept_not_redownloaded(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1))
        sync(scheduler, "h1")
        again = sync(scheduler, "h1", cached={data.uid})
        assert data.uid not in again.to_download
        assert data.uid not in again.to_delete
        assert any(d.uid == data.uid for d, _ in again.assigned)

    def test_unmanaged_cached_data_is_deleted(self, scheduler):
        result = sync(scheduler, "h1", cached={"stale-uid"})
        assert result.to_delete == ["stale-uid"]

    def test_max_data_schedule_limits_new_assignments(self, env, detector):
        scheduler = DataSchedulerService(env, failure_detector=detector,
                                         max_data_schedule=3)
        for i in range(10):
            scheduler.schedule(Data(name=f"d{i}"), Attribute(name="a", replica=1))
        result = sync(scheduler, "h1")
        assert len(result.to_download) == 3
        result2 = sync(scheduler, "h1", cached=set(result.to_download))
        assert len(result2.to_download) == 3

    def test_client_hosts_get_no_replica_placement(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=5))
        result = sync(scheduler, "client", reservoir=False)
        assert result.to_download == []
        result = sync(scheduler, "reservoir", reservoir=True)
        assert data.uid in result.to_download

    def test_unschedule_makes_data_obsolete(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1))
        sync(scheduler, "h1")
        assert scheduler.unschedule(data.uid)
        result = sync(scheduler, "h1", cached={data.uid})
        assert result.to_delete == [data.uid]
        assert not scheduler.unschedule(data.uid)

    def test_pin_counts_as_owner(self, scheduler):
        data = Data(name="d")
        scheduler.pin(data, "master", Attribute(name="a", replica=1))
        assert scheduler.owners_of(data.uid) == {"master"}
        # Replica already satisfied by the pinned owner.
        result = sync(scheduler, "h1")
        assert data.uid not in result.to_download


class TestSchedulingAffinity:
    def test_affinity_follows_reference_data(self, scheduler):
        sequence = Data(name="sequence-1")
        genebase = Data(name="genebase")
        scheduler.schedule(sequence, Attribute(name="Sequence", replica=1))
        scheduler.schedule(genebase, Attribute(name="Genebase", replica=1,
                                               affinity="Sequence"))
        # Host without the sequence: genebase must not be placed by replica.
        empty = sync(scheduler, "h-empty")
        downloaded = set(empty.to_download)
        assert genebase.uid not in downloaded or sequence.uid in downloaded

        # A host holding the sequence gets the genebase.
        result = sync(scheduler, "h1", cached={sequence.uid})
        assert genebase.uid in result.to_download

    def test_affinity_stronger_than_replica(self, scheduler):
        """A datum with affinity is replicated wherever the reference is,
        regardless of its own replica value (paper §3.2)."""
        reference = Data(name="ref")
        dependent = Data(name="dep")
        scheduler.schedule(reference, Attribute(name="Ref", replica=-1))
        scheduler.schedule(dependent, Attribute(name="Dep", replica=1,
                                                affinity="Ref"))
        for host in ("h1", "h2", "h3"):
            first = sync(scheduler, host)
            assert reference.uid in first.to_download
            follow_up = sync(scheduler, host, cached={reference.uid})
            assert dependent.uid in follow_up.to_download
        assert len(scheduler.owners_of(dependent.uid)) == 3

    def test_affinity_by_data_name_and_uid(self, scheduler):
        collector = Data(name="collector")
        result_data = Data(name="result-1")
        by_uid = Data(name="result-2")
        scheduler.pin(collector, "master", Attribute(name="Collector"))
        scheduler.schedule(result_data, Attribute(name="Result", affinity="collector"))
        scheduler.schedule(by_uid, Attribute(name="Result2", affinity=collector.uid))
        result = sync(scheduler, "master", cached={collector.uid}, reservoir=False)
        assert result_data.uid in result.to_download
        assert by_uid.uid in result.to_download

    def test_affinity_applies_to_client_hosts(self, scheduler):
        """Clients receive data through affinity (results to the master)."""
        collector = Data(name="collector")
        result_data = Data(name="result-1")
        scheduler.pin(collector, "master", Attribute(name="Collector"))
        scheduler.schedule(result_data, Attribute(name="Result", affinity="Collector"))
        result = sync(scheduler, "master", cached={collector.uid}, reservoir=False)
        assert result_data.uid in result.to_download


class TestSchedulingLifetime:
    def test_absolute_lifetime_expiry(self, env, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1,
                                           absolute_lifetime=100.0))
        sync(scheduler, "h1")
        env._now = 50.0
        keep = sync(scheduler, "h1", cached={data.uid})
        assert data.uid not in keep.to_delete
        env._now = 150.0
        drop = sync(scheduler, "h1", cached={data.uid})
        assert data.uid in drop.to_delete

    def test_relative_lifetime_follows_reference(self, scheduler):
        collector = Data(name="collector")
        dependent = Data(name="dep")
        scheduler.pin(collector, "master", Attribute(name="Collector"))
        scheduler.schedule(dependent, Attribute(name="Dep", replica=1,
                                                relative_lifetime="Collector"))
        result = sync(scheduler, "h1")
        assert dependent.uid in result.to_download
        # Deleting the collector obsoletes the dependent datum.
        scheduler.unschedule(collector.uid)
        drop = sync(scheduler, "h1", cached={dependent.uid})
        assert dependent.uid in drop.to_delete

    def test_relative_lifetime_is_not_transitive(self, env, scheduler):
        """The lifetime contract on a chain A → B → C (B lives as long as A,
        C as long as B): a reference is tested for presence in Θ, not for
        validity, and an expired entry stays in Θ until it is unscheduled."""
        a, b, c = Data(name="a"), Data(name="b"), Data(name="c")
        scheduler.schedule(a, Attribute(name="A", absolute_lifetime=10))
        scheduler.schedule(b, Attribute(name="B", relative_lifetime="A"))
        scheduler.schedule(c, Attribute(name="C", relative_lifetime="B"))
        everything = {a.uid, b.uid, c.uid}
        env._now = 20.0
        # A expired: every cache drops it, but it still anchors B.
        assert sync(scheduler, "h1", cached=everything).to_delete == [a.uid]
        assert scheduler.managed_count == 3
        # A removed: B dangles, C stays valid while B is in Θ.
        scheduler.unschedule(a.uid)
        assert sync(scheduler, "h1", cached=everything).to_delete == sorted(
            [a.uid, b.uid])
        scheduler.unschedule(b.uid)
        assert sync(scheduler, "h1", cached=everything).to_delete == sorted(
            everything)

    def test_reschedule_extends_lifetime(self, env, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1,
                                           absolute_lifetime=10.0))
        scheduler.schedule(data, Attribute(name="a2", replica=1,
                                           absolute_lifetime=1000.0))
        env._now = 50.0
        assert sync(scheduler, "h1", cached={data.uid}).to_delete == []
        env._now = 2000.0
        assert sync(scheduler, "h1", cached={data.uid}).to_delete == [data.uid]

    def test_reregistration_restarts_scheduled_at(self, env, scheduler):
        data = Data(name="d")
        attribute = Attribute(name="a", replica=1, absolute_lifetime=5.0)
        scheduler.schedule(data, attribute)
        scheduler.unschedule(data.uid)
        env._now = 100.0
        scheduler.schedule(data, attribute)
        env._now = 104.0
        assert sync(scheduler, "h1").to_download == [data.uid]
        env._now = 106.0
        assert sync(scheduler, "h1", cached={data.uid}).to_delete == [data.uid]

    def test_expired_data_not_assigned(self, env, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=3,
                                           absolute_lifetime=10))
        env._now = 20.0
        result = sync(scheduler, "h1")
        assert data.uid not in result.to_download


class TestFaultTolerance:
    def test_fault_tolerant_data_rescheduled_after_owner_failure(self, env, scheduler,
                                                                 detector):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=2, fault_tolerance=True))
        for host in ("h1", "h2"):
            detector.heartbeat(host)
            sync(scheduler, host)
        assert scheduler.owners_of(data.uid) == {"h1", "h2"}
        # h1 stops heartbeating and is declared dead.
        env._now = 10.0
        detector.heartbeat("h2")
        detector.sweep()
        assert scheduler.owners_of(data.uid) == {"h2"}
        assert scheduler.repairs_triggered == 1
        assert scheduler.missing_replicas() == {data.uid: 1}
        # A fresh host picks up the missing replica.
        result = sync(scheduler, "h3")
        assert data.uid in result.to_download

    def test_non_fault_tolerant_data_not_repaired(self, env, scheduler, detector):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=2, fault_tolerance=False))
        for host in ("h1", "h2"):
            detector.heartbeat(host)
            sync(scheduler, host)
        env._now = 10.0
        detector.heartbeat("h2")
        detector.sweep()
        # The dead owner stays registered: the replica is simply unavailable.
        assert scheduler.owners_of(data.uid) == {"h1", "h2"}
        result = sync(scheduler, "h3")
        assert data.uid not in result.to_download

    def test_heartbeat_service_method(self, scheduler, detector):
        assert scheduler.heartbeat("h9")
        assert detector.is_alive("h9")


class TestSynchronizeGenerator:
    def test_synchronize_pays_database_cost_and_heartbeats(self, env, detector, drive):
        from repro.storage.database import EmbeddedSQLEngine
        db = Database(env, engine=EmbeddedSQLEngine(operation_cost_s=0.05,
                                                    connection_cost_s=0.0))
        scheduler = DataSchedulerService(env, database=db, failure_detector=detector)
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1))
        result = drive(env, scheduler.synchronize("h1", set()))
        assert data.uid in result.to_download
        assert env.now == pytest.approx(0.05)
        assert detector.is_alive("h1")
        assert scheduler.sync_count == 1

    def test_synchronize_without_database(self, env, drive):
        scheduler = DataSchedulerService(env)
        data = Data(name="d")
        scheduler.schedule(data)
        result = drive(env, scheduler.synchronize("h1", set()))
        assert data.uid in result.to_download


class TestMaxNewLimit:
    def test_max_new_zero_assigns_nothing(self, scheduler):
        """Regression: ``max_new=0`` used to assign one datum anyway because
        the limit was only checked *after* an assignment."""
        for i in range(5):
            scheduler.schedule(Data(name=f"d{i}"), Attribute(name="a", replica=1))
        result = scheduler.compute_schedule("h1", set(), max_new=0)
        assert result.to_download == []
        assert result.assigned == []
        assert scheduler.assignments == 0
        # The data is still assignable on a later, unrestricted sync.
        follow_up = scheduler.compute_schedule("h1", set())
        assert len(follow_up.to_download) == 5

    def test_max_new_zero_still_validates_cache(self, scheduler):
        data = Data(name="d")
        scheduler.schedule(data, Attribute(name="a", replica=1))
        scheduler.compute_schedule("h1", set())
        result = scheduler.compute_schedule("h1", {data.uid, "stale"}, max_new=0)
        assert result.to_delete == ["stale"]
        assert any(d.uid == data.uid for d, _ in result.assigned)


class TestIndexedScanBehaviour:
    def test_no_theta_scan_when_nothing_assignable(self, env):
        """With every replica target satisfied, a synchronisation examines
        zero Θ entries no matter how much data is under management."""
        scheduler = DataSchedulerService(env, max_data_schedule=16)
        for i in range(500):
            data = Data(name=f"d{i}")
            scheduler.schedule(data, Attribute(name="a", replica=1))
            scheduler.confirm_ownership("holder", data.uid)
        scheduler.entries_examined = 0
        result = scheduler.compute_schedule("fresh-host", set())
        assert result.to_download == []
        assert scheduler.entries_examined == 0
        assert scheduler.managed_count == 500

    def test_examined_entries_proportional_to_assignable(self, env):
        scheduler = DataSchedulerService(env, max_data_schedule=16)
        for i in range(200):
            data = Data(name=f"sat{i}")
            scheduler.schedule(data, Attribute(name="a", replica=1))
            scheduler.confirm_ownership("holder", data.uid)
        needy = Data(name="needy")
        scheduler.schedule(needy, Attribute(name="b", replica=3))
        scheduler.entries_examined = 0
        result = scheduler.compute_schedule("fresh-host", set())
        assert result.to_download == [needy.uid]
        assert scheduler.entries_examined == 1

    def test_owner_index_survives_unschedule(self, env, detector):
        scheduler = DataSchedulerService(env, failure_detector=detector)
        kept = Data(name="kept")
        dropped = Data(name="dropped")
        scheduler.schedule(kept, Attribute(name="a", replica=2,
                                           fault_tolerance=True))
        scheduler.schedule(dropped, Attribute(name="b", replica=2,
                                              fault_tolerance=True))
        detector.heartbeat("h1")
        sync(scheduler, "h1")
        scheduler.unschedule(dropped.uid)
        env._now = 10.0
        detector.sweep()
        # Only the still-managed datum is repaired; no stale index entries.
        assert scheduler.owners_of(kept.uid) == set()
        assert scheduler.repairs_triggered == 1


class TestReregistrationStaleness:
    def test_reschedule_after_unschedule_keeps_theta_order(self, env):
        """Regression: a stale deficit-heap row carrying the old seq must not
        let a re-registered datum jump the Θ-insertion-order queue."""
        scheduler = DataSchedulerService(env, max_data_schedule=16)
        a = Data(name="a")
        b = Data(name="b")
        scheduler.schedule(a, Attribute(name="A", replica=1))
        scheduler.unschedule(a.uid)
        scheduler.schedule(b, Attribute(name="B", replica=1))
        scheduler.schedule(a, Attribute(name="A", replica=1))
        result = scheduler.compute_schedule("h1", set(), max_new=1)
        # b was registered before a's second incarnation: b goes first.
        assert result.to_download == [b.uid]


class TestDeficitEviction:
    def test_expired_deficit_entries_examined_at_most_once(self, env):
        """Lifetime-dead data leaves the deficit on first examination instead
        of being re-examined by every synchronisation forever."""
        scheduler = DataSchedulerService(env, max_data_schedule=16)
        for i in range(50):
            scheduler.schedule(Data(name=f"d{i}"),
                               Attribute(name="a", replica=1,
                                         absolute_lifetime=10.0))
        env._now = 100.0
        scheduler.compute_schedule("h1", set())
        first_pass = scheduler.entries_examined
        assert first_pass <= 50
        scheduler.compute_schedule("h2", set())
        scheduler.compute_schedule("h3", set())
        assert scheduler.entries_examined == first_pass

    def test_dangling_reference_reenters_deficit_when_provider_appears(self, env):
        scheduler = DataSchedulerService(env)
        dep = Data(name="dep")
        scheduler.schedule(dep, Attribute(name="D", replica=1,
                                          relative_lifetime="Anchor"))
        # Examined once while dangling: evicted, then ignored.
        assert scheduler.compute_schedule("h1", set()).to_download == []
        assert scheduler.compute_schedule("h2", set()).to_download == []
        # A provider appears: the dependent is assignable again.
        anchor = Data(name="anchor")
        scheduler.schedule(anchor, Attribute(name="Anchor", replica=1))
        result = scheduler.compute_schedule("h3", set())
        assert set(result.to_download) == {dep.uid, anchor.uid}
