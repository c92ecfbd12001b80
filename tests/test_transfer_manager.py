"""Unit tests for the TransferManager API."""

import pytest

from repro.core.data import Data
from repro.core.exceptions import TransferAbortedError
from repro.core.runtime import BitDewEnvironment
from repro.core.transfer_manager import TransferManager
from repro.net.topology import cluster_topology
from repro.transfer.oob import TransferState


class FakeAgent:
    """Minimal agent stand-in (the manager only needs env + host.name)."""

    class _Host:
        name = "fake-host"

    def __init__(self, env):
        self.env = env
        self.host = self._Host()


@pytest.fixture
def manager(env):
    manager = TransferManager(FakeAgent(env))
    manager.set_max_concurrent(2)
    return manager


class TestTracking:
    def test_probe_before_any_transfer(self, manager):
        assert manager.probe(Data(name="x")) is TransferState.PENDING

    def test_track_and_wait_success(self, env, manager, drive):
        data = Data(name="x")

        def fake_transfer():
            yield env.timeout(2)
            return "ok"

        manager.track(data, env.process(fake_transfer()))
        assert manager.pending_count == 1
        assert manager.probe(data) is TransferState.TRANSFERRING

        def waiter():
            state = yield from manager.wait_for(data)
            return state

        state = drive(env, waiter())
        assert state is TransferState.COMPLETE
        assert manager.completed == 1
        assert manager.pending_count == 0
        assert manager.probe(data) is TransferState.COMPLETE

    def test_wait_for_failure_raises(self, env, manager):
        data = Data(name="x")

        def failing():
            yield env.timeout(1)
            raise RuntimeError("broken link")

        manager.track(data, env.process(failing()))

        def waiter():
            yield from manager.wait_for(data)

        process = env.process(waiter())
        with pytest.raises(TransferAbortedError):
            env.run(until=process)
        assert manager.failed == 1
        assert manager.probe(data) is TransferState.FAILED

    def test_wait_for_nothing_pending_returns_immediately(self, env, manager, drive):
        state = drive(env, manager.wait_for(Data(name="never-seen")))
        assert state is TransferState.COMPLETE or state is TransferState.PENDING

    def test_wait_for_previously_failed_raises(self, env, manager, drive):
        data = Data(name="x")

        def failing():
            yield env.timeout(1)
            raise RuntimeError("boom")

        manager.track(data, env.process(failing()))
        env.run(until=5)

        def waiter():
            yield from manager.wait_for(data)

        process = env.process(waiter())
        with pytest.raises(TransferAbortedError):
            env.run(until=process)

    def test_paper_style_alias(self, env, manager, drive):
        data = Data(name="x")

        def ok():
            yield env.timeout(1)

        manager.track(data, env.process(ok()))
        state = drive(env, manager.waitFor(data))
        assert state is TransferState.COMPLETE

    def test_barrier_waits_for_everything(self, env, manager, drive):
        datas = [Data(name=f"d{i}") for i in range(3)]

        def transfer(delay):
            yield env.timeout(delay)

        for delay, data in zip((1, 2, 3), datas):
            manager.track(data, env.process(transfer(delay)))

        def waiter():
            count = yield from manager.barrier()
            return count, env.now

        count, when = drive(env, waiter())
        assert count == 3
        assert when == pytest.approx(3)

    def test_barrier_tolerates_failures(self, env, manager, drive):
        ok_data, bad_data = Data(name="ok"), Data(name="bad")

        def good():
            yield env.timeout(1)

        def bad():
            yield env.timeout(2)
            raise RuntimeError("nope")

        manager.track(ok_data, env.process(good()))
        manager.track(bad_data, env.process(bad()))

        def waiter():
            yield from manager.wait_all()
            return env.now

        when = drive(env, waiter())
        assert when >= 2
        assert manager.failed == 1
        assert manager.completed == 1

    def test_pending_data_uids(self, env, manager):
        data = Data(name="x")

        def slow():
            yield env.timeout(10)

        manager.track(data, env.process(slow()))
        assert manager.pending_data_uids() == [data.uid]


class TestConcurrencyControl:
    def test_slots_limit_concurrency(self, env, manager):
        active = []
        peak = []

        def worker():
            slot = yield from manager.acquire_slot()
            active.append(1)
            peak.append(len(active))
            yield env.timeout(1)
            active.pop()
            manager.release_slot(slot)

        for _ in range(6):
            env.process(worker())
        env.run()
        assert max(peak) == 2

    def test_set_max_concurrent(self, env, manager):
        manager.set_max_concurrent(5)
        assert manager.max_concurrent == 5
        with pytest.raises(ValueError):
            manager.set_max_concurrent(0)

    def test_resize_does_not_strand_queued_transfers(self, env):
        """Raising the limit admits a queued transfer at once."""
        manager = TransferManager(FakeAgent(env))
        manager.set_max_concurrent(1)
        log = []

        def transfer(name, hold_s):
            slot = yield from manager.acquire_slot()
            log.append((name, "running", env.now))
            yield env.timeout(hold_s)
            manager.release_slot(slot)
            log.append((name, "released", env.now))

        def retune():
            yield env.timeout(5)
            manager.set_max_concurrent(4)

        env.process(transfer("a", 10))
        env.process(transfer("b", 1))      # queues behind a
        env.process(retune())
        env.run()
        assert log == [("a", "running", 0.0), ("b", "running", 5.0),
                       ("b", "released", 6.0), ("a", "released", 10.0)]

    def test_lowered_limit_counts_the_slots_in_use(self, env, manager):
        """Limit 2 with two holders, then limit 1 and three new transfers:
        nothing is granted while one or two slots are still in use, so each
        new transfer runs alone."""
        live = []
        grants = []

        def transfer(hold_s):
            slot = yield from manager.acquire_slot()
            live.append(slot)
            grants.append((env.now, len(live)))
            yield env.timeout(hold_s)
            live.remove(slot)
            manager.release_slot(slot)

        def retune():
            yield env.timeout(1)
            manager.set_max_concurrent(1)
            for _ in range(3):
                env.process(transfer(1))

        env.process(transfer(2))
        env.process(transfer(3))
        env.process(retune())
        env.run()
        assert grants == [(0.0, 1), (0.0, 2), (3.0, 1), (4.0, 1), (5.0, 1)]

    def test_runtime_agent_exposes_manager(self, env):
        topo = cluster_topology(env, n_workers=1)
        runtime = BitDewEnvironment(topo)
        agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        assert isinstance(agent.transfer_manager, TransferManager)
        assert agent.transfer_manager.pending_count == 0
