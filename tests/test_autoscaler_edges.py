"""Edge cases of the SLO autoscaler and its tracker.

Pins two behaviours the fabric-autoscale scenarios never hit head-on:

* the cooldown comparison is *strict* — a control tick landing exactly
  ``COOLDOWN_S`` after the previous rebalance completes is allowed to
  act, one landing any earlier holds;
* a zero-arrival window (idle trace, or every sample aged out) yields
  ``percentile() is None`` and a clean "no samples" hold — no division
  by zero anywhere in :class:`SloTracker` or the decision logic.
"""

from __future__ import annotations

import pytest

from repro.services.autoscaler import (
    COOLDOWN_S,
    MIN_SHARDS,
    HotspotMonitor,
    SloAutoscaler,
    SloTracker,
)
from repro.sim.kernel import Environment


class _StubFabric:
    def __init__(self, env, shards=2):
        self.env = env
        self.shards = shards
        self.migration = None


class _StubCoordinator:
    """Counts split/merge requests without touching any real fabric."""

    def __init__(self):
        self.splits = 0
        self.merges = 0

    def split(self):
        self.splits += 1
        return iter(())

    def merge(self):
        self.merges += 1
        return iter(())


def _autoscaler(env, tracker, **kwargs):
    kwargs.setdefault("max_shards", 8)
    return SloAutoscaler(_StubFabric(env), None, tracker,
                         coordinator=_StubCoordinator(), **kwargs)


def _advance(env, until):
    """Advance the kernel's clock to *until* (a timeout is the only event)."""
    def tick():
        yield env.timeout(until - env.now)
    env.run(env.process(tick()))


# ---------------------------------------------------------------------------
# cooldown boundary
# ---------------------------------------------------------------------------

def test_cooldown_expires_exactly_at_the_boundary():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1)
    autoscaler = _autoscaler(env, tracker)
    assert COOLDOWN_S == 8.0
    autoscaler._last_action_at = 0.0
    hot_p99 = 0.5  # far above target: only the cooldown can hold it back

    _advance(env, 7.999)
    assert autoscaler._decide(hot_p99) == ("hold", "cooldown")

    _advance(env, 8.0)
    action, reason = autoscaler._decide(hot_p99)
    assert action == "split", (
        f"cooldown must expire exactly at the boundary (strict <), "
        f"got hold: {reason}")

    # And a fresh autoscaler (no previous action) never holds on cooldown.
    fresh = _autoscaler(Environment(), SloTracker(Environment(),
                                                  target_p99_s=0.1))
    assert fresh._decide(hot_p99)[0] == "split"


def test_migration_in_flight_wins_over_everything():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1)
    autoscaler = _autoscaler(env, tracker)
    autoscaler.fabric.migration = object()
    assert autoscaler._decide(0.5) == ("hold", "migration in flight")


def test_shard_count_guards():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1)
    autoscaler = _autoscaler(env, tracker, max_shards=2)
    autoscaler.fabric.shards = 2
    assert autoscaler._decide(0.5) == (
        "hold", "p99 above target but at max_shards")
    autoscaler.fabric.shards = MIN_SHARDS
    assert autoscaler._decide(0.001) == ("hold", "idle but at min_shards")


# ---------------------------------------------------------------------------
# empty / zero-arrival windows
# ---------------------------------------------------------------------------

def test_empty_window_percentile_is_none_and_decision_holds():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1)
    assert tracker.percentile(0.99) is None
    assert tracker.p99() is None
    assert tracker.in_violation is False
    autoscaler = _autoscaler(env, tracker)
    assert autoscaler._decide(None) == ("hold", "no samples")


def test_zero_arrival_trace_polls_without_division_by_zero():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1, window_s=2.0)
    env.run(env.process(tracker.run(for_s=5.0)))
    assert tracker.polls == 10
    assert tracker.observed == 0
    assert tracker.violation_seconds == 0.0
    assert tracker.violation_polls == 0
    assert tracker.worst_p99_s == 0.0


def test_samples_aging_out_returns_window_to_empty():
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1, window_s=2.0)
    tracker.observe(0.5)
    assert tracker.p99() == pytest.approx(0.5)
    assert tracker.in_violation is True
    _advance(env, 3.0)  # strictly past window_s: the sample evicts
    assert tracker.p99() is None
    assert tracker.in_violation is False
    # A subsequent violation-integral poll over the now-empty window is a
    # clean no-op, not a crash.
    env.run(env.process(tracker.run(for_s=1.0)))
    assert tracker.violation_seconds == 0.0


def test_control_loop_runs_on_an_idle_fabric():
    """The full loop (not just _decide) over a zero-arrival window."""
    env = Environment()
    tracker = SloTracker(env, target_p99_s=0.1)
    autoscaler = _autoscaler(env, tracker, interval_s=1.0)
    env.run(env.process(autoscaler.run(for_s=4.0)))
    assert len(autoscaler.decisions) == 4
    assert all(d.action == "hold" and d.reason == "no samples"
               for d in autoscaler.decisions)
    assert autoscaler.splits == 0 and autoscaler.merges == 0


def test_hotspot_monitor_idle_delta():
    monitor = HotspotMonitor([])
    assert monitor.delta() == {}
    assert HotspotMonitor.hottest({}) is None
