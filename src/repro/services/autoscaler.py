"""SLO-driven autoscaling over the elastic fabric.

The rebalance coordinator (:mod:`repro.services.rebalance`) makes the shard
count a *runtime* knob; this module decides when to turn it.  Three pieces:

* :class:`SloTracker` — the client-side latency SLO.  The workload driver
  feeds it one observation per completed request; a polling process keeps a
  sliding window, computes the windowed p99 and integrates **violation
  seconds** — the wall-clock time the fabric spent above its p99 target.
  The integral is the scenario's figure of merit: the ``fabric-autoscale``
  bench reports it with and without the autoscaler on the same diurnal
  trace.

* :class:`HotspotMonitor` — where the latency is coming from.  PR 5's RPC
  channels account calls and latency per endpoint label (one label per
  shard replica set, e.g. ``"DataCatalog[dc-1]"``); the monitor diffs those
  counters between control-loop ticks, so each scaling decision records the
  *hot* shard over the last interval, not over all history.

* :class:`SloAutoscaler` — the control loop.  Every ``interval_s`` it reads
  the windowed p99 and, outside the post-action ``COOLDOWN_S``, asks the
  rebalance coordinator for a live split (p99 above target, below
  ``max_shards``) or a live merge (p99 under ``MERGE_BELOW`` × target,
  above ``MIN_SHARDS``).  The asymmetric thresholds are the hysteresis
  band that keeps the loop from flapping around the target; the cooldown
  gives a fresh shard time to absorb load before the next measurement is
  trusted.  Every tick appends a :class:`ScaleDecision`, so a bench run
  yields the full decision trace, deterministically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HotspotMonitor",
    "ScaleDecision",
    "SloAutoscaler",
    "SloTracker",
]

#: The SLO tracker's polling step.
POLL_S = 0.5
#: Seconds after a rebalance completes during which the loop only holds.
COOLDOWN_S = 8.0
#: The fabric never merges below this many shards.
MIN_SHARDS = 1
#: Merge when p99 is under this share of the target: the hysteresis band
#: under the split threshold.
MERGE_BELOW = 0.4


class SloTracker:
    """Sliding-window latency percentiles and the SLO-violation integral.

    ``observe`` is O(1); the percentile sorts the window on demand.  The
    violation integral advances in :meth:`run`'s polling steps: a poll that
    sees the windowed p99 above ``target_p99_s`` charges the whole
    ``POLL_S`` step to ``violation_seconds`` (rectangle rule — identical
    for every deployment compared on the same trace, which is all the
    with/without comparison needs).
    """

    def __init__(self, env, target_p99_s: float, window_s: float = 10.0):
        if target_p99_s <= 0:
            raise ValueError("target_p99_s must be positive")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.env = env
        self.target_p99_s = float(target_p99_s)
        self.window_s = float(window_s)
        #: (completion time, latency) pairs inside the sliding window
        self._samples: Deque[Tuple[float, float]] = deque()
        self.observed = 0
        self.max_latency_s = 0.0
        #: seconds the windowed p99 spent above target (the SLO integral)
        self.violation_seconds = 0.0
        #: polls above target / total polls
        self.violation_polls = 0
        self.polls = 0
        self.worst_p99_s = 0.0

    # ------------------------------------------------------------------ feeding
    def observe(self, latency_s: float) -> None:
        """Record one completed client request's latency."""
        self.observed += 1
        if latency_s > self.max_latency_s:
            self.max_latency_s = latency_s
        self._samples.append((self.env.now, latency_s))

    def _evict(self) -> None:
        horizon = self.env.now - self.window_s
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    # ------------------------------------------------------------------ reading
    def percentile(self, q: float) -> Optional[float]:
        """Windowed latency percentile (None while the window is empty)."""
        self._evict()
        if not self._samples:
            return None
        ordered = sorted(latency for _at, latency in self._samples)
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[index]

    def p99(self) -> Optional[float]:
        return self.percentile(0.99)

    @property
    def in_violation(self) -> bool:
        p99 = self.p99()
        return p99 is not None and p99 > self.target_p99_s

    # ------------------------------------------------------------------ integral
    def run(self, for_s: Optional[float] = None):
        """Generator process: poll the window and integrate violations."""
        started = self.env.now
        while for_s is None or self.env.now - started < for_s:
            yield self.env.timeout(POLL_S)
            self.polls += 1
            p99 = self.p99()
            if p99 is not None and p99 > self.worst_p99_s:
                self.worst_p99_s = p99
            if p99 is not None and p99 > self.target_p99_s:
                self.violation_polls += 1
                self.violation_seconds += POLL_S


class HotspotMonitor:
    """Per-shard load deltas from the channels' per-label RPC accounting.

    Channels accumulate ``calls_by_label``/``latency_by_label`` forever;
    scaling wants the load *since the last look*.  :meth:`delta` returns
    per-label (calls, latency) increments since the previous call and
    :meth:`hottest` names the label that accumulated the most latency over
    the interval — deterministic (ties break on the label).
    """

    def __init__(self, channels: Sequence):
        self.channels = list(channels)
        self._last_calls: Dict[str, int] = {}
        self._last_latency: Dict[str, float] = {}

    def _totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        calls: Dict[str, int] = {}
        latency: Dict[str, float] = {}
        for channel in self.channels:
            for label, count in channel.calls_by_label.items():
                calls[label] = calls.get(label, 0) + count
            for label, cost in channel.latency_by_label.items():
                latency[label] = latency.get(label, 0.0) + cost
        return calls, latency

    def delta(self) -> Dict[str, Tuple[int, float]]:
        """(calls, latency) accumulated per label since the previous delta."""
        calls, latency = self._totals()
        out = {}
        for label in sorted(calls):
            d_calls = calls[label] - self._last_calls.get(label, 0)
            d_latency = latency.get(label, 0.0) - self._last_latency.get(
                label, 0.0)
            if d_calls > 0 or d_latency > 0:
                out[label] = (d_calls, d_latency)
        self._last_calls = calls
        self._last_latency = latency
        return out

    @staticmethod
    def hottest(delta: Dict[str, Tuple[int, float]]) -> Optional[str]:
        """The label with the most latency in *delta* (None when idle)."""
        if not delta:
            return None
        return max(sorted(delta), key=lambda label: delta[label][1])


@dataclass(frozen=True)
class ScaleDecision:
    """One control-loop tick's outcome."""

    at: float
    action: str                    #: "split" | "merge" | "hold"
    p99_s: Optional[float]
    shards: int
    hot_label: Optional[str] = None
    reason: str = ""


class SloAutoscaler:
    """Holds a p99 latency target by splitting/merging live shards.

    ``COOLDOWN_S`` counts from the *completion* of the previous rebalance
    and should exceed the tracker's ``window_s``: the cutover seal parks
    requests for a few hundred milliseconds, and those self-inflicted
    latency spikes must age out of the sliding window before the next
    measurement is trusted — otherwise a merge's own seal re-triggers a
    split and the loop flaps.
    """

    def __init__(self, fabric, router, tracker: SloTracker,
                 coordinator=None, monitor: Optional[HotspotMonitor] = None,
                 interval_s: float = 2.0, max_shards: int = 8):
        from repro.services.rebalance import RebalanceCoordinator
        if max_shards < MIN_SHARDS:
            raise ValueError(f"max_shards must be at least {MIN_SHARDS}, "
                             f"got {max_shards!r}")
        self.fabric = fabric
        self.tracker = tracker
        self.coordinator = (coordinator if coordinator is not None
                            else RebalanceCoordinator(fabric, router))
        self.monitor = monitor
        self.env = fabric.env
        self.interval_s = float(interval_s)
        self.max_shards = int(max_shards)
        self.decisions: List[ScaleDecision] = []
        self.splits = 0
        self.merges = 0
        self._last_action_at: Optional[float] = None

    # ------------------------------------------------------------------ loop
    def _decide(self, p99: Optional[float]) -> Tuple[str, str]:
        target = self.tracker.target_p99_s
        in_cooldown = (
            self._last_action_at is not None
            and self.env.now - self._last_action_at < COOLDOWN_S)
        if self.fabric.migration is not None:
            return "hold", "migration in flight"
        if in_cooldown:
            return "hold", "cooldown"
        if p99 is None:
            return "hold", "no samples"
        if p99 > target:
            if self.fabric.shards >= self.max_shards:
                return "hold", "p99 above target but at max_shards"
            return "split", (f"p99 {p99 * 1e3:.1f}ms > target "
                             f"{target * 1e3:.1f}ms")
        if p99 < MERGE_BELOW * target:
            if self.fabric.shards <= MIN_SHARDS:
                return "hold", "idle but at min_shards"
            return "merge", (f"p99 {p99 * 1e3:.1f}ms < "
                             f"{MERGE_BELOW:.0%} of target")
        return "hold", "inside hysteresis band"

    def run(self, for_s: Optional[float] = None):
        """Generator process: the control loop."""
        started = self.env.now
        while for_s is None or self.env.now - started < for_s:
            yield self.env.timeout(self.interval_s)
            p99 = self.tracker.p99()
            action, reason = self._decide(p99)
            hot = None
            if self.monitor is not None:
                hot = self.monitor.hottest(self.monitor.delta())
            self.decisions.append(ScaleDecision(
                at=self.env.now, action=action, p99_s=p99,
                shards=self.fabric.shards, hot_label=hot, reason=reason))
            if action == "split":
                self.splits += 1
                yield from self.coordinator.split()
                self._last_action_at = self.env.now
            elif action == "merge":
                self.merges += 1
                yield from self.coordinator.merge()
                self._last_action_at = self.env.now

    # ------------------------------------------------------------------ report
    def decision_trace(self) -> List[dict]:
        """The non-hold decisions, JSON-ready (the bench's audit trail)."""
        return [
            {"at_s": d.at, "action": d.action,
             "p99_ms": None if d.p99_s is None else d.p99_s * 1e3,
             "shards": d.shards, "hot_label": d.hot_label,
             "reason": d.reason}
            for d in self.decisions if d.action != "hold"]
