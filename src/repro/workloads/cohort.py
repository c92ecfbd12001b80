"""Array-backed host cohorts: 100k hosts without 100k Python processes.

The full runtime (:class:`~repro.core.runtime.BitDewEnvironment`) drives
every volatile host with its own generator pair (sync loop + heartbeat
loop).  That is the right model for churn experiments, but at ≥100k hosts
the per-process overhead — 2·N generators, 2·N timer events per period,
N RPC round-trips per storm — dominates the wall clock long before the
event kernel does.

For scale benchmarks over *identical* hosts the per-host processes carry
no information: every host in a block behaves the same way.  A
:class:`HostCohort` therefore batches a block of hosts behind **one**
generator:

* per-host quantities (download counts, transferred MB, completion
  times) live in numpy arrays indexed by the host's position in the
  cohort, not in per-host agent objects;
* one :func:`cohort_sync_process` drives the whole block's
  sync→download→confirm cycle: it calls the Data Scheduler's pure
  ``compute_schedule_batch`` once per round, starts the resulting transfers on
  the shared flow network, and waits for the block's flows with a single
  ``AllOf`` — so a synchronisation round costs the cohort one event plus
  one per distinct completion time, instead of ≥4 events per host;
* one :func:`cohort_heartbeat_process` replaces N per-host heartbeat
  timers with a single periodic timer that accounts N heartbeats.

Simulated times are unaffected by the batching: the flows, their
constraint sets and the sync decision sequence are exactly the ones the
per-host loops would produce for the same visit order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the toolchain
    _np = None

from repro.net.host import Host

__all__ = [
    "HostCohort",
    "build_cohorts",
    "cohort_heartbeat_process",
    "cohort_sync_process",
]


class HostCohort:
    """A block of identical hosts sharing one driver generator."""

    __slots__ = ("index", "hosts", "cached", "downloads", "bytes_mb",
                 "completion_s", "syncs", "heartbeats")

    def __init__(self, index: int, hosts: Sequence[Host]):
        if _np is None:  # pragma: no cover - numpy is baked in
            raise RuntimeError("host cohorts require numpy")
        if not hosts:
            raise ValueError("a cohort needs at least one host")
        self.index = index
        self.hosts: List[Host] = list(hosts)
        n = len(self.hosts)
        #: per-host cache content (uid sets stay tiny: max_data_schedule
        #: new items per sync), everything countable is an array below
        self.cached: List[set] = [set() for _ in range(n)]
        self.downloads = _np.zeros(n, dtype=_np.int64)
        self.bytes_mb = _np.zeros(n, dtype=_np.float64)
        #: simulated completion time of each host's last download (-1 = none)
        self.completion_s = _np.full(n, -1.0, dtype=_np.float64)
        self.syncs = 0
        self.heartbeats = 0

    def __len__(self) -> int:
        return len(self.hosts)

    @property
    def total_downloads(self) -> int:
        return int(self.downloads.sum())

    @property
    def total_bytes_mb(self) -> float:
        return float(self.bytes_mb.sum())

    @property
    def last_completion_s(self) -> float:
        return float(self.completion_s.max())


def build_cohorts(hosts: Sequence[Host], cohort_size: int) -> List[HostCohort]:
    """Partition *hosts* into blocks of ``cohort_size`` (last may be short)."""
    if cohort_size <= 0:
        raise ValueError("cohort_size must be positive")
    return [HostCohort(i, hosts[start:start + cohort_size])
            for i, start in enumerate(range(0, len(hosts), cohort_size))]


def cohort_sync_process(
    env,
    cohort: HostCohort,
    sync: Callable[[List[str], List[set]], list],
    transfer: Callable[[Host, str], object],
    size_mb_of: Dict[str, float],
    rounds: int,
    stagger_s: float = 0.0,
    sync_gap_s: float = 1.0,
):
    """One generator running the sync→download cycle for a whole cohort.

    ``sync(host_names, cached_uids_per_host)`` is the pure scheduling
    decision for one round of the whole cohort
    (``DataSchedulerService.compute_schedule_batch``), one result per host
    in cohort order; ``transfer(host, uid)`` starts the download flow and
    returns it.  All of a round's syncs happen at the same simulated
    instant in cohort order, so the one batched call decides exactly what
    N sequential per-host calls would.
    """
    if stagger_s > 0:
        yield env.timeout(stagger_s * cohort.index)
    host_names = [host.name for host in cohort.hosts]
    for _round in range(rounds):
        flows = []
        results = sync(host_names, cohort.cached)
        cohort.syncs += len(cohort.hosts)
        for i, result in enumerate(results):
            host = cohort.hosts[i]
            for uid in result.to_download:
                flows.append((i, uid, transfer(host, uid)))
        if flows:
            yield env.all_of([flow.done for _i, _uid, flow in flows])
            for i, uid, flow in flows:
                cohort.cached[i].add(uid)
                cohort.downloads[i] += 1
                cohort.bytes_mb[i] += size_mb_of[uid]
                cohort.completion_s[i] = flow.end_time
        if sync_gap_s > 0:
            yield env.timeout(sync_gap_s)


def cohort_heartbeat_process(
    env,
    cohort: HostCohort,
    period_s: float,
    duration_s: float,
    beat: Optional[Callable[[HostCohort, int], None]] = None,
):
    """One generator multiplexing the cohort's per-host heartbeat timers.

    ``period_s`` is the *per-host* heartbeat period.  N hosts beating every
    ``period_s`` arrive, evenly interleaved, as one event every
    ``period_s / N`` — so the cohort needs a single generator whose timer
    fires at the aggregate arrival rate, not N timers.  Every tick accounts
    exactly one host's heartbeat (round-robin over the cohort), preserving
    the kernel-level event density of per-host timers.
    """
    if period_s <= 0 or duration_s <= 0:
        return
    tick_s = period_s / len(cohort.hosts)
    ticks = int(duration_s / period_s) * len(cohort.hosts)
    # The no-observer loop is the kernel benchmark's inner loop (one event
    # per tick, ~10⁶ per run): bind the timeout factory once and skip the
    # per-tick beat check.
    timeout = env.timeout
    if beat is None:
        for _tick in range(ticks):
            yield timeout(tick_s)
            cohort.heartbeats += 1
    else:
        for tick in range(ticks):
            yield timeout(tick_s)
            cohort.heartbeats += 1
            beat(cohort, tick % len(cohort.hosts))
