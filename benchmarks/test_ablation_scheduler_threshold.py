"""Ablation — the MaxDataSchedule threshold of Algorithm 1.

Algorithm 1 stops assigning new data to a host once ``MaxDataSchedule`` new
items have been added in one synchronisation.  A small threshold smooths the
load on the Data Scheduler and the host's downlink but makes a host need more
synchronisation rounds (and therefore more time, at a fixed sync period) to
acquire a large working set; a large threshold converges in one round.
"""

from benchmarks.conftest import emit, run_once
from repro.bench.reporting import format_table, shape_check
from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.services.data_scheduler import DataSchedulerService
from repro.sim.kernel import Environment


def rounds_to_acquire(n_items: int, max_data_schedule: int) -> int:
    env = Environment()
    scheduler = DataSchedulerService(env, max_data_schedule=max_data_schedule)
    for i in range(n_items):
        scheduler.schedule(Data(name=f"d{i}"), Attribute(name=f"a{i}", replica=1))
    cache: set = set()
    rounds = 0
    while len(cache) < n_items:
        rounds += 1
        result = scheduler.compute_schedule("host", set(cache))
        cache.update(d.uid for d, _ in result.assigned)
        if rounds > n_items + 1:  # pragma: no cover - safety stop
            break
    return rounds


def test_ablation_scheduler_threshold(benchmark):
    n_items = 32
    thresholds = (1, 4, 16, 64)

    def experiment():
        return {t: rounds_to_acquire(n_items, t) for t in thresholds}

    rounds = run_once(benchmark, experiment)
    emit("Ablation — MaxDataSchedule threshold", format_table(
        [{"max_data_schedule": t, "sync_rounds_to_acquire_32_items": r}
         for t, r in rounds.items()]))

    checks = shape_check("ablation: scheduler threshold")
    checks.is_true("round count decreases monotonically with the threshold",
                   rounds[1] >= rounds[4] >= rounds[16] >= rounds[64])
    checks.is_true("threshold 1 needs one round per item", rounds[1] == n_items)
    checks.is_true("a threshold larger than the working set converges in one round",
                   rounds[64] == 1)
    checks.is_true("threshold 4 needs ceil(32/4) rounds", rounds[4] == 8)
    checks.verify()
