"""The batched Algorithm 1 oracle: ``compute_schedule_batch`` == N sequential calls.

``DataSchedulerService.compute_schedule_batch`` promises *exactly* the
results and post-state of the sequential per-host loop — that promise is
what lets the cohort workloads batch without changing any simulated
quantity.  These tests pin it with a hypothesis oracle: build two
schedulers from the same randomly drawn world, run the cohort sequentially
on one and batched on the other, and require every observable to match —
per-host schedules, counters, owner state, the replica-deficit heap's live
content, and the mutation-hook call sequence.

Two strategies draw the worlds, one per side of the batch's guard:
``worlds`` mixes everything that forces the general walk (affinity,
lifetimes, ``reservoir=False``, any limit, duplicate hosts, overlapping
caches); ``fill_worlds`` aims at the unit-budget fill the scale harness
runs in, and its test fails unless a third of its examples really took it.
"""

from collections import Counter
from typing import List, NamedTuple, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.services.data_scheduler import DataSchedulerService
from repro.sim.kernel import Environment

common_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

class World(NamedTuple):
    """One drawn scheduler world plus the cohort to synchronise.

    Caches are lists of picks: index *p* names datum *p*, or a ghost uid
    the scheduler never managed once *p* runs past the data.
    """

    specs: List[Tuple[int, Optional[str], Optional[float]]]  # replica, affinity, lifetime
    max_data_schedule: int
    warm: List[Tuple[str, List[int]]]       # (host, cache picks) synced first
    fail_host: Optional[str]
    cohort: List[str]
    cache_picks: List[List[int]]
    reservoir: bool
    max_new: Optional[int]


@st.composite
def worlds(draw):
    """Worlds across the guard's far side (and, rarely, into the fill)."""
    n_data = draw(st.integers(min_value=0, max_value=10))
    specs = []
    for i in range(n_data):
        replica = draw(st.sampled_from([-1, 1, 1, 2, 3]))
        # Affinity references an earlier datum's name (or dangles); any
        # affinity in Θ forces the batch onto the general walk.
        affinity = None
        if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            affinity = f"d{draw(st.integers(0, max(0, n_data - 1)))}"
        lifetime = (1e6 if draw(st.integers(0, 9)) == 0 else None)
        specs.append((replica, affinity, lifetime))
    warm = [(f"w{i}", []) for i in range(draw(st.integers(0, 3)))]
    n_cohort = draw(st.integers(min_value=0, max_value=6))
    # Duplicate host names (a host syncing twice in one batch) must fall
    # off the fill and still match the sequential loop.
    cohort = [f"h{draw(st.integers(0, n_cohort))}" for _ in range(n_cohort)]
    cache_picks = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=max(0, n_data)),
                 max_size=4),
        min_size=n_cohort, max_size=n_cohort))
    reservoir = draw(st.integers(0, 9)) > 0
    max_new = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
    fail_host = draw(st.sampled_from([None] + [host for host, _c in warm]))
    return World(specs, 2, warm, fail_host, cohort, cache_picks, reservoir,
                 max_new)


@st.composite
def fill_worlds(draw):
    """Worlds aimed at the unit-budget fill: replica placement only, one
    new datum per sync, distinct fresh hosts.  Warm-up syncs that present
    caches, then a host failure, leave part-filled candidates and duplicate
    live deficit rows; cohort caches hold ghosts and managed uids (which
    the fresh host never owns) — now and then a candidate, which is the
    guard's business to notice."""
    n_data = draw(st.integers(min_value=1, max_value=10))
    specs = [(draw(st.sampled_from([-1, 1, 2, 3])), None, None)
             for _ in range(n_data)]
    picks = st.lists(st.integers(min_value=0, max_value=n_data - 1),
                     max_size=2)
    warm = [(f"w{i}", draw(picks)) for i in range(draw(st.integers(0, 3)))]
    fail_host = draw(st.sampled_from([None] + [host for host, _c in warm]))
    n_cohort = draw(st.integers(min_value=1, max_value=6))
    # Mostly ghosts; the managed picks are the last two data, the
    # candidates a short cohort's demand is least likely to reach.
    cache_picks = draw(st.lists(
        st.lists(st.integers(max(0, n_data - 2), n_data + 4), max_size=3),
        min_size=n_cohort, max_size=n_cohort))
    return World(specs, 1, warm, fail_host,
                 [f"h{k}" for k in range(n_cohort)], cache_picks, True,
                 draw(st.sampled_from([None, 1])))


def _build(env, world, datas, hook_log):
    """One scheduler holding the drawn Θ, warmed by sequential syncs."""
    scheduler = DataSchedulerService(
        env, max_data_schedule=world.max_data_schedule)
    scheduler._mutation_hook = hook_log.append
    for i, (replica, affinity, lifetime) in enumerate(world.specs):
        scheduler.schedule(datas[i], Attribute(
            name=f"attr{i}", replica=replica, affinity=affinity,
            absolute_lifetime=lifetime, fault_tolerance=True))
    for host, picks in world.warm:
        scheduler.compute_schedule(host, {datas[p].uid for p in picks})
    if world.fail_host is not None:
        # A failure-detector repair between the warm-up and the cohort:
        # owner lists shrink, uids re-enter the deficit (a second live row
        # when the first was never popped).
        scheduler._on_host_failure(world.fail_host)
    return scheduler


def _live_heap(scheduler):
    """The deficit heap's *live* rows (the only part behaviour reads)."""
    return sorted(row for row in scheduler._deficit_heap
                  if row[1] in scheduler._replica_deficit
                  and scheduler._entries[row[1]].seq == row[0])


def _result_tuple(result):
    return ([d.uid for d, _a in result.assigned], result.to_delete,
            result.to_download, result.time, result.host_name)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def _check_batch_equals_sequential(world) -> bool:
    """Assert the equivalence on *world*; True when the batch took the fill
    (never called ``compute_schedule``) and assigned something."""
    env = Environment()
    datas = [Data(name=f"d{i}") for i in range(len(world.specs))]
    known = [d.uid for d in datas]
    caches = [{known[p] if p < len(known) else f"ghost-{p}" for p in picks}
              for picks in world.cache_picks]
    hooks_seq, hooks_batch = [], []
    seq = _build(env, world, datas, hooks_seq)
    batch = _build(env, world, datas, hooks_batch)
    assert hooks_seq == hooks_batch
    hooks_seq.clear(), hooks_batch.clear()
    walked = []
    general_walk = batch.compute_schedule

    def counting_walk(*args, **kwargs):
        walked.append(args[0])
        return general_walk(*args, **kwargs)
    batch.compute_schedule = counting_walk

    expected = [seq.compute_schedule(host, set(cache),
                                     reservoir=world.reservoir,
                                     max_new=world.max_new)
                for host, cache in zip(world.cohort, caches)]
    actual = batch.compute_schedule_batch(world.cohort, caches,
                                          reservoir=world.reservoir,
                                          max_new=world.max_new)

    assert [_result_tuple(r) for r in actual] \
        == [_result_tuple(r) for r in expected]
    # Counter deltas, owner state, deficit and the hook sequence must all
    # agree — the batch mutates the scheduler exactly like the loop does.
    assert batch.assignments == seq.assignments
    assert batch.entries_examined == seq.entries_examined
    assert batch.sync_count == seq.sync_count
    for uid in known:
        if uid in seq._entries:
            assert batch._entries[uid].owners == seq._entries[uid].owners
    assert batch._owner_index == seq._owner_index
    assert batch._replica_deficit == seq._replica_deficit
    assert _live_heap(batch) == _live_heap(seq)
    assert hooks_batch == hooks_seq
    return not walked and any(r.to_download for r in actual)


@common_settings
@given(worlds())
def test_batch_equals_sequential_everywhere(world):
    _check_batch_equals_sequential(world)


def test_fill_equals_sequential_and_is_entered():
    """The regime production runs in faces the oracle, provably: the test
    fails when fewer than a third of its examples took the fill."""
    seen = Counter()

    @common_settings
    @given(fill_worlds())
    def oracle(world):
        seen["examples"] += 1
        seen["filled"] += _check_batch_equals_sequential(world)

    oracle()
    assert 3 * seen["filled"] >= seen["examples"], dict(seen)


# ---------------------------------------------------------------------------
# The per-host limit at the guard's edges
# ---------------------------------------------------------------------------

class TestPerHostLimits:
    def _scheduler(self, n=6, replica=1):
        env = Environment()
        scheduler = DataSchedulerService(env, max_data_schedule=4)
        datas = [Data(name=f"d{i}") for i in range(n)]
        for i, data in enumerate(datas):
            scheduler.schedule(data, Attribute(name=f"a{i}", replica=replica))
        return scheduler, datas

    def test_all_nonpositive_limits_assign_nothing(self):
        scheduler, _ = self._scheduler(n=3)
        results = scheduler.compute_schedule_batch(
            ["h0", "h1"], [set(), set()], max_new=0)
        assert all(r.to_download == [] for r in results)
        assert scheduler.assignments == 0

    def test_empty_cohort(self):
        scheduler, _ = self._scheduler(n=2)
        assert scheduler.compute_schedule_batch([], [], max_new=1) == []
        assert scheduler.compute_schedule_batch([], []) == []
