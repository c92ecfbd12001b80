"""The kernel's event queue against a first-principles model.

The kernel's correctness contract is a total order over ``(time, priority,
seq)``.  With one scheduler there is nothing to compare it with but the
order itself: any interleaving of pushes, cancellations, peeks and pops on
:class:`HeapScheduler` must hand out the live entries exactly as ``sorted``
would.  The rest of the file pins the cancelled-timer accounting the
kernel's reschedule-heavy components rely on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.scheduler import HeapScheduler

common_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


class _Stub:
    """Stands in for a kernel Event/Timer: only ``cancelled`` matters."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False


# Coarse timestamps make same-time collisions (where only priority and seq
# order the entries) common rather than measure-zero.
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "peek", "cancel"]),
        st.integers(min_value=0, max_value=12),   # time (coarse)
        st.integers(min_value=0, max_value=2),    # priority
        st.integers(min_value=0, max_value=10_000),  # cancel victim pick
    ),
    min_size=1, max_size=200)


def _key(entry):
    return entry[:3]


@common_settings
@given(ops=op_strategy)
def test_heap_pops_the_sorted_live_entries(ops):
    sched = HeapScheduler()
    live = []   # the model: pushed, not cancelled, not yet popped
    for seq, (kind, coarse_time, priority, pick) in enumerate(ops):
        if kind == "push":
            entry = (coarse_time / 4.0, priority, seq, _Stub())
            live.append(entry)
            sched.push(entry)
        elif kind == "cancel":
            if live:
                live.pop(pick % len(live))[3].cancelled = True
                sched.note_cancelled()
        elif kind == "peek":
            assert sched.peek() is (min(live, key=_key) if live else None)
        elif live:
            expected = min(live, key=_key)
            assert sched.pop() is expected
            live.remove(expected)
        else:
            with pytest.raises(IndexError):
                sched.pop()
    drained = [sched.pop() for _ in range(len(live))]
    assert [_key(e) for e in drained] == sorted(_key(e) for e in live)
    with pytest.raises(IndexError):
        sched.pop()


# ---------------------------------------------------------------------------
# Cancelled-timer residency: compaction keeps corpses from squatting
# ---------------------------------------------------------------------------

def test_cancelled_timers_are_compacted_away():
    env = Environment()
    live = env.call_later(100.0, lambda _ev: None)
    corpses = [env.call_later(float(i + 1), lambda _ev: None)
               for i in range(500)]
    for timer in corpses:
        timer.cancel()
    # More than half the queue was cancelled: at least one compaction ran
    # and the structure no longer carries ~500 dead entries.
    assert env.scheduler.compactions >= 1
    assert len(env.scheduler) <= 2
    env.run()
    assert live.cancelled is False
    assert env.now == 100.0


def test_cancel_rearm_storm_processes_once():
    """The kernel's timer-reschedule pattern stays O(live)."""
    env = Environment()
    fired = []
    timer = env.call_later(1.0, lambda _ev: fired.append(env.now))
    for i in range(50):
        timer.cancel()
        timer = env.call_later(1.0 + i * 1e-3, lambda _ev: fired.append(env.now))
    env.run()
    assert fired == [1.0 + 49 * 1e-3]
    assert env.processed_events == 1


def test_double_cancel_counts_once():
    env = Environment()
    env.call_later(0.5, lambda _ev: None)  # keep the queue half live
    timer = env.call_later(1.0, lambda _ev: None)
    assert timer.cancel() is True
    assert timer.cancel() is True   # cancelling twice is idempotent...
    assert env.scheduler._cancelled == 1  # ...and accounted once
