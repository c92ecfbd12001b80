"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.scheduler import HeapScheduler
from tests.conftest import count_calls


class TestClockAndTimeout:
    def test_initial_time_is_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self, env):
        done = []

        def proc():
            yield env.timeout(3.5)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [3.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        def proc():
            value = yield env.timeout(1, value="hello")
            return value

        p = env.process(proc())
        env.run()
        assert p.value == "hello"

    def test_run_until_time_stops_clock_exactly(self, env):
        def proc():
            while True:
                yield env.timeout(10)

        env.process(proc())
        env.run(until=25)
        assert env.now == 25

    def test_run_until_past_time_raises(self, env):
        env._now = 10
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_nested_timeouts_execute_in_order(self, env):
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc("b", 2))
        env.process(proc("a", 1))
        env.process(proc("c", 3))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, env):
        order = []

        def proc(name):
            yield env.timeout(1)
            order.append(name)

        for name in "abcde":
            env.process(proc(name))
        env.run()
        assert order == list("abcde")

    def test_peek_empty_queue(self, env):
        assert env.peek() == float("inf")

    def test_run_until_on_an_empty_queue_moves_the_clock(self, env):
        env.run(until=7.5)
        assert env.now == 7.5
        assert env.processed_events == 0


class TestRunUntilTime:
    """``run(until=t)``: events at exactly ``t`` run, a later one stays
    queued in place, and the clock ends on ``t``."""

    def test_an_event_at_exactly_the_deadline_runs(self, env):
        fired = []
        env.timeout(5.0).add_callback(lambda evt: fired.append(env.now))
        env.run(until=5.0)
        assert fired == [5.0]
        assert env.now == 5.0
        assert env.peek() == float("inf")

    def test_same_time_events_after_the_deadline_keep_fifo_order(self, env):
        order = []
        for tag in "ab":
            env.timeout(2.0).add_callback(
                lambda evt, tag=tag: order.append((env.now, tag)))
        env.run(until=1.0)
        assert order == [] and env.now == 1.0
        env.run()
        assert order == [(2.0, "a"), (2.0, "b")]

    def test_untended_failure_stops_the_clock_at_the_failing_event(self, env):
        def doomed():
            yield env.timeout(2.0)
            raise RuntimeError("untended")

        env.process(doomed())
        env.timeout(7.0)
        with pytest.raises(RuntimeError, match="untended"):
            env.run(until=10.0)
        assert env.now == 2.0

    def test_a_deadline_run_never_peeks_or_measures_the_queue(self):
        """A count, not a timing: the loop pops, and pushes back the one
        entry due after the deadline (the two-loop kernel called
        ``HeapScheduler.peek`` and ``__len__`` once per event, plus one)."""
        for probe in (HeapScheduler.peek, HeapScheduler.__len__):
            env = Environment()
            for i in range(1000):
                env.timeout(i / 10)
            _, entered = count_calls(lambda: env.run(until=50.0),
                                     lambda code: code is probe.__code__)
            assert entered == 0, probe
            assert env.processed_events == 501 and env.now == 50.0
            assert len(env.scheduler) == 499

    def test_starting_a_process_creates_one_start_event(self, env):
        """Process.__init__, its Event.__init__ and the one event carrying
        the first resume: three constructors per process."""
        def body():
            yield env.timeout(1.0)

        _, inits = count_calls(
            lambda: [env.process(body()) for _ in range(100)],
            lambda code: code.co_name == "__init__")
        assert inits == 300
        env.run()
        assert env.processed_events == 300


# A world of events on a quarter-second grid, so that same-time ties, drawn
# deadlines at exactly an event's time and deadlines past the last event are
# all common.
_quarter = st.integers(min_value=0, max_value=12).map(lambda q: q / 4)
world_strategy = st.fixed_dictionaries({
    # (delay, whether its callback also asks for a settle pass)
    "timeouts": st.lists(st.tuples(_quarter, st.booleans()), max_size=8),
    # (delay, fate, delay of the in-run cancellation)
    "timers": st.lists(st.tuples(
        _quarter, st.sampled_from(["fire", "cancel-now", "cancel-in-run"]),
        _quarter), max_size=6),
    # (the delays a process waits, how many generations it spawns)
    "processes": st.lists(st.tuples(
        st.lists(_quarter, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2)), max_size=4),
})
deadlines_strategy = st.lists(
    st.integers(min_value=0, max_value=80).map(lambda q: q / 4),
    max_size=6).map(sorted)


def _replay(world, deadlines):
    """Build *world* in a fresh environment, run it through ``run(until=t)``
    for each of *deadlines*, then ``run()``; returns the ``(now, tag)`` log
    and ``processed_events``."""
    env = Environment()
    log = []

    def note(tag):
        return lambda _evt: log.append((env.now, tag))

    for i, (delay, settles) in enumerate(world["timeouts"]):
        timeout = env.timeout(delay)
        timeout.add_callback(note(f"timeout{i}"))
        if settles:
            timeout.add_callback(
                lambda _evt, i=i: env.settle(note(f"settle{i}")))
    for i, (delay, fate, cancel_delay) in enumerate(world["timers"]):
        timer = env.call_later(delay, note(f"timer{i}"))
        if fate == "cancel-now":
            timer.cancel()
        elif fate == "cancel-in-run":
            env.call_later(cancel_delay, lambda _evt, t=timer: t.cancel())

    def body(tag, delays, generations):
        for step, delay in enumerate(delays):
            done = env.timeout(delay)
            yield done
            log.append((env.now, f"{tag}.{step}"))
            done.add_callback(note(f"{tag}.{step}.after"))   # processed
            if generations and step == 0:
                env.process(body(f"{tag}/child", delays, generations - 1))

    for i, (delays, generations) in enumerate(world["processes"]):
        env.process(body(f"p{i}", delays, generations))

    for deadline in deadlines:
        env.run(until=deadline)
        assert env.now == deadline
    env.run()
    return log, env.processed_events


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(world=world_strategy, deadlines=deadlines_strategy)
def test_chunked_runs_replay_the_single_run(world, deadlines):
    """The oracle of the one run loop: cutting a run at any deadlines —
    exact event times included — changes neither what runs, nor when, nor
    in which order."""
    assert _replay(world, deadlines) == _replay(world, [])


class TestEvents:
    def test_event_lifecycle(self, env):
        event = env.event()
        assert not event.triggered and not event.processed
        event.succeed(42)
        assert event.triggered and not event.processed
        env.run()
        assert event.processed
        assert event.value == 42

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_double_trigger_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_waiting_on_failed_event_raises_in_process(self, env):
        event = env.event()

        def proc():
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc())
        event.fail(RuntimeError("boom"))
        env.run()
        assert p.value == "caught boom"

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(RuntimeError("unattended"))
        with pytest.raises(RuntimeError, match="unattended"):
            env.run()

    def test_wait_on_already_processed_event(self, env):
        event = env.event()
        event.succeed("early")
        env.run()

        def proc():
            value = yield event
            return value

        p = env.process(proc())
        env.run()
        assert p.value == "early"


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "result"

        p = env.process(proc())
        env.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(2)
            return 10

        def parent():
            value = yield env.process(child())
            return value * 2

        p = env.process(parent())
        env.run()
        assert p.value == 20
        assert env.now == 2

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return str(exc)

        p = env.process(parent())
        env.run()
        assert p.value == "child failed"

    def test_run_until_process(self, env):
        def proc():
            yield env.timeout(5)
            return "done"

        p = env.process(proc())
        other = env.process(iter_forever(env))
        result = env.run(until=p)
        assert result == "done"
        assert env.now == 5
        assert other.is_alive

    def test_run_until_failing_process_raises(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("bad")

        p = env.process(proc())
        with pytest.raises(KeyError):
            env.run(until=p)


def iter_forever(env):
    while True:
        yield env.timeout(1)


class TestConditions:
    def test_all_of_waits_for_everything(self, env):
        def worker(delay, value):
            yield env.timeout(delay)
            return value

        procs = [env.process(worker(d, d * 10)) for d in (1, 2, 3)]

        def waiter():
            results = yield env.all_of(procs)
            return sorted(results.values())

        p = env.process(waiter())
        env.run()
        assert p.value == [10, 20, 30]
        assert env.now == 3

    def test_all_of_empty_succeeds_immediately(self, env):
        def waiter():
            result = yield env.all_of([])
            return result

        p = env.process(waiter())
        env.run()
        assert p.value == {}

    def test_all_of_fails_fast(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("nope")

        def slow():
            yield env.timeout(100)

        def waiter():
            try:
                yield env.all_of([env.process(failing()), env.process(slow())])
            except RuntimeError:
                return env.now

        p = env.process(waiter())
        env.run(until=p)
        assert p.value == 1


class TestTimers:
    def test_timer_fires_callback(self, env):
        fired = []
        env.call_later(2.0, lambda evt: fired.append(env.now))
        env.run()
        assert fired == [2.0]

    def test_cancelled_timer_never_fires(self, env):
        fired = []
        timer = env.call_later(2.0, lambda evt: fired.append(env.now))
        assert timer.cancel() is True
        env.run()
        assert fired == []
        assert env.now == 0.0   # nothing left to process

    def test_cancel_after_fire_returns_false(self, env):
        timer = env.call_later(1.0, lambda evt: None)
        env.run()
        assert timer.cancel() is False

    def test_peek_skips_cancelled_timers(self, env):
        first = env.call_later(1.0, lambda evt: None)
        env.call_later(5.0, lambda evt: None)
        first.cancel()
        assert env.peek() == 5.0

    def test_run_until_time_ignores_cancelled_timers(self, env):
        """A cancelled timer before the stop time must not smuggle the
        clock past it."""
        fired = []
        doomed = env.call_later(1.0, lambda evt: fired.append("doomed"))
        env.call_later(10.0, lambda evt: fired.append("late"))
        doomed.cancel()
        env.run(until=5.0)
        assert fired == []
        assert env.now == 5.0
        env.run(until=20.0)
        assert fired == ["late"]

    def test_negative_timer_delay_rejected(self, env):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            env.call_later(-1.0, lambda evt: None)

    def test_rescheduling_does_not_accumulate_stale_wakeups(self, env):
        """The cancel-and-rearm pattern leaves no stale heap entries behind
        once the queue drains past them."""
        timer = None
        for _ in range(50):
            if timer is not None:
                timer.cancel()
            timer = env.call_later(1.0, lambda evt: None)
        env.run()
        assert env.processed_events == 1   # only the live timer fired


class TestSettleHook:
    def test_settle_runs_after_same_time_events(self, env):
        order = []
        env.timeout(0.0).add_callback(lambda evt: order.append("event-1"))
        env.settle(lambda evt: order.append("settle"))
        env.timeout(0.0).add_callback(lambda evt: order.append("event-2"))
        env.run()
        # Both zero-delay events precede the settle although one was
        # scheduled after it.
        assert order == ["event-1", "event-2", "settle"]

    def test_settle_coalesces_burst(self, env):
        passes = []
        pending = []

        def request():
            if not pending:
                pending.append(True)
                env.settle(lambda evt: (pending.clear(),
                                        passes.append(env.now)))

        for _ in range(100):
            env.timeout(1.0).add_callback(lambda evt: request())
        env.run()
        assert passes == [1.0]


class TestDeterministicRepr:
    """Event reprs use a per-environment sequence, never memory addresses."""

    def test_repr_is_sequence_numbered(self, env):
        first = env.event()
        second = env.timeout(1.0)
        assert repr(first) == "<Event pending #1>"
        assert "#2" in repr(second)
        assert "0x" not in repr(first) + repr(second)

    def test_repr_identical_across_fresh_environments(self):
        def script(environment):
            environment.timeout(1.0)
            evt = environment.event()
            evt.succeed("v")
            environment.run(until=2.0)
            return repr(evt)

        assert script(Environment()) == script(Environment())

    def test_event_ids_do_not_perturb_scheduling_order(self, env):
        # Reprs draw from a counter separate from the (time, priority, seq)
        # tiebreaker, so inspecting events must not reorder execution.
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        a = env.process(proc("a"))
        repr(a)  # touching the repr must be side-effect free
        env.process(proc("b"))
        env.run()
        assert order == ["a", "b"]
