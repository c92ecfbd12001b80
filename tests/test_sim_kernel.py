"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)


class TestClockAndTimeout:
    def test_initial_time_is_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_can_be_set(self):
        assert Environment(initial_time=5.0).now == 5.0

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

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


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
