"""Unit tests for Resource."""

import pytest

from repro.sim.kernel import Environment
from repro.sim.resources import Resource


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_capacity_changes_in_place(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        waiting = [resource.request(), resource.request()]
        resource.capacity = 2
        assert held.triggered and waiting[0].triggered
        assert not waiting[1].triggered
        resource.capacity = 1
        resource.release(held)
        assert not waiting[1].triggered     # one slot still in use
        resource.release(waiting[0])
        assert waiting[1].triggered
        with pytest.raises(ValueError):
            resource.capacity = 0

    def test_serialises_users(self, env):
        resource = Resource(env, capacity=1)
        log = []

        def user(name):
            with resource.request() as req:
                yield req
                log.append((name, "in", env.now))
                yield env.timeout(2)
                log.append((name, "out", env.now))

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [("a", "in", 0), ("a", "out", 2),
                       ("b", "in", 2), ("b", "out", 4)]

    def test_parallel_users_up_to_capacity(self, env):
        resource = Resource(env, capacity=3)
        finish_times = []

        def user():
            with resource.request() as req:
                yield req
                yield env.timeout(5)
                finish_times.append(env.now)

        for _ in range(6):
            env.process(user())
        env.run()
        assert finish_times == [5, 5, 5, 10, 10, 10]

    def test_count_and_queue_length(self, env):
        resource = Resource(env, capacity=1)

        def holder():
            with resource.request() as req:
                yield req
                yield env.timeout(10)

        def waiter():
            with resource.request() as req:
                yield req

        env.process(holder())
        env.process(waiter())
        env.run(until=1)
        assert resource.count == 1
        assert resource.queue_length == 1

    def test_release_unqueued_request_is_noop(self, env):
        resource = Resource(env, capacity=1)
        request = resource.request()
        env.run()
        resource.release(request)
        resource.release(request)  # second release must not blow up
        assert resource.count == 0

    def test_cancel_queued_request(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        env.run()
        assert resource.queue_length == 1
        resource.release(second)           # cancel while still queued
        assert resource.queue_length == 0
        resource.release(first)
        assert resource.count == 0
