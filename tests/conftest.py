"""Shared pytest fixtures."""

from __future__ import annotations

import sys

import pytest

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.net.flows import Network
from repro.net.host import Host


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def simple_network(env):
    """A tiny network: one server and three workers on a 100 MB/s LAN."""
    network = Network(env, default_latency_s=0.001)
    server = Host("server", cluster="lan", uplink_mbps=100, downlink_mbps=100,
                  stable=True)
    network.add_host(server)
    workers = []
    for i in range(3):
        worker = Host(f"worker{i}", cluster="lan", uplink_mbps=100,
                      downlink_mbps=100)
        network.add_host(worker)
        workers.append(worker)
    return network, server, workers


def run_process(env: Environment, generator):
    """Drive one generator to completion and return its value."""
    process = env.process(generator)
    env.run(until=process)
    return process.value


@pytest.fixture
def drive():
    return run_process


@pytest.fixture
def hypothesis_own_constants(monkeypatch):
    """Hypothesis mixes literals of every loaded local module into what it
    draws, so a derandomized search that must find a mutant would otherwise
    move with any constant edited anywhere in the repository, or with which
    test files were collected.  Under this fixture it draws on its own
    constants only, and finds the same examples in any suite."""
    from hypothesis.internal.conjecture import providers
    monkeypatch.setattr(providers, "_get_local_constants",
                        lambda: type(providers._local_constants)())
    # The per-constraint cache holds what earlier tests drew from.
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()


def count_calls(action, matches):
    """Run *action* under ``sys.setprofile``; returns its result and how many
    Python calls (and generator resumptions) entered a code object *matches*
    accepts — the count pins' measure: host work by number, never by the
    clock."""
    entered = 0

    def on_event(frame, event, _arg):
        nonlocal entered
        entered += event == "call" and matches(frame.f_code)

    sys.setprofile(on_event)
    try:
        result = action()
    finally:
        sys.setprofile(None)
    return result, entered
