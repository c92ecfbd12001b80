"""The scale tier's collector policy (``repro.bench.scale._gc_paused``).

``scale-grid-100k`` builds and runs its world with the cyclic collector
paused, freezes the built world before the run, and pays one full
collection after it.  These tests pin that policy by pass count, never by
the clock, on a reduced grid: no pass while the world is built or run, one
full pass after, the collector's state given back on every exit, and
nothing of the run kept alive.
"""

import gc
import weakref

import pytest

from repro.bench.scale import run_scale_grid_100k
from repro.net.flows import Network
from repro.sim.kernel import Environment

pytest.importorskip("numpy")

_REDUCED = dict(n_hosts=4000, n_data=1000, cohort_size=500, sync_rounds=1,
                heartbeat_duration_s=5.0)


@pytest.fixture(autouse=True)
def restored_collector():
    """Each test starts from the collector's defaults and leaves them, so a
    policy that leaks state fails the test that leaked it."""
    assert (gc.isenabled(), gc.get_freeze_count()) == (True, 0)
    yield
    gc.unfreeze()
    gc.enable()


@pytest.fixture
def runs(monkeypatch):
    """Every ``Environment`` the scenario runs, with a ``("run", frozen)``
    entry in the returned log as each run starts (``frozen``: the objects in
    the permanent generation) and ``"run-end"`` as it returns."""
    log, envs = [], []
    original = Environment.run

    def run(env, until=None):
        envs.append(env)
        log.append(("run", gc.get_freeze_count()))
        result = original(env, until)
        log.append("run-end")
        return result

    monkeypatch.setattr(Environment, "run", run)
    return log, envs


def _collector_state():
    return gc.isenabled(), gc.get_freeze_count()


def test_no_pass_before_the_run_ends_and_one_full_pass_after(runs):
    log, _envs = runs

    def on_collect(phase, info):
        if phase == "start":
            log.append(info["generation"])

    gc.collect()        # empty the young generations: the count starts at 0
    gc.callbacks.append(on_collect)
    try:
        results = run_scale_grid_100k.scenario_impl(**_REDUCED)
    finally:
        gc.callbacks.remove(on_collect)
    assert results["placed"] == 1000
    (_run, frozen), *passes = log
    assert frozen >= _REDUCED["n_hosts"]     # the built world is frozen
    assert passes == ["run-end", 2]


def test_state_restored_after_a_normal_return():
    entry = _collector_state()
    run_scale_grid_100k.scenario_impl(**_REDUCED)
    assert _collector_state() == entry


@pytest.mark.parametrize("cls, method", [
    (Network, "add_host"),      # mid-build, before the freeze
    (Environment, "run"),       # after the freeze
])
def test_state_restored_after_an_exception(monkeypatch, cls, method):
    original = getattr(cls, method)
    calls = 0

    def failing(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 100 or method == "run":
            raise RuntimeError("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, failing)
    entry = _collector_state()
    with pytest.raises(RuntimeError, match="injected"):
        run_scale_grid_100k.scenario_impl(**_REDUCED)
    assert _collector_state() == entry


def test_state_restored_when_the_collector_was_disabled_at_entry():
    gc.disable()
    try:
        run_scale_grid_100k.scenario_impl(**_REDUCED)
        assert _collector_state() == (False, 0)
    finally:
        gc.enable()


def test_objects_the_caller_froze_stay_frozen():
    sentinel = ["frozen by the caller"]
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_scale_grid_100k.scenario_impl(**_REDUCED)
        assert gc.get_freeze_count() == frozen
        # ``gc.get_objects()`` lists every generation but the frozen one.
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.unfreeze()


def test_the_run_leaks_nothing(runs):
    _log, envs = runs
    run_scale_grid_100k.scenario_impl(**_REDUCED)
    env = weakref.ref(envs.pop())
    gc.collect()
    assert env() is None
