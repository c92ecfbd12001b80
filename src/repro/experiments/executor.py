"""Parallel, cached, crash-isolated execution of scenario sweeps.

The paper's evaluation is a large grid of *independent* simulation runs
(Tables 1-3, Figures 3a-6 each sweep a parameter axis), and the serial
``python -m repro sweep`` loop left a multicore box idle.  This module is
the sweep engine behind ``sweep --jobs N``:

* **Determinism** — every point's spec is resolved *in the parent* (so
  unknown-parameter errors surface immediately and cleanly), per-point
  seeds are derived from content (:func:`derive_point_seed`), workers
  return the already-serialised run document, and the merged output is
  assembled in grid order regardless of completion order.  ``--jobs N`` is
  therefore byte-identical to ``--jobs 1``.
* **Caching** — each point is looked up in a content-addressed
  :class:`~repro.experiments.cache.ResultCache` before any process is
  spawned; hits are spliced into the output byte-for-byte and re-running a
  finished sweep completes without executing anything.
* **Crash isolation** — a point that raises is captured *inside*
  :func:`_execute_point` (in the worker) and recorded as a structured
  failure entry (exception type, message, traceback) instead of tearing
  down the sweep.  A run is a pure function of its spec, so a raising point
  is not re-run; failed points are never cached.
* **Progress** — an optional callback receives one human line per settled
  point (``[12/48] fig4 replica=3 … 4.1s``, ``… cached``, ``… FAILED``).

Pool workers resolve scenarios through the process-global default registry
(:func:`repro.experiments.runner.default_registry`); when a *custom*
registry is supplied the executor transparently falls back to in-process
execution, which follows the exact same code path and output format.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.cache import (
    ResultCache,
    canonical_digest,
    code_version_salt,
    point_key,
)
from repro.experiments.registry import ScenarioRegistry
from repro.experiments.spec import ScenarioSpec, expand_grid

__all__ = [
    "PointFailure",
    "PointOutcome",
    "SweepOutcome",
    "SweepStats",
    "derive_point_seed",
    "execute_sweep",
]

ProgressFn = Callable[[str], None]


def derive_point_seed(base_seed: object, scenario: str,
                      overrides: Mapping[str, object]) -> int:
    """A deterministic per-point seed: content-derived, order-independent.

    Hashes ``(base seed, scenario, this point's grid overrides)`` — not the
    point's position in the execution schedule — so the same point gets the
    same seed whether the sweep runs serially, with ``--jobs 8``, or resumes
    from a half-filled cache.
    """
    digest = canonical_digest(
        {"base": base_seed,
         "overrides": {str(k): overrides[k] for k in overrides},
         "scenario": scenario}).digest()
    return int.from_bytes(digest[:4], "big")


def _execute_point(scenario: str, params: Dict[str, object],
                   registry: Optional[ScenarioRegistry] = None) -> tuple:
    """Run one resolved point; never raises.

    Returns ``("ok", run_document, elapsed_s)`` or ``("error",
    failure_document, elapsed_s)`` — elapsed is measured around the actual
    execution (in the worker, for pooled runs), so progress lines report
    run time, not queue wait.  This is the unit of work shipped to pool
    workers *and* the unit run inline for ``jobs=1`` — one code path, one
    output format, which is what makes the serial/parallel byte-identity
    hold (including tracebacks, captured here so their frames do not depend
    on the execution mode).  Pool workers omit *registry* (it cannot cross
    the process boundary) and resolve through the process-global default.
    """
    from repro.experiments.runner import run_spec
    started = time.perf_counter()
    try:
        result = run_spec(ScenarioSpec(scenario=scenario, params=params),
                          registry=registry)
        return "ok", result.to_dict(), time.perf_counter() - started
    except Exception as exc:
        return "error", {
            "error": type(exc).__name__,
            "message": _exception_message(exc),
            "traceback": traceback.format_exc(),
        }, time.perf_counter() - started


def _exception_message(exc: BaseException) -> str:
    """The exception's message, unquoted for KeyError subclasses.

    ``KeyError.__str__`` returns ``repr(args[0])``, which would wrap e.g.
    an ``UnknownProtocolError`` message in literal double quotes in failure
    entries and progress lines.
    """
    if isinstance(exc, KeyError) and len(exc.args) == 1 \
            and isinstance(exc.args[0], str):
        return exc.args[0]
    return str(exc)


@dataclass
class PointFailure:
    """A structured record of one point that raised."""

    error: str          # exception type name
    message: str
    traceback: str

    def to_dict(self) -> Dict[str, object]:
        return {"error": self.error, "message": self.message,
                "traceback": self.traceback}


@dataclass
class PointOutcome:
    """One settled sweep point: a run document or a structured failure."""

    index: int
    spec: ScenarioSpec
    run: Optional[Dict[str, object]] = None
    failure: Optional[PointFailure] = None
    cached: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None

    def entry(self, paper_ref: str = "") -> Dict[str, object]:
        """This point's entry in the merged sweep document."""
        if self.run is not None:
            return self.run
        assert self.failure is not None
        return {
            "failure": self.failure.to_dict(),
            "paper_ref": paper_ref,
            "scenario": self.spec.scenario,
            "spec": self.spec.to_dict(),
        }


@dataclass
class SweepStats:
    """Execution accounting of one sweep."""

    points: int = 0
    executed: int = 0       # points that actually ran
    cache_hits: int = 0
    failed: int = 0


@dataclass
class SweepOutcome:
    """A finished sweep: per-point outcomes in grid order, plus accounting."""

    scenario: str
    grid: Dict[str, List[object]]
    points: List[PointOutcome]
    stats: SweepStats
    paper_ref: str = ""

    @property
    def ok(self) -> bool:
        return self.stats.failed == 0

    def failures(self) -> List[PointOutcome]:
        return [point for point in self.points if not point.ok]

    def to_dict(self) -> Dict[str, object]:
        """The merged sweep document (same shape as the serial format)."""
        return {
            "scenario": self.scenario,
            "grid": {axis: list(values)
                     for axis, values in sorted(self.grid.items())},
            "runs": [point.entry(self.paper_ref) for point in self.points],
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, fixed indent, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def _format_overrides(spec: ScenarioSpec, axes: Sequence[str]) -> str:
    return " ".join(f"{axis}={spec.params.get(axis)}" for axis in sorted(axes))


class _Progress:
    """Turns settled points into ``[k/N] scenario axis=value … 4.1s`` lines."""

    def __init__(self, emit: Optional[ProgressFn], total: int,
                 axes: Sequence[str]):
        self.emit = emit
        self.total = total
        self.axes = list(axes)
        self.settled = 0

    def report(self, outcome: PointOutcome) -> None:
        self.settled += 1
        if self.emit is None:
            return
        width = len(str(self.total))
        prefix = (f"[{self.settled:>{width}}/{self.total}] "
                  f"{outcome.spec.scenario}")
        overrides = _format_overrides(outcome.spec, self.axes)
        if overrides:
            prefix += " " + overrides
        if outcome.cached:
            tail = "cached"
        elif outcome.ok:
            tail = f"{outcome.elapsed_s:.1f}s"
        else:
            failure = outcome.failure
            tail = f"FAILED ({failure.error}: {failure.message})"
        self.emit(f"{prefix} … {tail}")


def _settle(index: int, spec: ScenarioSpec, executed: tuple,
            outcomes: Dict[int, PointOutcome], stats: SweepStats,
            cache: Optional[ResultCache], keys: Sequence[Optional[str]],
            progress: _Progress) -> None:
    """Record what :func:`_execute_point` returned for point *index*."""
    status, payload, elapsed_s = executed
    stats.executed += 1
    if status == "ok":
        outcome = PointOutcome(index=index, spec=spec, run=payload,
                               elapsed_s=elapsed_s)
        if cache is not None:
            cache.put(keys[index], spec.scenario, payload)
    else:
        outcome = PointOutcome(index=index, spec=spec,
                               failure=PointFailure(**payload),
                               elapsed_s=elapsed_s)
        stats.failed += 1
    outcomes[index] = outcome
    progress.report(outcome)


def _run_inline(pending: Sequence[int], specs: Sequence[ScenarioSpec],
                outcomes: Dict[int, PointOutcome], stats: SweepStats,
                cache: Optional[ResultCache], keys: Sequence[Optional[str]],
                progress: _Progress,
                registry: Optional[ScenarioRegistry] = None) -> None:
    for index in pending:
        spec = specs[index]
        _settle(index, spec,
                _execute_point(spec.scenario, dict(spec.params), registry),
                outcomes, stats, cache, keys, progress)


def _run_pooled(pending: Sequence[int], specs: Sequence[ScenarioSpec],
                jobs: int, outcomes: Dict[int, PointOutcome],
                stats: SweepStats, cache: Optional[ResultCache],
                keys: Sequence[Optional[str]], progress: _Progress) -> None:
    # Imported here, not at module load: concurrent.futures pulls in
    # multiprocessing, subprocess, socket, selectors and logging, which
    # only a pooled sweep uses.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    max_workers = min(jobs, len(pending))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        inflight = {
            pool.submit(_execute_point, specs[index].scenario,
                        dict(specs[index].params)): index
            for index in pending}
        while inflight:
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                index = inflight.pop(future)
                spec = specs[index]
                try:
                    executed = future.result()
                except BaseException:
                    # A worker died hard (signal/OOM): _execute_point catches
                    # ordinary exceptions in-worker, so this future — and
                    # every other in-flight future of the now-broken pool —
                    # raises without its point having completed.  Finish the
                    # point in-process instead of recording spurious
                    # BrokenProcessPool failures for collateral points.
                    executed = _execute_point(spec.scenario,
                                              dict(spec.params))
                _settle(index, spec, executed,
                        outcomes, stats, cache, keys, progress)


def execute_sweep(
    name: str,
    grid: Mapping[str, Sequence[object]],
    base_params: Optional[Mapping[str, object]] = None,
    registry: Optional[ScenarioRegistry] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    derive_seeds: bool = False,
) -> SweepOutcome:
    """Run the cartesian product of *grid* over scenario *name*.

    ``jobs`` > 1 executes points on a process pool (``jobs`` < 1 is a
    ``ValueError``, raised before any point runs); ``cache`` skips points
    whose content-addressed key already holds a result; ``derive_seeds``
    gives every point a deterministic content-derived seed (see
    :func:`derive_point_seed`).  Output is byte-identical across ``jobs``
    values and across cache states.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    from repro.experiments import runner as runner_module
    if registry is None:
        registry = runner_module.default_registry()
    definition = registry.get(name)
    combos = expand_grid(grid)
    base = dict(base_params or {})

    specs: List[ScenarioSpec] = []
    for combo in combos:
        params = dict(base)
        params.update(combo)
        if derive_seeds and definition.seeded:
            params["seed"] = derive_point_seed(base.get("seed"),
                                               definition.name, combo)
        specs.append(definition.spec(**params))

    # Keys (and the whole-tree code salt) are only worth computing when a
    # cache is in play; a --no-cache sweep pays nothing for them.
    keys: List[Optional[str]]
    if cache is not None:
        salt = code_version_salt()
        keys = [point_key(spec.scenario, spec.params, salt) for spec in specs]
    else:
        keys = [None] * len(specs)

    stats = SweepStats(points=len(specs))
    outcomes: Dict[int, PointOutcome] = {}
    progress_state = _Progress(progress, len(specs), list(grid))

    pending: List[int] = []
    for index, key in enumerate(keys):
        run = cache.get(key) if cache is not None else None
        if run is not None:
            stats.cache_hits += 1
            progress_state.report(
                outcomes.setdefault(index, PointOutcome(
                    index=index, spec=specs[index], run=run, cached=True)))
        else:
            pending.append(index)

    if pending:
        # Pool workers re-resolve scenarios through the process-global
        # default registry; a custom registry cannot cross the process
        # boundary, so it runs inline (same code path, same output).
        use_pool = (jobs > 1 and len(pending) > 1
                    and registry is runner_module.default_registry())
        if use_pool:
            _run_pooled(pending, specs, jobs, outcomes, stats,
                        cache, keys, progress_state)
        else:
            _run_inline(pending, specs, outcomes, stats,
                        cache, keys, progress_state, registry)

    return SweepOutcome(
        scenario=definition.name,
        grid={axis: list(values) for axis, values in grid.items()},
        points=[outcomes[index] for index in range(len(specs))],
        stats=stats,
        paper_ref=definition.paper_ref,
    )
