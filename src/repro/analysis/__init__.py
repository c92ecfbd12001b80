"""Static analysis for the reproduction: determinism + architecture linting.

Every benchmark in this tree rests on one contract — *same seed,
byte-identical output* — and until now that contract was enforced only
dynamically (double-run byte-compares in CI).  A single ``time.time()``,
unseeded ``random`` call, set iteration or ``id()``-derived ordering
slipping into a hot path breaks it silently.  ``repro.analysis`` closes
that gap statically, in the "determinism by design, not by inspection"
spirit of *Federated Computing as Code* (PAPERS.md): the contract is a
checkable policy, not a convention.

Two rule families (run ``python -m repro lint --list-rules``):

* **DET0xx — determinism.**  No wall clock outside a documented
  allowlist, no ambient ``random``/``numpy.random`` (RNG flows through
  :mod:`repro.sim.rng` streams), no iteration over sets, no unordered
  ``dict`` iteration in the ordering-sensitive hot modules, no ``id()``
  / builtin ``hash()`` / ``uuid4`` / ``os.urandom`` feeding ordering,
  keys or output.

* **ARCH0xx — architecture.**  A declarative layer DAG over the
  ``repro.*`` packages (violations reported as the offending import
  edge), and a kernel-surface rule pinning the only
  ``sim.kernel``/``sim.scheduler`` attributes non-sim code may touch —
  which is exactly the interface a future real-time asyncio backend
  must implement (ROADMAP).

Findings can be suppressed line-by-line with a *reasoned* pragma::

    t0 = time.perf_counter()  # detlint: ignore[DET001] — progress line only

A pragma without a reason, or one that suppresses nothing, is itself a
finding (LINT0xx).  The pragma is the one suppression mechanism: the tree
lints clean — ``python -m repro lint`` exits 0 with zero unsuppressed
findings.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, default_config
from repro.analysis.engine import LintReport, run_checks
from repro.analysis.findings import Finding

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "default_config",
    "run_checks",
]
