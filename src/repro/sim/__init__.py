"""Discrete-event simulation kernel.

This subpackage is the substrate on which every other BitDew component runs.
The original BitDew prototype executed on real machines (Grid'5000 clusters,
the DSL-Lab ADSL testbed); here, per the reproduction plan in ``DESIGN.md``,
the distributed environment is reproduced as a discrete-event simulation so
that the paper's measurements (completion times, overheads, bandwidths,
failure-detection delays) can be regenerated deterministically on a single
machine.

The kernel follows the familiar generator-based process model (close in
spirit to SimPy): a :class:`~repro.sim.kernel.Environment` holds a virtual
clock and an event queue; user code writes *processes* as Python generators
that ``yield`` events (timeouts, other events, process completions, resource
requests).  The kernel resumes a process when the event it waits on fires.

Public API
----------

``Environment``
    The simulation core: clock, scheduling, ``run()``.
``Event``, ``Timeout``, ``Process``, ``AllOf``
    Waitable primitives.
``Resource``
    The counted, FIFO-queued resource behind connection pools and
    concurrency limits.
``ids``
    The run-scoped id space (hosts, flows, transfers, handles, AUIDs).
"""

from repro.sim import ids
from repro.sim.kernel import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Timeout",
    "ids",
]
