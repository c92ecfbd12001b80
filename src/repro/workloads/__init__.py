"""Workload and volatility generators used by the experiments.

* :mod:`repro.workloads.generator` — deterministic arrival traces (the
  diurnal request curve, the flash crowd).
* :mod:`repro.workloads.traces` — host availability / churn traces
  (exponential and Weibull session models, plus the scripted
  crash-one-start-one scenario of the Figure 4 fault-tolerance experiment).
* :mod:`repro.workloads.cohort` — array-backed host cohorts: blocks of
  identical hosts driven by one generator each, for the 100k-host scale
  benchmarks.
"""

from repro.workloads.cohort import (
    HostCohort,
    build_cohorts,
    cohort_heartbeat_process,
    cohort_sync_process,
)
from repro.workloads.traces import (
    ChurnEvent,
    ChurnScript,
    availability_trace,
    crash_replace_script,
)

__all__ = [
    "ChurnEvent",
    "ChurnScript",
    "HostCohort",
    "availability_trace",
    "build_cohorts",
    "cohort_heartbeat_process",
    "cohort_sync_process",
    "crash_replace_script",
]
