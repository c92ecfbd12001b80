"""The built-in scenario catalog: importing this module declares it.

Every scenario is declared where it is implemented, with
:func:`repro.experiments.registry.scenario`: one per table/figure of the
paper and the BENCH scale runs in :mod:`repro.bench`, the beyond-the-paper
scenarios in :mod:`repro.experiments.extra`.  This module is only the list of
modules to import so that those declarations run;
:func:`repro.experiments.runner.default_registry` imports it on first use.
``python -m repro list`` prints the catalog and ``docs/EXPERIMENTS.md``
documents it with paper references and CLI invocations.
"""

import repro.bench.blast
import repro.bench.elastic
import repro.bench.fabric
import repro.bench.fault
import repro.bench.federation
import repro.bench.micro
import repro.bench.scale
import repro.bench.transfer
import repro.experiments.extra
