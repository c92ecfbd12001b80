"""BLAST application model (paper §5).

The paper's master/worker application runs NCBI BLAST (``blastn``): every
task compares one DNA Sequence against a shared Genebase.  Three data sets
are involved (Listing 3):

* the **Application** binary — 4.45 MB, replicated to every node
  (``replication = -1``), distributed with BitTorrent because it is highly
  shared;
* the **Genebase** — a compressed 2.68 GB archive, distributed with
  BitTorrent, scheduled by *affinity* to the Sequences so that only nodes
  actually computing download it, lifetime relative to the Collector;
* the **Sequences** — small per-task text files, fault tolerant, distributed
  with HTTP, lifetime relative to the Collector;
* the **Results** — small output files whose affinity points at the
  Collector pinned on the master.

Real BLAST is unavailable offline; the compute side is a calibrated model:
decompressing the Genebase and searching one sequence take a fixed number of
*reference seconds* scaled by each host's CPU factor (Table 1 hardware).
The defaults are calibrated so the Figure 5/6 shapes (transfer-dominated
makespan, ~10x transfer-time gain for BitTorrent at 400 nodes) hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.master_worker import (
    MasterWorkerApplication,
    SharedInput,
    TaskSpec,
)
from repro.core.runtime import BitDewEnvironment
from repro.net.host import Host
from repro.sim.rng import RandomStreams

__all__ = ["BlastParameters", "build_blast_application"]


@dataclass(frozen=True)
class BlastParameters:
    """Sizes and calibrated costs of the BLAST workload (paper §5).

    Defaults mirror the paper's Listing 3 data sets (4.45 MB Application,
    2.68 GB compressed Genebase, small Sequences/Results) and calibrate the
    compute model so the Figure 5/6 shapes hold.
    """

    #: NCBI BLAST binary size (paper: 4.45 MB)
    application_mb: float = 4.45
    #: compressed Genebase archive size (paper: 2.68 GB)
    genebase_mb: float = 2744.0
    #: one DNA query sequence (small text file)
    sequence_mb: float = 0.01
    #: one result file
    result_mb: float = 0.5
    #: reference seconds to unzip the Genebase on a 2.0 GHz Opteron core
    unzip_reference_s: float = 150.0
    #: reference seconds for one blastn query against the full Genebase
    execution_reference_s: float = 450.0
    #: relative variability of per-task execution time
    execution_cv: float = 0.10


def build_blast_application(
    runtime: BitDewEnvironment,
    master_host: Host,
    n_tasks: int,
    transfer_protocol: str = "bittorrent",
    parameters: Optional[BlastParameters] = None,
    task_replica: int = 1,
) -> MasterWorkerApplication:
    """Assemble the BLAST master/worker application on an existing runtime.

    ``transfer_protocol`` selects how the shared files (Application binary
    and Genebase) are distributed — the Figure 5 experiment compares ``ftp``
    against ``bittorrent``; Sequences and Results always travel over HTTP.
    """
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    params = parameters if parameters is not None else BlastParameters()
    rng = RandomStreams(29)

    shared_inputs = [
        SharedInput(name="blast-application", size_mb=params.application_mb,
                    replica=-1, affinity_to_tasks=False),
        SharedInput(name="genebase", size_mb=params.genebase_mb,
                    affinity_to_tasks=True, compressed=True,
                    unzip_reference_s=params.unzip_reference_s),
    ]

    tasks: List[TaskSpec] = []
    for i in range(n_tasks):
        compute = rng.normal_clipped(
            f"blast-exec-{i}", params.execution_reference_s,
            params.execution_reference_s * params.execution_cv,
            minimum=params.execution_reference_s * 0.5)
        tasks.append(TaskSpec(
            task_id=i,
            input_name=f"sequence-{i:05d}.fasta",
            input_size_mb=params.sequence_mb,
            reference_compute_s=compute,
            result_size_mb=params.result_mb,
        ))

    return MasterWorkerApplication(
        runtime=runtime,
        master_host=master_host,
        shared_inputs=shared_inputs,
        tasks=tasks,
        shared_protocol=transfer_protocol,
        task_replica=task_replica,
        rng=rng,
        task_attribute_name="Sequence",
        result_attribute_name="Result",
        collector_name="Collector",
    )
