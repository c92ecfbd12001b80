"""Ablation — flow-level max-min bandwidth sharing vs server-bottleneck-only.

DESIGN.md calls out the max-min fair-sharing network model as a design
choice.  This ablation quantifies what the receiver-side constraints add: on
a platform whose file server has more uplink capacity than one worker NIC,
ignoring the workers' downlinks (the "server-bottleneck-only" model) predicts
unrealistically fast distribution, while the full model caps each worker at
its own link speed.
"""

from benchmarks.conftest import emit, run_once
from repro.bench.reporting import format_table, shape_check
from repro.bench.transfer import run_ftp_alone


def test_ablation_bandwidth_model(benchmark):
    # 4 workers behind 125 MB/s NICs, server uplink 1 GB/s: the server is NOT
    # the bottleneck, so ignoring the receiver links matters.
    size_mb, n_nodes = 100.0, 4

    def experiment():
        full = run_ftp_alone(size_mb, n_nodes,
                             server_link_mbps=1000.0, node_link_mbps=125.0)
        # "Server-bottleneck-only": give workers effectively unlimited NICs so
        # only the server-side constraint remains.
        bottleneck_only = run_ftp_alone(size_mb, n_nodes,
                                        server_link_mbps=1000.0,
                                        node_link_mbps=1e6)
        return full, bottleneck_only

    full, bottleneck_only = run_once(benchmark, experiment)
    emit("Ablation — bandwidth model", format_table([
        {"model": "max-min (full)", "completion_s": full["completion_s"]},
        {"model": "server-bottleneck-only",
         "completion_s": bottleneck_only["completion_s"]},
    ]))

    checks = shape_check("ablation: bandwidth model")
    checks.is_true(
        "ignoring receiver links underestimates the completion time",
        bottleneck_only["completion_s"] < full["completion_s"])
    checks.within(
        "full model is limited by the 125 MB/s worker NIC (100 MB => ~0.87 s)",
        full["completion_s"], 0.75, 1.2)
    checks.within(
        "bottleneck-only model shares the 1 GB/s server uplink "
        "(4 x 100 MB => ~0.4 s + protocol setup)",
        bottleneck_only["completion_s"], 0.35, 0.65)
    checks.ratio_at_least(
        "the difference is large enough to matter",
        full["completion_s"] / bottleneck_only["completion_s"], 1.4)
    checks.verify()
