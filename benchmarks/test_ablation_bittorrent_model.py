"""Ablation — piece-level BitTorrent swarm vs the fluid approximation.

DESIGN.md documents two swarm models: the detailed piece-level simulation and
the calibrated fluid model used for large sweeps.  This ablation runs both on
the same configuration and checks that the fluid model stays within a small
factor of the piece-level one (so that switching models for scale does not
change the conclusions drawn from Figures 3a and 5).
"""

from benchmarks.conftest import emit, run_once
from repro.bench.reporting import format_table, shape_check
from repro.bench.transfer import run_distribution


def test_ablation_bittorrent_model(benchmark):
    # 100 MB to 40 nodes: comfortably past the FTP/BitTorrent crossover.
    size_mb, n_nodes = 100.0, 40

    def experiment():
        piece = run_distribution("bittorrent", size_mb, n_nodes,
                                 bittorrent_mode="piece")
        fluid = run_distribution("bittorrent", size_mb, n_nodes,
                                 bittorrent_mode="fluid")
        ftp = run_distribution("ftp", size_mb, n_nodes)
        return piece, fluid, ftp

    piece, fluid, ftp = run_once(benchmark, experiment)
    emit("Ablation — BitTorrent swarm model", format_table([
        {"model": "piece-level", "completion_s": piece["completion_s"]},
        {"model": "fluid", "completion_s": fluid["completion_s"]},
        {"model": "ftp (reference)", "completion_s": ftp["completion_s"]},
    ]))

    ratio = fluid["completion_s"] / piece["completion_s"]
    checks = shape_check("ablation: bittorrent model")
    checks.within("fluid model within a small factor of the piece-level model",
                  ratio, 0.3, 3.0)
    checks.is_true("both models complete on every node",
                   piece["completed_nodes"] == n_nodes
                   and fluid["completed_nodes"] == n_nodes)
    checks.is_true("both models beat FTP at this size/scale",
                   piece["completion_s"] < ftp["completion_s"]
                   and fluid["completion_s"] < ftp["completion_s"])
    checks.verify()
