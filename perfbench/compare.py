"""Repeatability tooling: spreads, and two result files side by side.

``compare`` screens two ``run --out`` files — two sets of the same commit, or
a parent and a change — per workload and end-to-end metric against the
bound fixed in ``BENCHMARK.json``.  It is a screen, not a claim: a
performance claim needs the pairing protocol of ``README.md``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

from perfbench.measure import declaration

__all__ = ["SETUP_FLOOR_S", "compare_files", "spread", "verdict"]

#: ``setup_s`` may move by max(bound, this many seconds): on the workloads
#: that set up in 0.1 - 0.5 s the relative bound alone is a few hundredths
#: of a second.  ``BENCHMARK.json`` has no field for it, so it lives here.
SETUP_FLOOR_S = 0.10


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median with min / max / IQR and k, as every result file reports it."""
    ordered = sorted(values)
    iqr = 0.0
    if len(ordered) >= 2:
        quartiles = statistics.quantiles(ordered, n=4)
        iqr = quartiles[2] - quartiles[0]
    return {"median": statistics.median(ordered), "min": ordered[0],
            "max": ordered[-1], "iqr": iqr, "k": len(ordered)}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float, floor: float = 0.0) -> Dict[str, Any]:
    """How set *b* reads against set *a* for one metric.

    *bound* is a share of *a*'s median; *floor*, in the metric's unit, widens
    it to ``max(bound, floor / median)``.

    ``worse_by`` is the relative change of the median, signed so that
    positive is worse.  ``unresolved`` means a set's own spread (IQR over
    median) exceeds the bound, so a difference of that size cannot be told
    from noise — unless the two sets do not overlap at all.
    """
    sign = 1.0 if better == "lower" else -1.0
    bound = max(bound, floor / a["median"])
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    noise = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if sign > 0:
        b_all_better = b["max"] < a["min"]
        b_all_worse = b["min"] > a["max"]
    else:
        b_all_better = b["min"] > a["max"]
        b_all_worse = b["max"] < a["min"]
    if noise > bound and not (b_all_better or b_all_worse):
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif worse_by < -bound:
        label = "better"
    else:
        label = "same"
    return {"worse_by": worse_by, "noise": noise, "bound": bound,
            "verdict": label}


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; exit status 1 if any metric reads ``worse``."""
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    for key in ("nproc", "python", "numpy", "platform", "k", "seed", "quick"):
        left, right = doc_a["fingerprint"][key], doc_b["fingerprint"][key]
        if left != right:
            print(f"warning: fingerprints differ on {key}: {left} vs {right}")
    bounds = {row["name"]: row for row in declaration()["end_to_end"]}
    verdicts: List[str] = []
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} {'A iqr':>10s} "
          f"{'B median':>12s} {'B iqr':>10s} {'worse by':>9s} {'bound':>6s} "
          f"verdict")
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None or "end_to_end" not in entry_a \
                or "end_to_end" not in entry_b:
            print(f"{name:14s} missing or failed in one file")
            verdicts.append("worse")
            continue
        for metric, declared in bounds.items():
            a, b = entry_a["end_to_end"][metric], entry_b["end_to_end"][metric]
            result = verdict(a, b, declared["better"], declared["bound"],
                             SETUP_FLOOR_S if metric == "setup_s" else 0.0)
            verdicts.append(result["verdict"])
            print(f"{name:14s} {metric:12s} {a['median']:12.5g} "
                  f"{a['iqr']:10.3g} {b['median']:12.5g} {b['iqr']:10.3g} "
                  f"{result['worse_by']:+9.2%} {result['bound']:6.0%} "
                  f"{result['verdict']}")
    counts = {label: verdicts.count(label)
              for label in ("same", "better", "worse", "unresolved")}
    print("summary: " + ", ".join(f"{n} {label}" for label, n in counts.items()))
    return 1 if counts["worse"] else 0
