"""Command line of the benchmark.

``python3 -m perfbench run [--k 5] [--quick] [--out FILE] [--trace-out DIR]``
    All five workloads, k untraced repeats each plus one traced run; prints
    every metric by name with its unit and checks the simulated statistics.
``python3 -m perfbench measure --workload W --seed N --seconds S --trace 0|1``
    The ``BENCHMARK.json`` command, the same measurement for one workload:
    as many untraced repeats as end within S seconds (never fewer than 3),
    or with ``--trace 1`` one untraced and one traced repeat; the last line
    of stdout is the result object.
``python3 -m perfbench compare A.json B.json``
    Two result files of ``run --out``, metric by metric against the bounds.
``python3 -m perfbench once ...``
    One repeat in this process (what the other commands spawn).

Nothing is written inside the repository unless ``--out`` / ``--trace-out``
/ ``--write-expected`` say so.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from perfbench import hostspeed, measure
from perfbench.compare import compare_files, spread
from perfbench.measure import END_TO_END, ROOT
from perfbench.workloads import DEFAULT_SEED, WORKLOADS

#: fewest untraced repeats behind a median that ``measure`` reports
MIN_REPEATS = 3


class RepeatFailed(Exception):
    """A repeat exited non-zero; carries what it wrote to stderr."""


# ------------------------------------------------------------------ repeats
def spawn_once(workload: str, seed: int, trace: bool, quick: bool,
               check: bool = True, trace_out: Optional[str] = None
               ) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; returns the object it printed.

    The host's speed is sampled meanwhile (``hostspeed``) and the repeat's
    times are put at reference speed; ``host_speed`` keeps the factor.
    """
    command = [sys.executable, "-m", "perfbench", "once",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0"]
    if quick:
        command.append("--quick")
    if not check:
        command.append("--no-check")
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    # A repeat prints a few KB, so the pipes cannot fill while it is watched.
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        speed = hostspeed.watch(child)
        stdout, stderr = child.communicate()
    if child.returncode != 0:
        raise RepeatFailed(stderr.strip() or f"perfbench: {workload}: "
                           f"repeat exited with code {child.returncode}")
    outcome = json.loads(stdout.strip().splitlines()[-1])
    outcome["host_speed"] = speed
    if not trace:
        outcome["samples"] = hostspeed.at_reference_speed(
            outcome["samples"], END_TO_END, speed)
    return outcome


def cmd_once(args: argparse.Namespace) -> int:
    import_s = measure.bootstrap()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            outcome = measure.run_traced(workload, args.seed, args.quick,
                                         import_s, args.trace_out,
                                         check=not args.no_check)
        else:
            outcome = measure.run_untraced(workload, args.seed, args.quick,
                                           check=not args.no_check)
    except measure.Mismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


def untraced_repeats(workload: str, seed: int, quick: bool,
                     k: Optional[int] = None, seconds: float = 0.0
                     ) -> List[Dict[str, Any]]:
    """*k* repeats, or as many as end within *seconds* (``MIN_REPEATS`` up)."""
    repeats: List[Dict[str, Any]] = []
    began = perf_counter()
    while True:
        start = perf_counter()
        repeats.append(spawn_once(workload, seed, trace=False, quick=quick))
        if repeats[-1]["stats"] != repeats[0]["stats"]:
            raise RepeatFailed(f"perfbench: {workload}: repeat {len(repeats)} "
                               f"disagrees with repeat 1 on the simulated "
                               f"statistics")
        if k is not None:
            done = len(repeats) >= k
        else:
            # Never start a repeat that cannot end inside the budget.
            now = perf_counter()
            done = (len(repeats) >= MIN_REPEATS
                    and (now - began) + (now - start) > seconds)
        if done:
            return repeats


def traced_repeat(workload: str, seed: int, quick: bool,
                  untraced: Sequence[Dict[str, Any]],
                  trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One traced repeat, checked against and scaled by the untraced ones."""
    traced = spawn_once(workload, seed, trace=True, quick=quick,
                        trace_out=trace_out)
    if traced["stats"] != untraced[0]["stats"]:
        raise RepeatFailed(f"perfbench: {workload}: tracing changed the "
                           f"simulated statistics")
    walls = [repeat["samples"]["wall_s"] for repeat in untraced]
    # Per-layer times stay raw (they are shares of the traced wall-clock);
    # only the ratio to the untraced repeats needs both at one speed.
    traced["metrics"]["trace.overhead_x"] = (
        traced["traced_wall_s"] * traced["host_speed"]
        / spread(walls)["median"])
    return traced


def end_to_end(repeats: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, min, max, IQR, k and the raw samples of each metric."""
    out = {}
    for name, unit in END_TO_END.items():
        samples = [repeat["samples"][name] for repeat in repeats]
        out[name] = dict(spread(samples), unit=unit, samples=samples)
    return out


def measure_workload(name: str, seed: int, quick: bool, k: Optional[int],
                     seconds: float = 0.0, traced: bool = True,
                     trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One workload's entry of a result file: what ``run`` and ``measure`` print.

    Untraced repeats give ``end_to_end``; with *traced*, one more repeat under
    the tracer gives ``per_layer`` (``value`` is ``None`` where a trace target
    no longer resolves; ``notes`` says why).
    """
    untraced = untraced_repeats(name, seed, quick, k=k, seconds=seconds)
    attempted, failed = untraced[0]["attempted"], untraced[0]["failed"]
    entry: Dict[str, Any] = {
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "stats": untraced[0]["stats"],
        "host_speed": [repeat["host_speed"] for repeat in untraced],
        "end_to_end": end_to_end(untraced),
    }
    if traced:
        trace = traced_repeat(name, seed, quick, untraced, trace_out)
        units = {row["name"]: row["unit"]
                 for row in measure.declaration()["per_layer"]}
        entry["per_layer"] = {metric: {"value": value, "unit": units[metric]}
                              for metric, value in trace["metrics"].items()}
        entry["notes"] = trace["notes"]
    return entry


def print_entry(entry: Dict[str, Any]) -> None:
    """Every metric by name with its unit."""
    for metric, row in entry["end_to_end"].items():
        print(f"  {metric:42s} {row['median']:>14.6g} {row['unit']:5s}"
              f" min {row['min']:.6g} max {row['max']:.6g}"
              f" iqr {row['iqr']:.3g} k {row['k']}")
    print(f"  {'failed_share':42s} {entry['failed_share']:>14.6g} fraction "
          f"({entry['failed']} of {entry['attempted']} operations)")
    print(f"  {'host speed per repeat (1 = reference)':42s} "
          + " ".join(f"{speed:.3f}" for speed in entry["host_speed"]))
    for metric, row in entry.get("per_layer", {}).items():
        shown = "null" if row["value"] is None else f"{row['value']:.6g}"
        print(f"  {metric:42s} {shown:>14s} {row['unit']}")
    for path, note in sorted(entry.get("notes", {}).items()):
        print(f"  note: {path}: {note}")


# ----------------------------------------------------------------- measure
def cmd_measure(args: argparse.Namespace) -> int:
    """The ``BENCHMARK.json`` command; the last stdout line is the result."""
    measure.require_source()
    try:
        entry = measure_workload(
            args.workload, args.seed, quick=False,
            k=1 if args.trace else None, seconds=args.seconds,
            traced=bool(args.trace))
    except RepeatFailed as exc:
        # No result line: a run whose outputs are wrong has no metrics.
        print(exc, file=sys.stderr)
        return 1
    print_entry(entry)
    if args.trace:
        metrics = entry["per_layer"]
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in entry["end_to_end"].items()}
    print(json.dumps({"correct": True, "attempted": entry["attempted"],
                      "failed": entry["failed"], "metrics": metrics}))
    return 0


# --------------------------------------------------------------------- run
def fingerprint(k: int, seed: int, quick: bool) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "gc_threshold": list(gc.get_threshold()),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "k": k, "seed": seed, "quick": quick,
    }


def cmd_run(args: argparse.Namespace) -> int:
    measure.require_source()
    if args.write_expected:
        return write_expected()
    k = args.k or (1 if args.quick else 5)
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    document: Dict[str, Any] = {
        "fingerprint": fingerprint(k, args.seed, args.quick), "workloads": {}}
    status = 0
    for name, workload in WORKLOADS.items():
        print(f"== {name}: {workload.why}")
        trace_file = (os.path.join(args.trace_out, f"{name}.trace.json")
                      if args.trace_out else None)
        try:
            entry = measure_workload(name, args.seed, args.quick, k=k,
                                     trace_out=trace_file)
        except RepeatFailed as exc:
            print(exc, file=sys.stderr)
            document["workloads"][name] = {"failed_share": 1.0,
                                           "error": str(exc)}
            status = 1
            continue
        print_entry(entry)
        document["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def write_expected() -> int:
    """Pin the simulated statistics of one unchecked run per workload and size."""
    pinned: Dict[str, Any] = {"seed": DEFAULT_SEED, "workloads": {},
                              "quick": {}}
    for name in WORKLOADS:
        for section, quick in (("workloads", False), ("quick", True)):
            repeat = spawn_once(name, DEFAULT_SEED, trace=False,
                                quick=quick, check=False)
            pinned[section][name] = repeat["stats"]
        print(f"pinned {name}")
    with open(measure.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# --------------------------------------------------------------------- CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def one_workload(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workload", required=True,
                         choices=sorted(WORKLOADS))
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--trace", type=int, choices=(0, 1), default=0)

    quick_help = "reduced sizes (the tier-1 smoke test)"

    once = commands.add_parser("once", help="one repeat in this process")
    one_workload(once)
    once.add_argument("--quick", action="store_true", help=quick_help)
    once.add_argument("--no-check", action="store_true",
                      help="skip the expected.json pin (invariants still hold)")
    once.add_argument("--trace-out", metavar="FILE")
    once.set_defaults(handler=cmd_once)

    meas = commands.add_parser("measure", help="the BENCHMARK.json command")
    one_workload(meas)
    meas.add_argument("--seconds", type=float, required=True)
    meas.set_defaults(handler=cmd_measure)

    run = commands.add_parser("run", help="all workloads, k repeats + traced")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--quick", action="store_true",
                     help=quick_help + "; k defaults to 1")
    run.add_argument("--k", type=int, help="untraced repeats (default 5)")
    run.add_argument("--out", metavar="FILE", help="write the result file")
    run.add_argument("--trace-out", metavar="DIR",
                     help="write <workload>.trace.json (Chrome trace + "
                          "aggregate) per workload")
    run.add_argument("--write-expected", action="store_true",
                     help="regenerate perfbench/expected.json and stop")
    run.set_defaults(handler=cmd_run)

    comp = commands.add_parser("compare", help="two result files")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(handler=lambda a: compare_files(a.a, a.b))

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
