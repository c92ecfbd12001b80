"""``python -m repro`` — the experiment catalog on the command line.

Subcommands:

* ``list`` — every registered scenario with its paper reference.
* ``describe NAME`` — parameters, defaults and provenance of one scenario.
* ``run NAME [--set k=v ...] [--seed N] [--out results.json]`` — run one
  scenario; ``--out`` writes exactly what the scenario returned, a pure
  function of (spec, seed): same seed → byte-identical bytes.  Host time is
  read here and nowhere below: every executed run prints a ``# stats:``
  perf line (wall clock, and when the scenario counts
  ``processed_events``, that and the derived ``events_per_sec``) to
  stderr.  ``--cache`` / ``--cache-dir`` reuse a stored result instead of
  executing.  For where the time goes, layer by layer, use
  ``python3 -m perfbench run --trace-out DIR``.
* ``sweep NAME --grid k=v1,v2 [--grid ...] [--set k=v ...] [--out f.json]``
  — the cartesian product of one or more parameter axes, executed by the
  parallel sweep engine: ``--jobs N`` runs points on a process pool
  (byte-identical output to ``--jobs 1``), a content-addressed result cache
  (on by default; ``--cache-dir``/``--no-cache``) skips already-computed
  points, and a point that raises becomes a structured failure entry in
  the JSON (exit code 1) instead of ending the sweep.
* ``cache ls|stats|clear`` — inspect or empty the sweep result cache.
* ``lint [PATH] [--format json] [--rules IDS] [--list-rules]`` —
  run detlint, the determinism & architecture linter (``repro.analysis``)
  over ``src/repro``; exit 1 on findings, 2 on usage errors.  See
  "Determinism contract & layer DAG" in ``docs/ARCHITECTURE.md``.

Parameter values (``--set``/``--grid``) are parsed as JSON when possible
(``replica=5`` → int, ``sizes_mb=[10,100]`` → list) and fall back to plain
strings (``protocol=ftp``).  Malformed assignments and unknown parameter
names are reported as one-line errors with exit code 2.

Examples::

    python -m repro list
    python -m repro describe fig4
    python -m repro run fig4 --out fig4.json
    python -m repro run distribution --set protocol=bittorrent --set size_mb=100
    python -m repro sweep fig4 --grid replica=3,5 --grid crash_interval_s=10,20
    python -m repro sweep fig3a --grid "sizes_mb=[[10],[100]]" --jobs 4
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.bench.reporting import format_table
from repro.experiments import (
    ResultCache,
    UnknownScenarioError,
    default_registry,
    execute_sweep,
    run_spec,
)
from repro.experiments.cache import default_cache_dir, point_key
from repro.transfer.registry import UnknownProtocolError

__all__ = ["main"]


def _parse_value(text: str):
    """One CLI parameter value: JSON if it parses, plain string otherwise."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_assignment(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"expected name=value, got {text!r}")
    name, _, value = text.partition("=")
    name = name.strip()
    if not name:
        raise ValueError(f"empty parameter name in {text!r}")
    return name, _parse_value(value.strip())


def _parse_grid_axis(text: str) -> tuple:
    """``name=v1,v2,...`` → (name, [values]).

    A JSON list (``name=[1,2]``) is taken whole, and a JSON-quoted string
    (``name='"x,y"'``) is one value even if it contains commas; otherwise
    the value splits on commas.
    """
    if "=" not in text:
        raise ValueError(f"expected name=value, got {text!r}")
    name, _, raw = text.partition("=")
    name, raw = name.strip(), raw.strip()
    if not name:
        raise ValueError(f"empty parameter name in {text!r}")
    try:
        parsed = json.loads(raw)
    except ValueError:
        if "," in raw:
            return name, [_parse_value(part.strip())
                          for part in raw.split(",")]
        return name, [raw]
    return name, parsed if isinstance(parsed, list) else [parsed]


def _collect_params(assignments: Optional[Sequence[str]],
                    seed: Optional[int]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for assignment in assignments or ():
        name, value = _parse_assignment(assignment)
        params[name] = value
    if seed is not None:
        params["seed"] = seed
    return params


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _summarise(results: object) -> str:
    """A short human-readable account of a scenario's results."""
    if isinstance(results, dict):
        scalars = {k: v for k, v in results.items()
                   if isinstance(v, (int, float, str, bool)) or v is None}
        return format_table([scalars]) if scalars else repr(results)
    if isinstance(results, list) and results \
            and all(isinstance(row, dict) for row in results):
        columns = [k for k in results[0]
                   if isinstance(results[0][k], (int, float, str, bool))]
        return format_table(results, columns=columns)
    return repr(results)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    rows = [{
        "scenario": d.name,
        "group": d.group,
        "paper_ref": d.paper_ref,
        "title": d.title,
    } for d in registry.definitions(group=args.group)]
    print(format_table(rows, title=f"{len(rows)} registered scenarios"))
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    registry = default_registry()
    definition = registry.get(args.scenario)
    print(f"scenario : {definition.name}")
    print(f"title    : {definition.title}")
    print(f"paper    : {definition.paper_ref}")
    print(f"module   : {definition.module}")
    print(f"group    : {definition.group}"
          + (f"   tags: {', '.join(definition.tags)}" if definition.tags else ""))
    print(f"usage    : {definition.cli_example()}")
    print()
    params = definition.parameters()
    rows = [{"parameter": name,
             "default": ("(required)" if default is inspect.Parameter.empty
                         else repr(default))}
            for name, default in params.items()]
    print(format_table(rows, title="parameters (override with --set name=value)"))
    if definition.accepts_extra_params():
        print("(extra --set parameters are forwarded to the underlying run)")
    if definition.description:
        print()
        print(definition.description)
    return 0


def _sweep_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache for ``sweep``: on by default, ``--no-cache`` kills it."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _run_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache for ``run``: off unless ``--cache``/``--cache-dir``.

    A single ``run`` is usually *meant* to execute (its ``# stats:`` line
    is the reading), so caching is opt-in there — unlike ``sweep``, whose
    product is the merged JSON.
    """
    if args.no_cache:
        return None
    if args.cache or args.cache_dir is not None:
        return ResultCache(args.cache_dir)
    return None


def _progress_printer(args: argparse.Namespace):
    """Progress lines go to stderr so ``--out -`` JSON keeps stdout clean."""
    if args.quiet:
        return None
    return lambda line: print(line, file=sys.stderr, flush=True)


def _sum_key(results: object, key: str) -> Optional[float]:
    """Sum every value of *key* found anywhere in a results structure."""
    found: List[float] = []

    def walk(value: object) -> None:
        if isinstance(value, dict):
            item = value.get(key)
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                found.append(item)
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(results)
    return sum(found) if found else None


def _print_run_stats(results: object, wall_s: float) -> None:
    """The perf line every run reports: event count and throughput.

    Goes to stderr so ``--out -`` JSON keeps stdout clean; scenarios whose
    results carry no ``processed_events`` report only the wall clock.
    """
    events = _sum_key(results, "processed_events")
    line = f"# stats: wall_s={wall_s:.3f}"
    if events is not None:
        rate = events / wall_s if wall_s > 0 else 0.0
        line += f" processed_events={int(events)} events_per_sec={rate:.0f}"
    print(line, file=sys.stderr, flush=True)


def cmd_run(args: argparse.Namespace) -> int:
    spec = default_registry().get(args.scenario).spec(
        **_collect_params(args.set, args.seed))
    cache = _run_cache(args)
    key = point_key(spec.scenario, spec.params) if cache is not None else None
    run = cache.get(key) if cache is not None else None
    cached = run is not None
    if not cached:
        wall_start = time.perf_counter()
        result = run_spec(spec)
        wall_s = time.perf_counter() - wall_start
        if not args.quiet:
            _print_run_stats(result.results, wall_s)
        run = result.to_dict()
    # Serialised before it is stored: what JSON cannot hold is not cached.
    text = json.dumps(run, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cache is not None and not cached:
        cache.put(key, spec.scenario, run)
    if args.out is not None:
        _write_output(text, args.out)
    # With '--out -' the JSON owns stdout; the summary would corrupt it.
    if not args.quiet and args.out != "-":
        ref = f" [{run['paper_ref']}]" if run["paper_ref"] else ""
        print(f"# scenario {spec.scenario}{ref}{' (cached)' if cached else ''}"
              + (f" -> {args.out}" if args.out not in (None, "-") else ""))
        print(_summarise(run["results"]))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    grid: Dict[str, List[object]] = {}
    for axis in args.grid:
        name, values = _parse_grid_axis(axis)
        if name in grid:
            raise ValueError(
                f"duplicate --grid axis {name!r}; give every value in one "
                f"axis: --grid {name}={','.join(map(str, grid[name] + values))}")
        grid[name] = values
    base = _collect_params(args.set, args.seed)
    outcome = execute_sweep(
        args.scenario, grid, base_params=base, jobs=args.jobs,
        cache=_sweep_cache(args), progress=_progress_printer(args),
        derive_seeds=args.seed_per_point)
    text = outcome.to_json()
    if args.out is not None:
        _write_output(text, args.out)
    if not args.quiet and args.out != "-":
        stats = outcome.stats
        print(f"# swept {outcome.scenario}: {stats.points} points over axes "
              f"{sorted(grid)} ({stats.executed} run, "
              f"{stats.cache_hits} cached, {stats.failed} failed)"
              + (f" -> {args.out}" if args.out not in (None, "-") else ""))
        for point in outcome.failures():
            overrides = {axis: point.spec.params.get(axis)
                         for axis in sorted(grid)}
            print(f"  FAILED {overrides}: {point.failure.error}: "
                  f"{point.failure.message}")
    return 0 if outcome.ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result"
              f"{'s' if removed != 1 else ''} from {cache.root}")
        return 0
    entries = cache.entries()
    if args.action == "stats":
        total = sum(int(entry["bytes"]) for entry in entries)
        scenarios = sorted({str(entry["scenario"]) for entry in entries})
        print(f"cache dir : {cache.root}")
        print(f"entries   : {len(entries)}")
        print(f"bytes     : {total}")
        print(f"scenarios : {', '.join(scenarios) if scenarios else '(none)'}")
        return 0
    # ls
    rows = [{"key": str(entry["key"])[:16], "scenario": entry["scenario"],
             "bytes": entry["bytes"]} for entry in entries]
    print(format_table(rows, title=f"{len(rows)} cached results "
                                   f"in {cache.root}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the declarative experiment scenarios of this "
                    "BitDew reproduction (see docs/EXPERIMENTS.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--group", choices=("paper", "scale", "extra"),
                        default=None, help="only one scenario group")
    p_list.set_defaults(func=cmd_list)

    p_desc = sub.add_parser("describe", help="show one scenario's parameters")
    p_desc.add_argument("scenario")
    p_desc.set_defaults(func=cmd_describe)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="override one parameter (repeatable)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's RNG seed")
    p_run.add_argument("--out", metavar="FILE",
                       help="write deterministic JSON results ('-' = stdout)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")
    p_run.add_argument("--cache", action="store_true",
                       help="reuse/store this run in the result cache")
    p_run.add_argument("--cache-dir", metavar="DIR", default=None,
                       help=f"result cache directory (implies --cache; "
                            f"default {default_cache_dir()})")
    p_run.add_argument("--no-cache", action="store_true",
                       help="never touch the result cache")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="run the cartesian product of a grid")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--grid", action="append", required=True,
                         metavar="NAME=V1,V2,...",
                         help="one parameter axis (repeatable)")
    p_sweep.add_argument("--set", action="append", metavar="NAME=VALUE",
                         help="fixed override applied to every run")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="RNG seed applied to every run")
    p_sweep.add_argument("--seed-per-point", action="store_true",
                         help="derive a deterministic per-point seed from "
                              "the base seed and each point's overrides")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run points on an N-process pool "
                              "(output byte-identical to --jobs 1)")
    p_sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                         help=f"result cache directory "
                              f"(default {default_cache_dir()})")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="always execute every point")
    p_sweep.add_argument("--out", metavar="FILE",
                         help="write the sweep JSON ('-' = stdout)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress progress lines and the summary")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser("cache",
                             help="inspect or clear the sweep result cache")
    p_cache.add_argument("action", choices=("ls", "stats", "clear"))
    p_cache.add_argument("--cache-dir", metavar="DIR", default=None,
                         help=f"result cache directory "
                              f"(default {default_cache_dir()})")
    p_cache.set_defaults(func=cmd_cache)

    p_lint = sub.add_parser(
        "lint", help="run detlint (determinism & architecture rules)")
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=run_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownScenarioError, UnknownProtocolError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Malformed --set/--grid values, unknown or missing parameter names:
        # a clean one-line diagnostic, never a traceback.  (Deliberately not
        # TypeError — that would misclassify genuine scenario crashes under
        # `run` as malformed CLI input.)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
