"""Command-line front end for detlint (``python -m repro lint``).

Exit codes: 0 — clean (no unsuppressed findings); 1 — findings;
2 — usage error (unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from repro.analysis.engine import LintReport, default_scan_root, run_checks
from repro.analysis.rules import all_rules

__all__ = ["add_lint_arguments", "main", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with ``python -m repro``)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is machine-readable, for CI)")
    parser.add_argument(
        "--rules", metavar="ID[,ID...]", default=None,
        help="run only these rule ids (e.g. DET001,ARCH001)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit")


def _list_rules(stream: TextIO) -> int:
    for rule_id, rule_cls in sorted(all_rules().items()):
        stream.write(f"{rule_id}  {rule_cls.describe()}\n")
    return 0


def _render_text(report: LintReport, stream: TextIO) -> None:
    for finding in report.findings:
        stream.write(finding.render() + "\n")
    summary = (f"detlint: {report.files_scanned} files, "
               f"{len(report.findings)} finding"
               f"{'s' if len(report.findings) != 1 else ''}")
    if report.suppressed:
        summary += f" ({len(report.suppressed)} suppressed by pragma)"
    stream.write(summary + "\n")


def run_lint(args: argparse.Namespace,
             stdout: Optional[TextIO] = None,
             stderr: Optional[TextIO] = None) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if args.list_rules:
        return _list_rules(out)

    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",")
                 if part.strip()]

    roots = [Path(p) for p in args.paths] if args.paths \
        else [default_scan_root()]
    merged: Optional[LintReport] = None
    try:
        for root in roots:
            if not root.exists():
                err.write(f"error: no such path: {root}\n")
                return 2
            report = run_checks(root, rules=rules)
            if merged is None:
                merged = report
            else:
                merged.findings.extend(report.findings)
                merged.suppressed.extend(report.suppressed)
                merged.files_scanned += report.files_scanned
    except ValueError as exc:  # unknown rule ids
        err.write(f"error: {exc}\n")
        return 2
    assert merged is not None

    if args.format == "json":
        out.write(json.dumps(merged.to_dict(), indent=2, sort_keys=True)
                  + "\n")
    else:
        _render_text(merged, out)
    return 0 if merged.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="detlint: determinism & architecture linter for the "
                    "repro tree (see docs/ARCHITECTURE.md)")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
