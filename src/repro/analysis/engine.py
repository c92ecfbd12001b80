"""The detlint engine: walk files, run rules, apply pragmas.

:func:`run_checks` is the library entry point (the CLI in
:mod:`repro.analysis.cli` is a thin wrapper).  The engine itself obeys
the rules it enforces: files are visited in sorted order and nothing
here reads a clock or ambient RNG, so a lint run over the same tree is
byte-identical every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.config import LintConfig, default_config
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.module import ParsedModule, parse_module
from repro.analysis.rules import Rule, make_rules

__all__ = ["LintReport", "default_scan_root", "run_checks"]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    root: Path
    #: violations not covered by a pragma — these fail CI.
    findings: List[Finding] = field(default_factory=list)
    #: violations suppressed by a well-formed pragma on their line.
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


def default_scan_root() -> Path:
    """The installed ``repro`` package directory (works from anywhere).

    Located relative to this file rather than by importing ``repro`` —
    the analysis layer sits at the bottom of the layer DAG and must not
    import the package root it lints.
    """
    return Path(__file__).resolve().parent.parent


def _iter_sources(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def _apply_pragmas(module: ParsedModule, raw: List[Finding]
                   ) -> "tuple[List[Finding], List[Finding]]":
    """Split raw findings into (kept, suppressed) using line pragmas, and
    append LINT001/LINT002 findings for malformed or unused pragmas."""
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        pragma = module.pragmas.get(finding.line)
        if pragma is not None and pragma.well_formed \
                and finding.rule in pragma.rules:
            pragma.used_rules.add(finding.rule)
            suppressed.append(finding)
        else:
            kept.append(finding)
    for line in sorted(module.pragmas):
        pragma = module.pragmas[line]
        if not pragma.well_formed:
            what = ("no rule ids" if not pragma.rules
                    else "no reason — a suppression must say why")
            kept.append(Finding(
                rule="LINT001", path=module.rel, line=line, col=0,
                message=f"malformed detlint pragma ({what}); expected "
                        f"`# detlint: ignore[RULE] — reason`",
                snippet=module.snippet(line)))
            continue
        unused = sorted(set(pragma.rules) - pragma.used_rules)
        if unused:
            kept.append(Finding(
                rule="LINT002", path=module.rel, line=line, col=0,
                message=f"pragma suppresses nothing on this line "
                        f"(unused rule ids: {', '.join(unused)}) — "
                        f"delete it or move it to the offending line",
                snippet=module.snippet(line)))
    return kept, suppressed


def run_checks(root: Optional[Path] = None, *,
               config: Optional[LintConfig] = None,
               rules: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every ``.py`` file under *root* (default: the repro package).

    Returns a :class:`LintReport`; ``report.ok`` is the CI gate.  Pass
    ``rules=["DET001", ...]`` to restrict the rule set.
    """
    scan_root = Path(root) if root is not None else default_scan_root()
    active_config = config if config is not None else default_config()
    active_rules: List[Rule] = make_rules(rules)
    report = LintReport(root=scan_root)

    for path in _iter_sources(scan_root):
        rel = (path.name if scan_root.is_file()
               else path.relative_to(scan_root).as_posix())
        try:
            module = parse_module(path, rel)
        except (SyntaxError, ValueError) as exc:
            report.findings.append(Finding(
                rule="LINT000", path=rel,
                line=getattr(exc, "lineno", 1) or 1, col=0,
                message=f"file does not parse: {exc}"))
            report.files_scanned += 1
            continue
        raw: List[Finding] = []
        for rule in active_rules:
            raw.extend(rule.check(module, active_config))
        kept, suppressed = _apply_pragmas(module, sort_findings(raw))
        report.findings.extend(kept)
        report.suppressed.extend(suppressed)
        report.files_scanned += 1

    report.findings = sort_findings(report.findings)
    report.suppressed = sort_findings(report.suppressed)
    return report
