"""The finding primitive of the detlint engine.

A :class:`Finding` pins one rule violation to a file and line.  Reasoned
line pragmas are the one way to suppress one (:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = ["Finding", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str              #: rule id, e.g. ``DET001``
    path: str              #: path relative to the scan root, posix separators
    line: int              #: 1-based line number
    col: int               #: 0-based column offset
    message: str           #: human-readable description of the violation
    snippet: str = ""      #: the stripped source line the finding points at

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: path, then line, then column, then rule."""
    return sorted(findings, key=_sort_key)
