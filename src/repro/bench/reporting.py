"""Reporting helpers shared by the benchmark harness.

``format_table`` renders experiment rows as a plain-text table (used by the
benchmark output and ``examples/reproduce_paper.py``); ``shape_check``
collects simple assertions about the *shape* of results (who wins, by what
rough factor) so that benchmarks can fail loudly when a change breaks the
qualitative reproduction, without pinning exact simulated numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = ["format_table", "shape_check", "geometric_mean"]


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    table = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in table))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


class ShapeCheckFailure(AssertionError):
    """A qualitative reproduction property does not hold."""


class shape_check:
    """Collects named qualitative assertions and raises a summary on failure.

    Usage::

        checks = shape_check("figure 3a")
        checks.is_true("bt wins at 500MB/150 nodes", bt_time < ftp_time)
        checks.ratio_at_least("ftp slowdown 10->150 nodes", ftp_150 / ftp_10, 5.0)
        checks.verify()
    """

    def __init__(self, label: str):
        self.label = label
        self.failures: List[str] = []
        self.passed: List[str] = []

    def is_true(self, name: str, condition: bool) -> None:
        (self.passed if condition else self.failures).append(name)

    def ratio_at_least(self, name: str, ratio: float, minimum: float) -> None:
        self.is_true(f"{name} (ratio {ratio:.2f} >= {minimum:g})", ratio >= minimum)

    def ratio_at_most(self, name: str, ratio: float, maximum: float) -> None:
        self.is_true(f"{name} (ratio {ratio:.2f} <= {maximum:g})", ratio <= maximum)

    def within(self, name: str, value: float, low: float, high: float) -> None:
        self.is_true(f"{name} ({value:.3g} in [{low:g}, {high:g}])",
                     low <= value <= high)

    def verify(self) -> None:
        if self.failures:
            raise ShapeCheckFailure(
                f"{self.label}: {len(self.failures)} shape check(s) failed: "
                + "; ".join(self.failures)
            )


__all__.append("ShapeCheckFailure")
