"""Shared experiment-result container.

Experiment harnesses detect through :func:`repro.flow.detect`, which serves
deterministic runs from a result store when ``REPRO_CACHE_DIR`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import write_csv
from repro.utils.tables import format_table


@dataclass
class ExperimentResult:
    """Output of one table/figure harness.

    Attributes:
        name: experiment id, e.g. ``"Table 1"``.
        headers: table column names.
        rows: table rows (paper-shaped).
        series: named data series for figures: label -> (x, y) pairs.
        notes: free-form observations (e.g. paper-vs-measured commentary).
    """

    name: str
    headers: Sequence[str] = field(default_factory=list)
    rows: List[Sequence] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report."""
        parts = [f"== {self.name} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        for label, points in self.series.items():
            if not points:
                continue
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            min_index = min(range(len(ys)), key=ys.__getitem__)
            parts.append(
                f"series {label}: {len(points)} points, "
                f"x in [{xs[0]:g}, {xs[-1]:g}], "
                f"min {ys[min_index]:.4g} at x={xs[min_index]:g}, "
                f"last {ys[-1]:.4g}"
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def write_series_csv(self, path: str) -> None:
        """Dump all series to one CSV (columns: series, x, y)."""
        rows = []
        for label, points in self.series.items():
            for x, y in points:
                rows.append((label, x, y))
        write_csv(path, ["series", "x", "y"], rows)
