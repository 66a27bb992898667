"""Plain-text table/series formatting for the experiment harness.

The paper's tables are reproduced as aligned ASCII tables printed to stdout
(and returned as strings so tests can assert on their structure); figures are
reproduced as value series rendered one row per x-value.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series", "format_mean_std"]


def format_mean_std(mean: float, std: float) -> str:
    """Render fractions as ``mean ± std`` in percent, the way the paper's tables do."""
    return f"{mean * 100.0:.2f} ± {std * 100.0:.2f}"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    *,
    title: str | None = None,
) -> str:
    """Render a list of row-dictionaries as an aligned text table."""
    if not columns:
        raise ValueError("columns must not be empty")
    cells = [[str(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in cells)) if cells else len(column)
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in cells:
        lines.append(" | ".join(value.ljust(width) for value, width in zip(line, widths)))
    return "\n".join(lines)


def format_series(
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    x_label: str = "x",
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render one or more aligned y-series against a shared x-axis."""
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values but there are {len(x_values)} x values"
            )
    columns = [x_label, *series.keys()]
    rows = []
    for index, x_value in enumerate(x_values):
        row: dict[str, object] = {x_label: x_value}
        for name, values in series.items():
            row[name] = f"{float(values[index]):.{precision}f}"
        rows.append(row)
    return format_table(rows, columns, title=title)
