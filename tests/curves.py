"""Reader for the curve CSVs that ``quantdoa.experiments.write_curves_csv`` writes."""

from __future__ import annotations

from pathlib import Path

from quantdoa.experiments import CurvePoint


def read_curves_csv(path: str | Path) -> tuple[list[CurvePoint], dict[str, str]]:
    """The rows as CurvePoints, and the ``# key: value`` header lines as a dict."""
    header: dict[str, str] = {}
    points: list[CurvePoint] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif line and not line.startswith("series,"):
            series, x, y, spread = line.split(",")
            points.append(CurvePoint(series, float(x), float(y), float(spread)))
    return points, header
