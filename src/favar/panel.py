"""Multivariate time-series panels: container, CSV I/O, robust scaling.

A panel is an n x p matrix of observations, rows indexed by time. CSV is the
only on-disk format: comma separated, UTF-8, '.' decimal, LF line ends,
optional single header row. Values are written with 17 significant digits
so that a write/read round trip is lossless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def default_names(p: int) -> tuple[str, ...]:
    return tuple(f"V{i + 1}" for i in range(p))


@dataclass(frozen=True, eq=False)
class PanelSeries:
    """n x p observation matrix with variable names; immutable once built."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("panel values must be two-dimensional")
        n, p = v.shape
        if n < 2 or p < 1:
            raise ValueError(f"panel needs at least 2 rows and 1 column, got {n}x{p}")
        if not np.all(np.isfinite(v)):
            t, i = map(int, np.argwhere(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at row {t + 1}, column {i + 1}")
        names = tuple(str(s) for s in self.names)
        if len(names) != p:
            raise ValueError(f"got {len(names)} names for {p} columns")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "names", names)

    @classmethod
    def from_values(cls, values, names=None) -> "PanelSeries":
        values = np.asarray(values, dtype=float)
        if names is None:
            names = default_names(values.shape[1] if values.ndim == 2 else 0)
        return cls(values, tuple(names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ScaleVector:
    """Per-variable positive scales, tagged with the method that produced them."""

    sigma: np.ndarray
    method: str = "mad"

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("sigma must be a non-empty vector")
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise ValueError("every scale must be finite and positive")
        object.__setattr__(self, "sigma", _frozen(s))

    @property
    def p(self) -> int:
        return self.sigma.shape[0]


def load_csv(path, has_header: bool = True) -> PanelSeries:
    """Read a panel from CSV, rejecting missing, non-finite or ragged cells.

    Errors name the offending file line and column (both 1-based).
    """
    path = Path(path)
    names: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    p = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record:
                raise ValueError(f"{path}: empty record at line {lineno}")
            if lineno == 1 and has_header:
                names = tuple(s.strip() for s in record)
                p = len(names)
                continue
            if p is None:
                p = len(record)
            elif len(record) != p:
                raise ValueError(
                    f"{path}: line {lineno} has {len(record)} cells, expected {p}"
                )
            parsed = []
            for j, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse cell at line {lineno}, column {j}: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: missing or non-finite value at line {lineno}, column {j}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    if names is None:
        names = default_names(values.shape[1])
    return PanelSeries(values, names)


def write_table(path, header, rows) -> None:
    """Write a header row and ``rows`` as CSV with LF line ends, quoting cells as needed.

    Float cells get 17 significant digits; any other cell is written as it prints.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_csv(x: PanelSeries, path) -> None:
    """Write a panel with a header row and 17 significant digits per value."""
    write_table(path, x.names, x.values)


def mad_scales(x: PanelSeries) -> ScaleVector:
    """Median absolute deviation of each column, with no consistency factor.

    The raw MAD is used deliberately: no Gaussian 1.4826 rescaling is applied.
    Columns with zero MAD (constant, or majority-constant) are rejected.
    """
    med = np.median(x.values, axis=0)
    sigma = np.median(np.abs(x.values - med), axis=0)
    bad = np.flatnonzero(sigma <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"column {x.names[j]!r} (index {j + 1}) has zero median absolute deviation"
        )
    return ScaleVector(sigma, method="mad")
