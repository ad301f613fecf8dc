"""Mapping mixed-type data tables onto the unit cube and back.

Continuous columns are quantile-binned: the empirical support is inflated
by one percent on each side, split at the 1/B .. (B-1)/B quantiles, and a
value maps to the midpoint (2k-1)/(2B) of its bin, so encoded marginals
are uniform over the B midpoints.  A categorical column with k levels
occupies k-1 coordinates, each 1/4 except the coordinate of the observed
non-reference level, which is 3/4.  Decoding draws continuous values
uniformly within the bin containing the coordinate, so it stays total for
off-grid points such as predictive samples.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .segmentation import _bin, _check_count, as_points

__all__ = [
    "ColumnSchema",
    "ContinuousCoding",
    "CategoricalCoding",
    "EncodingSpec",
    "read_schema",
    "read_table",
    "fit_encoding",
    "encode",
    "decode",
]


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # "continuous" | "categorical"
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical" and (not self.levels or len(self.levels) < 2):
            raise ValueError(f"categorical column {self.name!r} needs >= 2 levels")
        if self.kind == "categorical" and len(set(self.levels)) < len(self.levels):
            raise ValueError(f"categorical column {self.name!r} repeats a level in {self.levels}")


@dataclass(frozen=True, eq=False)
class ContinuousCoding:
    name: str
    coord: int  # 1-based cube coordinate
    edges: np.ndarray  # B+1 strictly increasing bin edges, support already inflated


@dataclass(frozen=True)
class CategoricalCoding:
    name: str
    levels: tuple[str, ...]
    coords: tuple[int, ...]  # one 1-based coordinate per non-reference level


@dataclass(frozen=True, eq=False)
class EncodingSpec:
    continuous: tuple[ContinuousCoding, ...]
    categorical: tuple[CategoricalCoding, ...]
    bins: int

    @property
    def ndim(self) -> int:
        return len(self.continuous) + sum(len(c.coords) for c in self.categorical)

    def to_json_obj(self) -> dict:
        return {
            "bins": self.bins,
            "continuous": [
                {"name": c.name, "coord": c.coord, "edges": c.edges.tolist()}
                for c in self.continuous
            ],
            "categorical": [
                {"name": c.name, "levels": list(c.levels), "coords": list(c.coords)}
                for c in self.categorical
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "EncodingSpec":
        cont = tuple(
            ContinuousCoding(c["name"], int(c["coord"]), np.asarray(c["edges"], dtype=np.float64))
            for c in obj["continuous"]
        )
        cat = tuple(
            CategoricalCoding(c["name"], tuple(c["levels"]), tuple(int(x) for x in c["coords"]))
            for c in obj["categorical"]
        )
        return cls(cont, cat, int(obj["bins"]))


def read_schema(path) -> tuple[ColumnSchema, ...]:
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return tuple(
            ColumnSchema(c["name"], c["kind"], tuple(c["levels"]) if c.get("levels") else None)
            for c in obj["columns"]
        )
    except KeyError as missing:
        raise ValueError(f"schema {path} has no {missing.args[0]!r}") from None


def read_table(path, schema: Sequence[ColumnSchema]) -> dict[str, np.ndarray]:
    """Load a CSV with a header row into per-column arrays typed by the schema."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        rows = list(reader)
    for number, row in enumerate(rows, 1):
        if None in row:  # csv files the fields past the header under the key None
            raise ValueError(f"data row {number} of {path} has more fields than the header")
    table: dict[str, np.ndarray] = {}
    for col in schema:
        if rows and col.name not in rows[0]:
            raise ValueError(f"column {col.name!r} missing from {path}")
        raw = [r[col.name] for r in rows]
        if None in raw:  # csv fills the fields a short row lacks with None
            raise ValueError(f"column {col.name!r} has no value in data row {raw.index(None) + 1} of {path}")
        if col.kind == "continuous":
            table[col.name] = np.array([float(v) for v in raw])
        else:
            table[col.name] = np.array(raw, dtype=object)
    return table


def fit_encoding(
    table: Mapping[str, np.ndarray], schema: Sequence[ColumnSchema], bins: int = 16
) -> EncodingSpec:
    """Fit quantile-bin edges and dummy coordinates from a data table.

    Continuous columns take coordinates 1..n_cont in schema order, then
    each categorical column claims one coordinate per non-reference level.
    """
    _check_count("bins", bins, 2)
    if bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")
    cont: list[ContinuousCoding] = []
    cat: list[CategoricalCoding] = []
    coord = 1
    for col in schema:
        if col.kind != "continuous":
            continue
        values = np.asarray(table[col.name], dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"column {col.name!r} has non-finite values")
        if np.unique(values).size < bins:
            raise ValueError(
                f"column {col.name!r} has fewer than {bins} distinct values"
            )
        edges = np.quantile(values, np.arange(bins + 1) / bins)
        pad = (edges[-1] - edges[0]) / 100.0
        edges[0] -= pad
        edges[-1] += pad
        if np.any(np.diff(edges) <= 0):
            raise ValueError(
                f"column {col.name!r} produced ties among its quantile edges"
            )
        cont.append(ContinuousCoding(col.name, coord, edges))
        coord += 1
    for col in schema:
        if col.kind != "categorical":
            continue
        observed = set(np.asarray(table[col.name], dtype=object).tolist())
        unknown = observed - set(col.levels)
        if unknown:
            raise ValueError(f"unknown level(s) {sorted(unknown)} in column {col.name!r}")
        n_dummies = len(col.levels) - 1
        cat.append(CategoricalCoding(col.name, col.levels, tuple(range(coord, coord + n_dummies))))
        coord += n_dummies
    if coord == 1:
        raise ValueError("schema has no codable columns")
    return EncodingSpec(tuple(cont), tuple(cat), bins)


def encode(table: Mapping[str, np.ndarray], spec: EncodingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Map a table into [0,1]^P.

    Returns (points, clamped) where clamped flags rows with a continuous
    value outside the inflated support, +-inf included; such values are
    clamped into the boundary bin rather than rejected.  NaN is rejected.
    """
    sizes = {len(np.asarray(table[c.name])) for c in spec.continuous}
    sizes |= {len(np.asarray(table[c.name])) for c in spec.categorical}
    if len(sizes) != 1:
        raise ValueError("table columns have inconsistent lengths")
    n = sizes.pop()
    B = spec.bins
    out = np.empty((n, spec.ndim))
    clamped = np.zeros(n, dtype=bool)
    for c in spec.continuous:
        v = np.asarray(table[c.name], dtype=np.float64)
        if np.any(np.isnan(v)):
            raise ValueError(f"column {c.name!r} has NaN values")
        clamped |= (v < c.edges[0]) | (v > c.edges[-1])
        idx = np.searchsorted(c.edges, v, side="right") - 1
        np.clip(idx, 0, B - 1, out=idx)
        out[:, c.coord - 1] = (2 * idx + 1) / (2.0 * B)
    for c in spec.categorical:
        v = np.asarray(table[c.name], dtype=object)
        for coord in c.coords:
            out[:, coord - 1] = 0.25
        for i, level in enumerate(c.levels[1:]):
            out[v == level, c.coords[i] - 1] = 0.75
        known = np.isin(v, np.array(c.levels, dtype=object))
        if not known.all():
            bad = sorted(set(v[~known].tolist()))
            raise ValueError(f"unknown level(s) {bad} in column {c.name!r}")
    return out, clamped


def decode(points: np.ndarray, spec: EncodingSpec, rng=None) -> dict[str, np.ndarray]:
    """Map cube points back to a raw table.

    Continuous coordinates draw uniformly within the bin containing the
    coordinate (any value in [0,1] is accepted, not just bin midpoints).
    A categorical is the level of its single high dummy, or the reference
    level when none is high; two high dummies cannot name a level and
    raise.
    """
    gen = np.random.default_rng(rng)  # a Generator comes back unaltered
    pts = as_points(points, spec.ndim)
    n = pts.shape[0]
    B = spec.bins
    table: dict[str, np.ndarray] = {}
    for c in spec.continuous:
        u = pts[:, c.coord - 1]
        idx = _bin(u, B)
        lo, hi = c.edges[idx], c.edges[idx + 1]
        table[c.name] = lo + gen.uniform(size=n) * (hi - lo)
    for c in spec.categorical:
        high = pts[:, [coord - 1 for coord in c.coords]] >= 0.5
        n_high = high.sum(axis=1)
        if np.any(n_high > 1):
            raise ValueError(
                f"column {c.name!r}: more than one high dummy does not name a level"
            )
        values = np.full(n, c.levels[0], dtype=object)
        for i, level in enumerate(c.levels[1:]):
            values[high[:, i]] = level
        table[c.name] = values
    return table
