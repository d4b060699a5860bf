"""Traditional tabular preprocessing: the comparison pipeline.

Numeric columns pass through with zero imputation, categorical/binary columns
are one-hot encoded with frequency capping, and time-series numeric columns
expand into six summary statistics per column. Free-text columns are dropped
here on purpose; keeping them is exactly what the text pipeline adds.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .data_model import CellValue, ColumnKind, Row, TableSchema
from .errors import StageError
from .formats import read_features, write_features

SERIES_STATS = ("mean", "min", "max", "variance", "average_change", "count")


@dataclass
class FeatureMatrix:
    """Dense per-entity feature rows with optional binary labels."""

    entity_ids: list[str]
    feature_names: list[str]
    values: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.entity_ids), len(self.feature_names)):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.entity_ids)} entities x {len(self.feature_names)} features"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.entity_ids):
                raise ValueError("labels length does not match entity count")

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the feature CSV (see tabtext.formats)."""
        write_features(path, self.entity_ids, self.feature_names, self.values, self.labels)

    @staticmethod
    def from_csv(path: Union[str, Path]) -> "FeatureMatrix":
        return FeatureMatrix(*read_features(path))


def encode_categorical(
    values: Sequence[CellValue], max_categories: int
) -> tuple[list[str], np.ndarray]:
    """One-hot encode with frequency capping.

    Keeps the max_categories most frequent present values (ties broken
    lexicographically), plus an "other" column for the remaining present
    values. Missing cells contribute all-zeros. Returns (category names
    including "other", matrix of shape (n, k+1)).
    """
    if max_categories < 1:
        raise ValueError("max_categories must be >= 1")
    counts = Counter(v.raw for v in values if not v.missing)
    kept = sorted(counts, key=lambda c: (-counts[c], c))[:max_categories]
    names = kept + ["other"]
    index = {c: i for i, c in enumerate(kept)}
    matrix = np.zeros((len(values), len(names)), dtype=np.float64)
    for row, value in enumerate(values):
        if value.missing:
            continue
        matrix[row, index.get(value.raw, len(kept))] = 1.0
    return names, matrix


def summarize_series(values: Sequence[tuple[float, float]]) -> dict[str, float]:
    """Summary statistics of one (timestamp, value) series.

    Sample variance (n-1 denominator, 0 when n <= 1); average_change is the
    endpoint slope (last - first) / (n - 1) after sorting by timestamp.
    Empty series gives all zeros.
    """
    if not values:
        return {stat: 0.0 for stat in SERIES_STATS}
    ordered = sorted(values, key=lambda pair: pair[0])
    data = np.array([v for _, v in ordered], dtype=np.float64)
    n = len(data)
    return {
        "mean": float(data.mean()),
        "min": float(data.min()),
        "max": float(data.max()),
        "variance": float(data.var(ddof=1)) if n > 1 else 0.0,
        "average_change": float((data[-1] - data[0]) / (n - 1)) if n > 1 else 0.0,
        "count": float(n),
    }


def build_baseline_features(
    sources: Sequence[tuple[str, TableSchema, Sequence[Row]]],
    entity_ids: Sequence[str],
    labels: Optional[np.ndarray] = None,
    max_categories: int = 10,
) -> FeatureMatrix:
    """Assemble the traditional feature matrix across all sources.

    ``entity_ids`` is the fixed entity universe; a time-series row whose
    entity is outside it is a consistency error. Feature names are fully
    qualified as "table.column[.stat-or-category]".
    """
    universe = list(entity_ids)
    position = {e: i for i, e in enumerate(universe)}
    names: list[str] = []
    columns: list[np.ndarray] = []

    for source, schema, rows in sources:
        is_series = schema.time_column is not None
        if is_series:
            for row in rows:
                if row.entity_id not in position:
                    raise StageError(
                        "baseline",
                        f"entity '{row.entity_id}' in time-series source "
                        f"'{source}' is not in the entity universe",
                    )
            _add_series_source(source, schema, rows, position, names, columns, max_categories)
        else:
            _add_static_source(source, schema, rows, position, names, columns, max_categories)

    values = (
        np.column_stack(columns)
        if columns
        else np.zeros((len(universe), 0), dtype=np.float64)
    )
    return FeatureMatrix(
        entity_ids=universe, feature_names=names, values=values, labels=labels
    )


def _add_static_source(source, schema, rows, position, names, columns, max_categories):
    by_entity: dict[str, Row] = {}
    for row in rows:
        if row.entity_id in by_entity:
            raise StageError(
                "baseline",
                f"static source '{source}' has multiple rows for entity "
                f"'{row.entity_id}'",
            )
        by_entity[row.entity_id] = row
    n = len(position)
    for col in schema.value_columns:
        cells = [
            by_entity[e].cells[col.name] if e in by_entity else CellValue.absent("")
            for e in position
        ]
        if col.kind is ColumnKind.NUMERIC:
            vec = np.zeros(n, dtype=np.float64)
            for i, cell in enumerate(cells):
                if not cell.missing and cell.parsed is not None:
                    vec[i] = cell.parsed
            names.append(f"{source}.{col.name}")
            columns.append(vec)
        elif col.kind in (ColumnKind.CATEGORICAL, ColumnKind.BINARY):
            cats, matrix = encode_categorical(cells, max_categories)
            for j, cat in enumerate(cats):
                names.append(f"{source}.{col.name}.{cat}")
                columns.append(matrix[:, j])
        # free_text and timestamp columns are dropped by the baseline


def _add_series_source(source, schema, rows, position, names, columns, max_categories):
    n = len(position)
    grouped: dict[str, list[Row]] = {}
    for row in rows:
        grouped.setdefault(row.entity_id, []).append(row)

    for col in schema.value_columns:
        if col.kind is ColumnKind.NUMERIC:
            stats_per_entity = np.zeros((n, len(SERIES_STATS)), dtype=np.float64)
            for entity, entity_rows in grouped.items():
                series = [
                    (row.timestamp, cell.parsed)
                    for row in entity_rows
                    for cell in [row.cells[col.name]]
                    if not cell.missing and cell.parsed is not None
                ]
                stats = summarize_series(series)
                stats_per_entity[position[entity]] = [stats[s] for s in SERIES_STATS]
            for j, stat in enumerate(SERIES_STATS):
                names.append(f"{source}.{col.name}.{stat}")
                columns.append(stats_per_entity[:, j])
        elif col.kind in (ColumnKind.CATEGORICAL, ColumnKind.BINARY):
            # categorical series: encode the most recent observation
            cells = []
            latest = {
                entity: max(entity_rows, key=lambda r: r.timestamp)
                for entity, entity_rows in grouped.items()
            }
            for entity in position:
                if entity in latest:
                    cells.append(latest[entity].cells[col.name])
                else:
                    cells.append(CellValue.absent(""))
            cats, matrix = encode_categorical(cells, max_categories)
            for j, cat in enumerate(cats):
                names.append(f"{source}.{col.name}.{cat}")
                columns.append(matrix[:, j])
