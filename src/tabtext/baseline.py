"""Traditional tabular preprocessing: the comparison pipeline.

Numeric columns pass through with zero imputation, categorical/binary columns
are one-hot encoded with frequency capping, and time-series numeric columns
expand into six summary statistics per column. Free-text columns are dropped
here on purpose; keeping them is exactly what the text pipeline adds.

Both pipelines' output is a :class:`FeatureMatrix`, whose values are a dense
array or, for a matrix that is mostly zeros, :class:`SparseRows`, the layout
:func:`assemble_rows` picks for the TabText matrix as it is built.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .data_model import CellValue, ColumnKind, Row, TableSchema
from .errors import ValidationError
from .formats import read_features, write_features

SERIES_STATS = ("mean", "min", "max", "variance", "average_change", "count")
# Rows that assemble_rows fills at a time: an eighth of the matrix, kept
# within these bounds.
BUILD_ROWS = (32, 256)


@dataclass(frozen=True)
class BaselineConfig:
    """The ``baseline`` section: the categories a column keeps before "other"."""

    max_categories: int = 10

    def __post_init__(self):
        if self.max_categories < 1:
            raise ValidationError("max_categories must be >= 1")


class SparseRows:
    """A float64 matrix of ``shape`` held as its non-zero and -0.0 cells, in
    row order with columns ascending: ``keys[k]`` is the flat position
    ``row * width + column`` of the cell that holds ``cells[k]``, so
    ``keys`` ascends.

    It is read by a key of rows, or of rows and columns, as a numpy array
    is read, except that columns must ascend and two 1-D index arrays are
    not paired: either raises IndexError, and ``np.ix_`` of the two reads
    their outer product, as it does from numpy. Rows and columns are each
    an int, a slice or an array of indices. Each read is a new C-ordered
    dense array of the cells it selects, with the shape numpy gives the
    key, so a read makes the whole matrix dense only when its key selects
    the whole."""

    def __init__(self, shape: tuple[int, int], keys: np.ndarray, cells: np.ndarray):
        self.shape, self.keys, self.cells = shape, keys, cells

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        if np.ndim(rows) == np.ndim(cols) == 1:
            raise IndexError("SparseRows does not pair two index arrays: read np.ix_ of them")
        rows, cols = np.arange(self.shape[0])[rows], np.arange(self.shape[1])[cols]
        shape = rows.shape[:1] + cols.shape[-1:]
        rows, cols = rows.reshape(-1), cols.reshape(-1)
        if (cols[1:] <= cols[:-1]).any():
            raise IndexError("SparseRows reads columns in ascending order only")
        out = np.zeros(len(rows) * len(cols))
        if out.size:
            # Each row's cells in the columns cols[0]..cols[-1] are one run of keys.
            span = cols[-1] + 1 - cols[0]
            first = rows * self.shape[1] + cols[0]
            lo = np.searchsorted(self.keys, first)
            counts = np.searchsorted(self.keys, first + span) - lo
            at = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
            column = self.keys[at] - np.repeat(first, counts)
            row = np.repeat(np.arange(len(rows)) * len(cols), counts)
            if len(cols) < span:  # not every column of the run is read
                index = np.full(span, -1)
                index[cols - cols[0]] = np.arange(len(cols))
                column = index[column]
                read = column >= 0
                at, row, column = at[read], row[read], column[read]
            out[row + column] = self.cells[at]
        return out.reshape(shape)


Matrix = Union[np.ndarray, SparseRows]


def as_rows(values) -> Matrix:
    """``values`` as a float64 matrix: a :class:`SparseRows` as it is, and
    anything else through ``np.asarray``."""
    return values if isinstance(values, SparseRows) else np.asarray(values, dtype=np.float64)


def assemble_rows(
    n: int, width: int, fill: Callable[[int, np.ndarray], None]
) -> Matrix:
    """The ``(n, width)`` float64 matrix that ``fill(start, block)`` writes
    into zeroed rows ``block``, rows ``start`` on; ``fill`` keeps no view
    of ``block``, or the build raises numpy's ValueError.

    The matrix is filled one block of an eighth of its rows (within
    ``BUILD_ROWS``) at a time in one buffer, and the non-zero and -0.0
    cells of each block are kept as SparseRows. When more than a quarter of
    the cells so far are kept, so that they would take half the bytes of a
    dense copy, the buffer is grown in place into the dense matrix: the
    block moves to its rows, the cells kept so far are written back, and
    the rows left are filled in place. So dense rows cost what a dense
    array costs, and the cells kept before them.
    """
    step = min(max(-(-n // 8), BUILD_ROWS[0]), BUILD_ROWS[1])
    buffer = np.zeros((min(step, n), width))
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    kept = 0
    for start in range(0, n, step):
        count = min(step, n - start)
        fill(start, buffer[:count])
        # The int64 view is not 0 exactly where a cell is non-zero or -0.0.
        at = np.flatnonzero(buffer[:count].view(np.int64))
        kept += len(at)
        if 4 * kept > (start + count) * width:
            del at
            # resize may realloc the buffer, so it checks that no view of it
            # is left; it zeroes the new rows.
            buffer.resize((n, width))
            if start:  # move the block to its rows, which lie past it, and zero its old rows
                buffer[start : start + count] = buffer[:count]
                buffer[:count] = 0.0
            for keys, cells in parts:
                buffer.reshape(-1)[keys] = cells
            del parts
            fill(start + count, buffer[start + count :])
            return buffer
        parts.append((at + start * width, buffer.reshape(-1)[at]))
        buffer.reshape(-1)[at] = 0.0  # every other cell is 0.0 already
    buffer = at = None
    keys = np.concatenate([keys for keys, _ in parts] or [np.zeros(0, np.intp)])
    cells = np.concatenate([cells for _, cells in parts] or [np.zeros(0)])
    return SparseRows((n, width), keys, cells)


@dataclass
class FeatureMatrix:
    """Per-entity feature rows, a dense array or :class:`SparseRows`, with
    optional binary labels."""

    entity_ids: list[str]
    feature_names: list[str]
    values: Matrix
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = as_rows(self.values)
        if self.values.shape != (len(self.entity_ids), len(self.feature_names)):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.entity_ids)} entities x {len(self.feature_names)} features"
            )
        # min() and max() are nan if any cell is nan, so both are finite
        # exactly when every cell is, and neither makes a full-size temporary.
        held = self.values.cells if isinstance(self.values, SparseRows) else self.values
        if held.size and not (np.isfinite(held.min()) and np.isfinite(held.max())):
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
    """Summary statistics of one (timestamp, value) series: the one-series
    case of :func:`series_statistics`, after a stable sort by timestamp."""
    ordered = [v for _, v in sorted(values, key=itemgetter(0))]
    return dict(zip(SERIES_STATS, series_statistics([ordered])[0].tolist()))


def series_statistics(series: Sequence[Sequence[float]]) -> np.ndarray:
    """SERIES_STATS of each series of values in time order, one row each.

    Sample variance (n-1 denominator, 0 when n <= 1); average_change is the
    endpoint slope (last - first) / (n - 1). An empty series gives all zeros.
    A statistic that overflows raises ``FloatingPointError``.

    The series of each length n are stacked into one C-contiguous (k, n)
    array and reduced along its last axis. numpy reduces each row of such an
    array exactly as it reduces the row alone, so every row's bits are those
    of the same statistics of its series computed on its own.
    """
    out = np.zeros((len(series), len(SERIES_STATS)), dtype=np.float64)
    by_length: dict[int, list[int]] = {}
    for i, values in enumerate(series):
        by_length.setdefault(len(values), []).append(i)
    by_length.pop(0, None)
    for n, index in by_length.items():
        data = np.array([series[i] for i in index], dtype=np.float64)
        with np.errstate(over="raise", invalid="raise"):
            out[index, 0] = data.mean(axis=1)
            out[index, 1] = data.min(axis=1)
            out[index, 2] = data.max(axis=1)
            if n > 1:
                out[index, 3] = data.var(axis=1, ddof=1)
                out[index, 4] = (data[:, -1] - data[:, 0]) / (n - 1)
        out[index, 5] = n
    return out


def build_baseline_features(
    sources: Sequence[tuple[str, TableSchema, Mapping[str, Sequence[Row]]]],
    entity_ids: Sequence[str],
    labels: Optional[Mapping[str, int]] = None,
    max_categories: int = 10,
) -> FeatureMatrix:
    """Assemble the traditional feature matrix across all sources.

    ``entity_ids`` is the entity universe and ``labels`` maps each entity to
    its label; each source comes with its rows by entity, as
    :func:`~tabtext.pipeline.load_inputs` groups them. A numeric
    column of a time-series source expands into SERIES_STATS. Every other
    column reads each entity's latest row (the first on tied timestamps; a
    static source's only row), and an entity without one reads a missing cell.
    Feature names are fully qualified as "table.column[.stat-or-category]".
    """
    universe = list(entity_ids)
    names: list[str] = []
    columns: list[np.ndarray] = []

    for source, schema, grouped in sources:
        per_entity = [grouped.get(e, []) for e in universe]
        latest = [max(r, key=lambda row: row.timestamp) if r else None for r in per_entity]
        if schema.time_column is not None:
            ordered = [sorted(r, key=attrgetter("timestamp")) for r in per_entity]
        for j, col in enumerate(schema.value_columns):
            if col.kind is ColumnKind.NUMERIC and schema.time_column is not None:
                series = [[value for row in entity_rows
                           if (value := _number(row.cells[j])) is not None]
                          for entity_rows in ordered]
                names.extend(f"{source}.{col.name}.{stat}" for stat in SERIES_STATS)
                columns.extend(_column_statistics(source, col.name, universe, series).T)
                continue
            cells = [CellValue.absent("") if row is None else row.cells[j] for row in latest]
            if col.kind is ColumnKind.NUMERIC:
                names.append(f"{source}.{col.name}")
                columns.append(np.array([_number(cell, 0.0) for cell in cells]))
            elif col.kind in (ColumnKind.CATEGORICAL, ColumnKind.BINARY):
                cats, matrix = encode_categorical(cells, max_categories)
                names.extend(f"{source}.{col.name}.{cat}" for cat in cats)
                columns.extend(matrix.T)
            # free_text and timestamp columns are dropped by the baseline

    values = np.column_stack(columns) if columns else np.zeros((len(universe), 0))
    return FeatureMatrix(
        entity_ids=universe,
        feature_names=names,
        values=values,
        labels=[labels[e] for e in universe] if labels else None,
    )


def _column_statistics(
    source: str, column: str, universe: Sequence[str], series: Sequence[Sequence[float]]
) -> np.ndarray:
    """:func:`series_statistics` of one column's series, one per entity of
    ``universe``. An overflow is a ValidationError naming the first entity
    whose series overflows on its own."""
    try:
        return series_statistics(series)
    except FloatingPointError:
        for entity, values in zip(universe, series):
            try:
                series_statistics([values])
            except FloatingPointError as exc:
                raise ValidationError(
                    f"source '{source}': a statistic of column '{column}' of "
                    f"entity '{entity}' overflows ({exc})"
                ) from None
        raise  # unreachable: a stacked row overflows only where the series does


def _number(cell: CellValue, default: Optional[float] = None) -> Optional[float]:
    """The cell's finite value, or ``default`` when it is missing or no number."""
    return default if cell.missing or cell.parsed is None else cell.parsed
