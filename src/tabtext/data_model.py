"""Schemas, cell values, and rows shared by every other module.

A table is described by a declarative :class:`TableSchema` (usually loaded from
a YAML sidecar file) and parsed from a CSV file into typed :class:`Row`
records. Missing values keep their original token verbatim so the
"keep original" serialization policy can reproduce them exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import ValidationError
from .formats import PathLike, _invalid, read_csv, read_yaml

MISSING_TOKENS = frozenset({"", "na", "nan", "null"})

PLACEHOLDER = "{value}"


class ColumnKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BINARY = "binary"
    FREE_TEXT = "free_text"
    TIMESTAMP = "timestamp"


@dataclass(frozen=True)
class ColumnSpec:
    """One column: its kind plus the text used when serializing it."""

    name: str
    kind: ColumnKind
    label: Optional[str] = None
    descriptive_template: Optional[str] = None
    unit: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("column name must be non-empty")
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        if "." in (self.label or "")[-1:]:
            raise ValidationError(f"label for '{self.name}' must not end with a period")
        if self.descriptive_template is not None:
            if self.descriptive_template.count(PLACEHOLDER) != 1:
                raise ValidationError(
                    f"descriptive_template for '{self.name}' must contain exactly "
                    f"one '{PLACEHOLDER}' placeholder"
                )


@dataclass(frozen=True)
class TableMeta:
    table_title: str = ""
    description: str = ""


@dataclass(frozen=True)
class TableSchema:
    meta: TableMeta
    columns: tuple[ColumnSpec, ...]
    entity_column: str
    time_column: Optional[str] = None
    # Columns that carry data, i.e. everything but the entity and time columns.
    value_columns: tuple[ColumnSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError("column names must be unique")
        if self.entity_column not in names:
            raise ValidationError(f"entity_column '{self.entity_column}' is not a declared column")
        if self.time_column is not None and self.time_column not in names:
            raise ValidationError(f"time_column '{self.time_column}' is not a declared column")
        n_ts = sum(1 for c in self.columns if c.kind is ColumnKind.TIMESTAMP)
        if n_ts > 1:
            raise ValidationError("at most one column may have kind 'timestamp'")
        skip = {self.entity_column, self.time_column}
        object.__setattr__(
            self, "value_columns", tuple(c for c in self.columns if c.name not in skip)
        )


@dataclass(frozen=True, slots=True)
class CellValue:
    """One cell. Missing cells keep the original token in ``raw``."""

    raw: str
    parsed: Optional[float] = None
    missing: bool = False

    @staticmethod
    def present(raw: str) -> "CellValue":
        return CellValue(raw, _parse_finite(raw), False)

    @staticmethod
    def absent(raw: str) -> "CellValue":
        return CellValue(raw, None, True)


class _CellMemo(dict):
    """Each text's cell, made on its first lookup."""

    def __missing__(self, raw: str) -> CellValue:
        missing = raw.lower() in MISSING_TOKENS
        cell = self[raw] = CellValue.absent(raw) if missing else CellValue.present(raw)
        return cell


def _parse_finite(raw: str) -> Optional[float]:
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True, slots=True)
class Row:
    entity_id: str
    cells: tuple[CellValue, ...]  # one per column of schema.value_columns, in order
    timestamp: Optional[float] = None


# What a key of a config file takes, by the type of its default.
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "a mapping"}


def read_section(doc: object, defaults: Mapping[str, object], where: str) -> dict:
    """``defaults`` updated from the mapping ``doc`` of a config file. A key
    that ``defaults`` lacks, or a value without its default's type, is a
    ValidationError naming the key: a flag takes only a boolean, an int key an
    integer that is not a boolean, a float key an int or a float, and a key
    whose default is None any value."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a mapping, not {doc!r}")
    for key, value in doc.items():
        if key not in defaults:
            raise ValidationError(f"unknown key {key!r} in {where}")
        kind = type(defaults[key])
        if defaults[key] is None or (kind is float and type(value) is int):
            continue
        if type(value) is not kind:
            raise ValidationError(f"{key!r} in {where} must be {_KINDS[kind]}, not {value!r}")
    return {**defaults, **doc}


def to_dict(section: object) -> dict:
    """The fields of the dataclass ``section`` by name, an enum as its value."""
    values = {f.name: getattr(section, f.name) for f in fields(section)}
    return {k: v.value if isinstance(v, Enum) else v for k, v in values.items()}


def from_dict(cls: type, doc: object, where: str):
    """The inverse of :func:`to_dict`: a ``cls`` from the mapping ``doc``, read
    by :func:`read_section` with a default ``cls()``'s fields as defaults, each
    value cast to its default's type but where that default is None."""
    values = read_section(doc, to_dict(cls()), where)
    try:
        return cls(**{f.name: values[f.name] if f.default is None
                      else type(f.default)(values[f.name]) for f in fields(cls)})
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


_SCHEMA_KEYS = dict.fromkeys(("meta", "columns", "entity_column", "time_column"))
_META_KEYS = {"table_title": "", "description": ""}
_COLUMN_KEYS = dict.fromkeys(("name", "kind", "label", "descriptive_template", "unit"))


def load_schema(path: PathLike) -> TableSchema:
    """Load a YAML schema sidecar file; any fault in it is a ValidationError
    naming the file."""
    doc = read_yaml(path)
    try:
        return schema_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def schema_from_dict(doc: object) -> TableSchema:
    """A schema from its YAML document. An unknown key in the document, in
    ``meta`` or in a column is a ValidationError naming the key."""
    read_section(doc, _SCHEMA_KEYS, "the schema")
    try:
        meta = TableMeta(**read_section(doc.get("meta") or {}, _META_KEYS, "meta"))
        columns = []
        for i, c in enumerate(doc["columns"]):
            spec = read_section(c, _COLUMN_KEYS, f"columns[{i}]")
            columns.append(ColumnSpec(**{**spec, "name": c["name"], "kind": ColumnKind(c["kind"])}))
        return TableSchema(
            meta=meta,
            columns=tuple(columns),
            entity_column=doc["entity_column"],
            time_column=doc.get("time_column"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed schema document: {exc}") from exc


def parse_table(path: PathLike, schema: TableSchema) -> list[Row]:
    """Parse the CSV file at ``path``, read by :func:`~tabtext.formats.read_csv`,
    into typed rows, each with a tuple of cells in ``schema.value_columns`` order.

    The header names each schema column once, and every row has a non-empty
    entity id. Fields whose lowercased value is in ``MISSING_TOKENS`` become
    missing cells that keep the original token. Numeric parsing is attempted
    for every field; ``parsed`` is set only when the value is a finite number.
    A cell is frozen and depends only on its text, so one call makes one cell
    per distinct text and shares it.
    """
    records = read_csv(path, 1)
    _, header = next(records)
    if len(set(header)) < len(header):
        raise _invalid(path, 1, f"header repeats a column name: {header}")
    for col in schema.columns:
        if col.name not in header:
            raise _invalid(path, 1, f"header is missing schema column '{col.name}'")
    at = {col.name: header.index(col.name) for col in schema.columns}
    positions = [at[col.name] for col in schema.value_columns]

    memo = _CellMemo()
    rows: list[Row] = []
    for line, record in records:
        entity_id = memo[record[at[schema.entity_column]]].raw  # one string per distinct id
        if not entity_id:
            raise _invalid(path, line, f"empty entity id in column '{schema.entity_column}'")
        timestamp = None
        if schema.time_column is not None:
            tcell = memo[record[at[schema.time_column]]]
            timestamp = tcell.parsed
            if timestamp is None or timestamp < 0:
                problem = "unparseable" if timestamp is None else "negative"
                raise _invalid(path, line, f"{problem} timestamp {tcell.raw!r} in column "
                                           f"'{schema.time_column}'")
        rows.append(Row(entity_id, tuple([memo[record[i]] for i in positions]), timestamp))
    return rows


def group_rows(
    source: str, schema: TableSchema, rows: Iterable[Row], universe: Iterable[str]
) -> dict[str, list[Row]]:
    """One source's rows by entity, each entity's in row order.

    This is the rule that tells the two kinds of source apart: a time-series
    source (its schema has a ``time_column``) may hold many rows per entity,
    but only for entities in ``universe``, the labels file's; a static source
    holds at most one row per entity. A row that breaks it is a
    ValidationError naming the source and the entity.
    """
    known = set(universe)
    is_series = schema.time_column is not None
    grouped: dict[str, list[Row]] = {}
    for row in rows:
        if is_series and row.entity_id not in known:
            raise ValidationError(
                f"entity '{row.entity_id}' in time-series source '{source}' "
                "is not in the entity universe (the labels file)"
            )
        entries = grouped.setdefault(row.entity_id, [])
        if entries and not is_series:
            raise ValidationError(
                f"static source '{source}' has multiple rows for entity "
                f"'{row.entity_id}'"
            )
        entries.append(row)
    return grouped
