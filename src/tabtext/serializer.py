"""Row-to-sentence serialization under the four representation axes.

Every function here is pure and deterministic: identical inputs always yield
byte-identical sentences, which the golden tests rely on.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .data_model import PLACEHOLDER, CellValue, ColumnSpec, Row, TableSchema


class MissingPolicy(str, Enum):
    EXCLUDE = "exclude"
    ENCODE_MISSING = "encode_missing"
    ZERO_PAD = "zero_pad"
    KEEP_ORIGINAL = "keep_original"


class CombineMode(str, Enum):
    SEPARATE = "separate"
    SINGLE_PARAGRAPH = "single_paragraph"


@dataclass(frozen=True)
class SerializationConfig:
    missing_policy: MissingPolicy = MissingPolicy.ENCODE_MISSING
    include_meta: bool = True
    descriptive: bool = False
    combine_sources: CombineMode = CombineMode.SEPARATE


def serialize_cell(
    col: ColumnSpec, cell: CellValue, config: SerializationConfig
) -> Optional[str]:
    """Render one cell as a text fragment, or None when it is excluded."""
    if cell.missing:
        if config.missing_policy is MissingPolicy.EXCLUDE:
            return None
        if config.missing_policy is MissingPolicy.ENCODE_MISSING:
            return f"{col.label} is missing"
        if config.missing_policy is MissingPolicy.ZERO_PAD:
            return f"{col.label} is 0"
        return f"{col.label} is {cell.raw}"

    if config.descriptive and col.descriptive_template is not None:
        return col.descriptive_template.replace(PLACEHOLDER, cell.raw)
    fragment = f"{col.label} is {cell.raw}"
    if col.unit:
        fragment += f" {col.unit}"
    return fragment


def serialize_row(schema: TableSchema, row: Row, config: SerializationConfig) -> str:
    """Render one row as a sentence in schema column order.

    Entity and time columns are never serialized. With meta on, the table
    title (and description, when present) prefix the sentence.
    """
    fragments = [fragment for col, cell in zip(schema.value_columns, row.cells)
                 if (fragment := serialize_cell(col, cell, config)) is not None]
    body = "; ".join(fragments) + "." if fragments else ""

    prefix = ""
    if config.include_meta and schema.meta.table_title:
        if schema.meta.description:
            prefix = f"{schema.meta.table_title}: {schema.meta.description}. "
        else:
            prefix = f"{schema.meta.table_title}: "
    if not body:
        return prefix.rstrip()
    return prefix + body

