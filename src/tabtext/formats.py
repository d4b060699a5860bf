"""Every input file is opened here: the data tables and the labels file,
the YAML schemas and run configs, and the files that pass between stages,
the sentence CSV (serialize -> embed), the embedding CSV (embed -> aggregate)
and the feature CSV (aggregate, baseline, compare -> eval). Each CSV is read
through :func:`read_csv`; a bad line is a ValidationError naming the file and
the line, and a file that is missing, is not a file or is not UTF-8 text is a
ValidationError naming the file. A leading UTF-8 byte order mark is dropped
from every CSV.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np
import yaml

from .errors import ValidationError

PathLike = Union[str, Path]
Timed = tuple[Optional[float], np.ndarray]
# Rows that write_float_rows formats at a time.
_BLOCK_ROWS = 256


def _invalid(path: PathLike, line: int, message: str) -> ValidationError:
    return ValidationError(f"{path} line {line}: {message}")


@contextmanager
def _reading(path: PathLike) -> Iterator[None]:
    """Turn a failure to open or decode the file at ``path`` into a
    ValidationError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None


def read_yaml(path: PathLike) -> object:
    """The YAML document in the file at ``path``."""
    with _reading(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _floats(path: PathLike, line: int, texts: Sequence[str]) -> np.ndarray:
    try:
        values = np.array([float(t) for t in texts], dtype=np.float64)
    except ValueError as exc:
        raise _invalid(path, line, str(exc)) from None
    if not np.all(np.isfinite(values)):
        raise _invalid(path, line, f"{texts[int(np.isfinite(values).argmin())]!r} is not finite")
    return values


def _label(path: PathLike, line: int, text: str) -> int:
    if text.strip() not in ("0", "1"):
        raise _invalid(path, line, f"label {text!r} is not 0 or 1")
    return int(text)


def write_sentences(path: PathLike, records: Iterable[tuple[str, Optional[float], str]]) -> None:
    """Write (entity, timestamp or None, sentence) records as a sentence CSV,
    ``entity_id,timestamp,sentence``, with an empty timestamp for a static row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("entity_id,timestamp,sentence\n")
        for entity, timestamp, sentence in records:
            stamp = "" if timestamp is None else repr(timestamp)
            handle.write(f"{_csv_field(entity)},{stamp},{_csv_field(sentence)}\n")


def _timestamp(path: PathLike, line: int, entity: str, stamp: str) -> Optional[float]:
    """A stage-file record's timestamp, None for an empty text; it is finite and not negative."""
    timestamp = float(_floats(path, line, [stamp])[0]) if stamp else None
    if timestamp is not None and timestamp < 0:
        raise _invalid(path, line, f"negative timestamp {stamp!r} of entity '{entity}'")
    return timestamp


def read_sentences(path: PathLike) -> list[tuple[str, str, str]]:
    """(entity, timestamp text or "", sentence) per record of a sentence CSV;
    its header has 3 fields, and its timestamps are read by :func:`_timestamp`."""
    records = read_csv(path, 3)
    if len(next(records)[1]) != 3:
        raise _invalid(path, 1, "expected the header entity_id,timestamp,sentence")
    sentences = []
    for line, (entity, stamp, sentence) in records:
        _timestamp(path, line, entity, stamp)
        sentences.append((entity, stamp, sentence))
    return sentences


def _csv_field(text: str) -> str:
    """One CSV field, quoted only when it holds a comma, a quote or a line
    break, as ``csv.QUOTE_MINIMAL`` does."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_float_rows(handle: TextIO, leads: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """Write one CSV line per row of ``values``, a dense array or SparseRows,
    read one block of rows at a time: the row's ``leads`` fields, then its
    values in shortest round-trip form (``repr``).

    Only non-zero and -0.0 cells are formatted, a block of rows at a time and
    each distinct value of a block once; a run of k zero cells is written as
    ``",0.0" * k``.
    """
    width = values.shape[1]
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start : start + _BLOCK_ROWS]
        rows, cols = np.nonzero(block.view(np.int64))  # the non-zero and -0.0 cells
        # np.unique holds -0.0 equal to 0.0, but -0.0 is the only zero among these cells.
        distinct, which = np.unique(block[rows, cols], return_inverse=True)
        count = len(block)
        del block  # a block of SparseRows is a dense copy: let it go before the lines are made
        texts = ["," + repr(v) for v in distinct.tolist()]
        bounds = np.searchsorted(rows, np.arange(count + 1)).tolist()
        cols, which = cols.tolist(), which.tolist()
        for i, lead in enumerate(leads[start : start + count]):
            parts = [",".join(map(_csv_field, lead))]
            done = 0
            for j in range(bounds[i], bounds[i + 1]):
                parts.append(",0.0" * (cols[j] - done))
                parts.append(texts[which[j]])
                done = cols[j] + 1
            parts.append(",0.0" * (width - done) + "\n")
            line = "".join(parts)
            handle.write(line if lead else line[1:])


def _write_csv(path: PathLike, header: Sequence[str], blocks: Iterable[tuple[list, np.ndarray]]):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(map(_csv_field, header)) + "\n")
        for leads, values in blocks:
            write_float_rows(handle, leads, values)


def read_csv(path: PathLike, min_width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) for the header of a CSV file, then for each
    non-blank record. The header needs ``min_width`` fields and each record
    as many as the header; ``line`` is the ``csv.reader`` line number. A
    record that csv cannot read is a ValidationError naming the line."""
    with _reading(path), open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if len(header) < min_width:
                raise _invalid(path, 1, f"header has {len(header)} fields, needs {min_width}")
            yield 1, header
            for fields in reader:
                if len(fields) != len(header):
                    if not fields:
                        continue
                    message = f"{len(fields)} fields, not {len(header)}"
                    raise _invalid(path, reader.line_num, message)
                yield reader.line_num, fields
        except csv.Error as exc:
            raise _invalid(path, reader.line_num, str(exc)) from None


def write_embeddings(path: PathLike, dim: int, records: Iterable[tuple[str, str, np.ndarray]]):
    """Write (entity, timestamp text, vector) records as an embedding CSV."""
    header = ["entity_id", "timestamp", *(f"e{i}" for i in range(dim))]
    _write_csv(path, header, (([(e, t)], v.reshape(1, -1)) for e, t, v in records))


def read_embeddings(path: PathLike) -> tuple[list[str], dict[str, list[Timed]]]:
    """Vector column names of an embedding CSV, and its rows per entity. An
    entity has one row without a timestamp, or rows that all have one, and no
    timestamp is negative (:func:`_timestamp`); a row that breaks this is a
    ValidationError naming its line and its entity."""
    records = read_csv(path, 2)
    _, header = next(records)
    grouped: dict[str, list[Timed]] = {}
    for line, (entity, stamp, *values) in records:
        timestamp = _timestamp(path, line, entity, stamp)
        entries = grouped.setdefault(entity, [])
        if entries and None in (timestamp, entries[0][0]):
            both = timestamp is None and entries[0][0] is None
            problem = "has two rows without" if both else "mixes rows with and without"
            raise _invalid(path, line, f"entity '{entity}' {problem} a timestamp")
        entries.append((timestamp, _floats(path, line, values)))
    return header[2:], grouped


def write_features(path: PathLike, entity_ids, feature_names, values, labels) -> None:
    """Write a feature CSV: entity_id[,label],features."""
    leads = [entity_ids] if labels is None else [entity_ids, map(str, labels.tolist())]
    header = ["entity_id", "label"][: len(leads)] + list(feature_names)
    _write_csv(path, header, [(list(zip(*leads)), values)])


def read_features(path: PathLike) -> tuple[list, list, np.ndarray, Optional[np.ndarray]]:
    """(entity ids, feature names, values, labels or None) of a feature CSV."""
    records = read_csv(path, 1)
    _, header = next(records)
    start = 2 if header[1:2] == ["label"] else 1
    # csv.reader reads lines ended by \n, \r\n or \r, and each record takes
    # one or more of them: so the matrix is filled in place, not stacked.
    with _reading(path), open(path, "rb") as handle:
        lines = sum(1 + line.count(b"\r") - line.endswith(b"\r\n") for line in handle)
    capacity = lines - 1
    values = np.empty((capacity, len(header) - start), dtype=np.float64)
    ids, labels = [], []
    for line, fields in records:
        if start == 2:
            labels.append(_label(path, line, fields[1]))
        values[len(ids)] = _floats(path, line, fields[start:])
        ids.append(fields[0])
    if len(ids) < capacity:
        values = values[: len(ids)].copy()
    return ids, header[start:], values, np.array(labels) if start == 2 else None


def load_labels(path: PathLike) -> tuple[list[str], dict[str, int]]:
    """Read the entity_id,label file; entity order is file order. It lists
    at least one entity, and every entity once, by a non-empty id, with a
    label of 0 or 1; any other line is a ValidationError that names its line
    number."""
    records = read_csv(path, 2)
    if len(next(records)[1]) != 2:
        raise _invalid(path, 1, "expected the header entity_id,label")
    labels: dict[str, int] = {}
    for line, (entity, label) in records:
        if not entity:
            raise _invalid(path, line, "empty entity id")
        if entity in labels:
            raise _invalid(path, line, f"duplicate entity '{entity}'")
        labels[entity] = _label(path, line, label)
    if not labels:
        raise ValidationError(f"{path}: lists no entity")
    return list(labels), labels
