"""Timestamp-weighted aggregation of per-row embeddings into one vector.

Each row's weight is its timestamp, so recent observations dominate. The
default normalizes by the weight sum (a weighted average), keeping feature
scale independent of series length; the raw weighted sum is available behind
the ``normalize`` flag.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import StageError, ValidationError
from .serializer import CombineMode


class TimedEmbedding(NamedTuple):
    timestamp: float
    embedding: np.ndarray


def aggregate_timed(
    series: Sequence[tuple[float, np.ndarray]], normalize: bool = True
) -> np.ndarray:
    """Aggregate one entity's (timestamp, embedding) pairs, such as
    :class:`TimedEmbedding`, with timestamp weights.

    All-zero timestamps fall back to the unweighted mean (normalized) or the
    zero vector (unnormalized). Summation order is fixed by sorting on
    (timestamp, input index) so results are bit-reproducible under shuffling.
    A weight sum or weighted sum that overflows raises ``FloatingPointError``.
    """
    if len(series) == 0:
        raise ValueError("cannot aggregate an empty series")
    dim = len(series[0][1])
    for timestamp, embedding in series:
        if timestamp < 0:
            raise ValueError(f"negative timestamp {timestamp}")
        if len(embedding) != dim:
            raise ValueError(f"dimension mismatch: {len(embedding)} != {dim}")

    order = sorted(range(len(series)), key=lambda i: (series[i][0], i))
    vectors = np.stack([np.asarray(series[i][1], dtype=np.float64) for i in order])
    weights = np.array([series[i][0] for i in order], dtype=np.float64)

    with np.errstate(over="raise", invalid="raise"):
        total = weights.sum()
        if total == 0.0:
            if normalize:
                return vectors.mean(axis=0)
            return np.zeros(dim, dtype=np.float64)
        # A sequential loop, not ``weights @ vectors``: the BLAS product sums in
        # another order and changes the low bits of the features.
        out = np.zeros(dim, dtype=np.float64)
        for weight, vector in zip(weights, vectors):
            out += weight * vector
        if normalize:
            out = out / total
    return out


def aggregate_entity(
    per_source: Sequence[tuple[str, Sequence[tuple[Optional[float], np.ndarray]]]],
    mode: CombineMode,
    normalize: bool = True,
    entity_id: str = "",
) -> np.ndarray:
    """Reduce one entity's per-source rows to a single feature vector.

    Time-series sources (rows carry timestamps) are reduced with
    :func:`aggregate_timed`; static sources must contribute exactly one row,
    which passes through. Separate mode concatenates the per-source vectors in
    declared order; single-paragraph mode (where the texts were already merged
    upstream) averages them so the dimension stays fixed.
    """
    parts: list[np.ndarray] = []
    for source, rows in per_source:
        if len(rows) == 0:
            raise StageError("aggregate", f"source '{source}' has no rows for entity '{entity_id}'")
        timestamps = [t for t, _ in rows]
        if all(t is None for t in timestamps):
            if len(rows) > 1:
                raise StageError(
                    "aggregate",
                    f"static source '{source}' has {len(rows)} rows for "
                    f"entity '{entity_id}'; expected exactly one",
                )
            parts.append(np.asarray(rows[0][1], dtype=np.float64))
        else:
            if any(t is None for t in timestamps):
                raise StageError(
                    "aggregate",
                    f"source '{source}' mixes timestamped and static rows "
                    f"for entity '{entity_id}'",
                )
            try:
                parts.append(aggregate_timed(rows, normalize=normalize))
            except FloatingPointError as exc:
                raise ValidationError(
                    f"source '{source}': the timestamp-weighted sum of entity "
                    f"'{entity_id}' overflows ({exc})"
                ) from None

    if mode is CombineMode.SINGLE_PARAGRAPH:
        return np.stack(parts).mean(axis=0)
    return np.concatenate(parts)
