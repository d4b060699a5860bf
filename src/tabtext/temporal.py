"""Timestamp-weighted aggregation of per-row embeddings into one vector.

Each row's weight is its timestamp, so recent observations dominate. The
default normalizes by the weight sum (a weighted average), keeping feature
scale independent of series length; the raw weighted sum is available behind
the ``normalize`` flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TemporalConfig:
    """The ``temporal`` section: whether :func:`aggregate_timed` divides by the weight sum."""

    normalize: bool = True


def aggregate_timed(
    series: Sequence[tuple[float, np.ndarray]], normalize: bool = True
) -> np.ndarray:
    """Aggregate one entity's (timestamp, embedding) pairs with timestamp weights.

    All-zero timestamps fall back to the unweighted mean (normalized) or the
    zero vector (unnormalized). Rows are summed in (timestamp, input index)
    order, so shuffling rows with tied timestamps can change the low bits.
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
    # float64 first: a float32 vector times a Python float stays float32.
    vectors = [np.asarray(series[i][1], dtype=np.float64) for i in order]
    weights = np.array([series[i][0] for i in order], dtype=np.float64)

    with np.errstate(over="raise", invalid="raise"):
        total = weights.sum()
        if total == 0.0:
            if normalize:
                return np.stack(vectors).mean(axis=0)
            return np.zeros(dim, dtype=np.float64)
        # A sequential loop, not ``weights @ vectors``: the BLAS product sums in
        # another order and changes the low bits of the features.
        out = np.zeros(dim, dtype=np.float64)
        term = np.empty(dim, dtype=np.float64)
        for weight, vector in zip(weights.tolist(), vectors):
            out += np.multiply(weight, vector, out=term)
        if normalize:
            out /= total
    return out


def aggregate_entity(
    source: str, entity_id: str, rows: Sequence[tuple[Optional[float], np.ndarray]],
    normalize: bool = True,
) -> np.ndarray:
    """Reduce one entity's rows in one source to one vector: one row without
    a timestamp passes through, and timestamped rows are reduced with
    :func:`aggregate_timed`, as ``group_rows`` and ``read_embeddings`` check."""
    if rows[0][0] is None:
        return np.asarray(rows[0][1], dtype=np.float64)
    try:
        return aggregate_timed(rows, normalize=normalize)
    except FloatingPointError as exc:
        raise ValidationError(
            f"source '{source}': the timestamp-weighted sum of entity "
            f"'{entity_id}' overflows ({exc})"
        ) from None
