"""Split, classifier, AUROC, and the sentence-representation ablation grid."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .baseline import FeatureMatrix, Matrix, as_rows
from .data_model import to_dict
from .errors import ValidationError, stage
from .serializer import CombineMode, MissingPolicy, SerializationConfig


@dataclass(frozen=True)
class SplitSpec:
    """The ``evaluation`` section: a train/test split, repeated over seeds from ``seed``."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True
    repeats: int = 1

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(mult: int, step: int) -> Callable[[int], int]:
    """SeedSequence's hash of a 32-bit word; its multiplier moves on by ``step`` at each call."""
    def hashmix(value: int) -> int:
        nonlocal mult
        value, mult = value ^ mult, mult * step & _M32
        value = value * mult & _M32
        return value ^ value >> 16
    return hashmix


class _PCG64:
    """``np.random.default_rng(seed)``'s stream, without ``numpy.random`` (about
    2 MB a run). The seed is hashed into the 128-bit state and increment as
    ``SeedSequence(seed).generate_state(4, np.uint64)`` hashes it; each XSL-RR
    output of the LCG is two 32-bit draws, low half first, as numpy's
    ``next_uint32`` serves it. :meth:`permutation` is ``Generator.permutation``'s
    Fisher-Yates shuffle with masked rejection; its 32-bit draws reproduce numpy
    for every n up to 2**32, which covers any split this program can make."""

    def __init__(self, seed: int):
        words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(max(4, len(words))):  # the pool's words, then the seed's past 4
            for dst in (d for d in range(4) if d != src):
                word = hashmix(pool[src] if src < 4 else words[src])
                value = 0xCA01F9DD * pool[dst] - 0x4973F715 * word & _M32
                pool[dst] = value ^ value >> 16
        hashout = _hashmix(0x8B51F9DD, 0x58F38DED)  # generate_state's eight words
        seeded = sum(hashout(pool[i % 4]) << 32 * (i ^ 6) for i in range(8))
        inc = ((seeded & _M128) << 1 | 1) & _M128  # from the low 128 bits, the sequence
        # Seeding steps the LCG from 0, adds the high 128 bits, the state, and steps again.
        self._draws = self._outputs(((inc + (seeded >> 128)) * _PCG_MULT + inc) & _M128, inc)

    @staticmethod
    def _outputs(state: int, inc: int) -> Iterator[int]:
        while True:
            state = (state * _PCG_MULT + inc) & _M128
            rot, x = state >> 122, (state >> 64 ^ state) & _M64
            value = (x >> rot | x << (64 - rot)) & _M64
            yield value & _M32
            yield value >> 32

    def permutation(self, n: int) -> np.ndarray:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := next(self._draws) & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.intp)


def split(
    n: int, spec: SplitSpec, labels: Optional[Sequence[int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/test partition of the row indices ``range(n)``,
    each part in ascending order: the low bits of the fit depend on the order
    of its rows.

    Train size is round(train_fraction * N). Stratified mode preserves the
    class ratio within one entity per class (largest-remainder allocation).
    One :class:`_PCG64` of ``spec.seed`` permutes the rows, class by class.
    """
    if n < 2:
        raise ValidationError("need at least 2 entities to split")
    n_train = int(round(spec.train_fraction * n))
    rng = _PCG64(spec.seed)
    in_train = np.zeros(n, dtype=bool)
    if spec.stratified:
        if labels is None:
            raise ValidationError("stratified split requires labels")
        labels = np.asarray(labels)
        classes = sorted(set(labels.tolist()))  # np.unique would import numpy.ma
        if len(classes) < 2:
            raise ValidationError("stratified split requires both classes present")
        targets = {c: spec.train_fraction * np.sum(labels == c) for c in classes}
        take = {c: int(np.floor(targets[c])) for c in classes}
        by_remainder = sorted(classes, key=lambda c: -(targets[c] - np.floor(targets[c])))
        for c in by_remainder[: n_train - sum(take.values())]:  # never below 0
            take[c] += 1
        for c in classes:
            members = np.flatnonzero(labels == c)
            perm = rng.permutation(len(members))
            in_train[members[perm[: take[c]]]] = True
    else:
        in_train[rng.permutation(n)[:n_train]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


def split_hash(test_ids: Sequence[str]) -> str:
    """Stable digest of a test partition, for paired-comparison logging."""
    joined = "\n".join(sorted(test_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via Mann-Whitney rank summation.

    Equals the fraction of positive-negative pairs where the positive
    outscores the negative, ties counted 1/2. O(N log N).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUROC needs at least one positive and one negative")
    ranks = average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _logistic_gd(
    X: np.ndarray, y: np.ndarray, steps: int, lr: float, l2: float
) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent on the logistic loss with L2, from zero,
    in the dtype of ``X``: the weights, the bias, the labels and the step
    constants are held in that dtype, so a float32 ``X`` runs both products
    of each step in float32. The sigmoid is ``0.5 + 0.5 * tanh(z / 2)``,
    which cannot overflow at any ``z`` (float32 ``exp(-z)`` overflows below
    z = -88.7). A step allocates no array: it runs the operations of

        z = X @ w + b;  r = 0.5 + 0.5 * tanh(0.5 * z) - y
        w -= lr * (X.T @ r / n + l2 * w);  b -= lr * sum(r) / n

    in that order, in place in three buffers made once (``z`` of a row each,
    ``g`` and ``t`` of a column each). Returns the weights as float64 and the
    bias as a float."""
    real = X.dtype.type
    n, half, lr, l2 = real(X.shape[0]), real(0.5), real(lr), real(l2)
    y = y.astype(X.dtype)
    w = np.zeros(X.shape[1], dtype=X.dtype)
    b = real(0.0)
    z, g, t = np.empty(len(y), X.dtype), np.empty_like(w), np.empty_like(w)
    for _ in range(steps):
        np.matmul(X, w, out=z)
        z += b
        z *= half
        np.tanh(z, out=z)
        z *= half
        z += half
        z -= y  # z now holds r
        np.matmul(X.T, z, out=g)
        g /= n
        np.multiply(w, l2, out=t)
        g += t
        g *= lr
        w -= g
        b -= lr * (np.sum(z) / n)
    return w.astype(np.float64), float(b)


# Columns per block of the mean and sd pass and of the standardized copy,
# each of which copies one float64 block of the rows at a time (0.8 MB at
# 1,600 rows), never the whole matrix.
MOMENT_BLOCK = 64
# The classifier's gradient descent: iterations, step size and L2 weight.
GD_STEPS, GD_LR, GD_L2 = 500, 0.1, 1e-4


class _ColumnOverflow(ValidationError):
    """A column too large to standardize; :func:`evaluate_features` names it."""

    def __init__(self, column: int):
        super().__init__(f"feature column {column} overflows when standardized")
        self.column = column


@dataclass
class LinearClassifier:
    """Logistic model fit by deterministic full-batch gradient descent."""

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray  # 0 for ignored (zero-variance) features

    def scores(self, X: Matrix, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """The scores of the rows ``rows`` of ``X`` (None for every row)."""
        active, Xs = _standardize_active(X, rows, self.feature_mean, self.feature_scale)
        return Xs @ self.weights[active] + self.bias


def _standardize_active(
    X: Matrix, rows: Optional[Sequence[int]], mean: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the columns with ``scale > 0`` and a standardized copy of
    those columns of the rows ``rows`` alone; no other cell is read. Each
    block of ``MOMENT_BLOCK`` columns is standardized in float64 and written
    into a float32 column-major copy, so no float64 copy of the whole is made.
    The low bits of the GD products depend on the layout. A value that
    overflows float64 or float32 on the way raises :class:`_ColumnOverflow`."""
    active = np.flatnonzero(scale > 0)
    X = as_rows(X)
    Xs = np.empty((len(X) if rows is None else len(rows), len(active)), np.float32, order="F")
    for start in range(0, len(active), MOMENT_BLOCK):
        cols = active[start : start + MOMENT_BLOCK]
        block = X[:, cols] if rows is None else X[np.ix_(rows, cols)]
        try:
            with np.errstate(over="raise", invalid="raise"):
                block -= mean[cols]
                block /= scale[cols]
                Xs[:, start : start + len(cols)] = block
        except FloatingPointError:
            # numpy raises after the step that overflowed wrote its result.
            beyond = ~(np.abs(block) <= np.finfo(np.float32).max).all(axis=0)
            raise _ColumnOverflow(int(cols[beyond.argmax()])) from None
    return active, Xs


def _column_moments(
    X: Matrix, rows: Optional[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """``X[rows].mean(axis=0)`` and ``X[rows].std(axis=0)`` to the bit, one
    block of columns at a time. An axis-0 reduction sums each column row by
    row, but a block of one column would be summed pairwise, so a last block
    of one column joins the block before it. A column whose mean or sd
    overflows, which makes its sd inf or nan, raises :class:`_ColumnOverflow`."""
    width = X.shape[1]
    mean, std = np.empty(width), np.empty(width)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < width:
            stop = width if width - start <= MOMENT_BLOCK + 1 else start + MOMENT_BLOCK
            block = X[:, start:stop] if rows is None else X[rows, start:stop]
            mean[start:stop] = block.mean(axis=0)
            std[start:stop] = block.std(axis=0)
            start = stop
    if not np.isfinite(std).all():
        raise _ColumnOverflow(int(np.argmin(np.isfinite(std))))
    return mean, std


def fit_linear_classifier(
    X: Matrix, y: np.ndarray, rows: Optional[Sequence[int]] = None
) -> LinearClassifier:
    """Fit the built-in classifier on the training rows ``rows`` of ``X``
    (None for every row) and their 0/1 labels ``y``: zero init, then
    ``GD_STEPS`` fixed steps. ``X``, a dense array or SparseRows, is read
    in place and never copied whole.

    Features are standardized internally by train-set mean/std; gradient
    descent runs in float32 on the columns that vary, and a zero-variance
    column gets weight 0. Fully deterministic.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValidationError("cannot fit a classifier on a single class")
    X = as_rows(X)
    mean, std = _column_moments(X, rows)
    scale = np.where(std > 0, std, 0.0)
    active, Xs = _standardize_active(X, rows, mean, scale)
    w = np.zeros(X.shape[1], dtype=np.float64)
    w[active], b = _logistic_gd(Xs, y, GD_STEPS, GD_LR, GD_L2)
    return LinearClassifier(weights=w, bias=b, feature_mean=mean, feature_scale=scale)


# The ablation axes in grid order: each SerializationConfig field with its
# report column header and the report label of each of its values.
AXES: dict[str, tuple[str, dict]] = {
    "missing_policy": (
        "Missing Handling",
        {
            MissingPolicy.EXCLUDE: "Exclusion",
            MissingPolicy.ENCODE_MISSING: "Is missing",
            MissingPolicy.ZERO_PAD: "Is 0",
            MissingPolicy.KEEP_ORIGINAL: "Original",
        },
    ),
    "include_meta": ("Meta Info", {True: "Include", False: "Does not Include"}),
    "descriptive": ("Descriptiveness", {True: "Yes", False: "No"}),
    "combine_sources": (
        "Sources",
        {CombineMode.SEPARATE: "Separate", CombineMode.SINGLE_PARAGRAPH: "Single Paragraph"},
    ),
}


@dataclass(frozen=True)
class AblationRow:
    config: SerializationConfig
    test_auroc: float
    split_hash: str
    # The sd of test AUROC over the repeated splits; None for a single split.
    test_auroc_sd: Optional[float] = None


@dataclass
class AblationReport:
    """Grid results sorted by test AUROC plus per-axis aggregate means."""

    rows: list[AblationRow]

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: -r.test_auroc)

    def axis_means(self) -> dict[str, dict[str, float]]:
        """Mean test AUROC per value of each axis whose value varies across the
        rows, keyed by the axis field and the value's label, in AXES order."""
        return {
            axis: {
                label: float(
                    np.mean([r.test_auroc for r in self.rows if getattr(r.config, axis) == value])
                )
                for value, label in labels.items()
            }
            for axis, (_, labels) in AXES.items()
            if len({getattr(r.config, axis) for r in self.rows}) > 1
        }

    def render(self) -> str:
        means = self.axis_means()
        lines = [" | ".join([*(AXES[a][0] for a in means), "Test AUC"])]
        lines.append("-" * len(lines[0]))
        for row in self.rows:
            labels = [AXES[a][1][getattr(row.config, a)] for a in means]
            score = f"{row.test_auroc:.3f}"
            if row.test_auroc_sd is not None:
                score += f" +/- {row.test_auroc_sd:.3f}"
            lines.append(" | ".join([*labels, score]))
        for axis, table in means.items():
            lines.append("")
            lines.append(f"Aggregated by {axis}:")
            for value, mean in table.items():
                lines.append(f"  {value}: {mean:.3f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": [
                {**to_dict(r.config), "test_auroc": r.test_auroc, "split_hash": r.split_hash,
                 **({} if r.test_auroc_sd is None else {"test_auroc_sd": r.test_auroc_sd})}
                for r in self.rows
            ],
            "axis_means": self.axis_means(),
        }


def grid_points(base: SerializationConfig, extended: bool = False) -> list[SerializationConfig]:
    """The 16-point ablation grid: ``base`` with every axis but the last
    (source combination) filled in; the extended grid fills that in too, for 32."""
    names = list(AXES)[: None if extended else -1]
    return [
        replace(base, **dict(zip(names, values)))
        for values in product(*(AXES[name][1] for name in names))
    ]


def evaluate_features(
    features: FeatureMatrix, spec: SplitSpec
) -> tuple[float, Optional[float], str]:
    """Split, fit the built-in classifier, and score the test set, once for
    each of the ``spec.repeats`` seeds from ``spec.seed``: the mean and the
    sample sd (None for one split) of test AUROC, and the split hash of the
    first seed. A split part without both classes is a ValidationError naming
    ``train_fraction`` and the seed, and a feature too large to standardize
    one naming the feature and the seed."""
    if features.labels is None:
        raise ValidationError("evaluation requires labels")
    aurocs = []
    for seed in range(spec.seed, spec.seed + spec.repeats):
        train_idx, test_idx = split(len(features.entity_ids), replace(spec, seed=seed),
                                    features.labels)
        for part, idx in (("train", train_idx), ("test", test_idx)):
            absent = [c for c in (0, 1) if not np.any(features.labels[idx] == c)]
            if absent:
                raise ValidationError(
                    f"train_fraction {spec.train_fraction} leaves no entity of class "
                    f"{' or '.join(map(str, absent))} in the {part} part of the split "
                    f"with seed {seed}"
                )
        try:
            model = fit_linear_classifier(features.values, features.labels[train_idx], train_idx)
            scores = model.scores(features.values, test_idx)
        except _ColumnOverflow as exc:
            raise ValidationError(
                f"feature '{features.feature_names[exc.column]}' overflows when "
                f"standardized in the split with seed {seed}"
            ) from None
        aurocs.append(auroc(scores, features.labels[test_idx]))
        if seed == spec.seed:
            first_hash = split_hash([features.entity_ids[i] for i in test_idx])
    sd = float(np.std(aurocs, ddof=1)) if spec.repeats > 1 else None
    return float(np.mean(aurocs)), sd, first_hash


def run_ablation(
    feature_builder: Callable[[SerializationConfig], FeatureMatrix],
    spec: SplitSpec,
    points: Sequence[SerializationConfig],
) -> AblationReport:
    """Evaluate each grid point of ``points`` under the same ``spec.repeats`` splits.

    ``feature_builder`` maps a serialization config to the labeled feature
    matrix (serialize -> embed -> aggregate). Every point uses the same split
    seeds so AUROC differences reflect representation, not split noise; with
    more than one split each row also holds the sd of its test AUROC. Each
    point runs as the stage ``ablate {point}``, which logs its wall time.
    """
    rows = []
    for config in points:
        with stage(f"ablate {to_dict(config)}"):
            score, sd, shash = evaluate_features(feature_builder(config), spec)
        rows.append(AblationRow(config, score, shash, sd))
    return AblationReport(rows=rows)
