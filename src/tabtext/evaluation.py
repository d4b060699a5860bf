"""Split, classifier, AUROC, and the sentence-representation ablation grid."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .baseline import FeatureMatrix
from .data_model import to_dict
from .errors import StageError, ValidationError
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


def split(
    entities: Sequence[str],
    spec: SplitSpec,
    labels: Optional[Sequence[int]] = None,
) -> tuple[list[str], list[str]]:
    """Deterministic train/test partition of the entity list.

    Train size is round(train_fraction * N). Stratified mode preserves the
    class ratio within one entity per class (largest-remainder allocation).
    """
    n = len(entities)
    if n < 2:
        raise ValidationError("need at least 2 entities to split")
    n_train = int(round(spec.train_fraction * n))
    rng = np.random.default_rng(spec.seed)

    if spec.stratified:
        if labels is None:
            raise ValidationError("stratified split requires labels")
        labels = np.asarray(labels)
        classes = np.unique(labels)
        if len(classes) < 2:
            raise ValidationError("stratified split requires both classes present")
        targets = {c: spec.train_fraction * np.sum(labels == c) for c in classes}
        take = {c: int(np.floor(targets[c])) for c in classes}
        leftover = n_train - sum(take.values())
        for c in sorted(classes, key=lambda c: -(targets[c] - np.floor(targets[c]))):
            if leftover <= 0:
                break
            take[c] += 1
            leftover -= 1
        train_idx: list[int] = []
        for c in classes:
            members = np.flatnonzero(labels == c)
            perm = rng.permutation(len(members))
            train_idx.extend(members[perm[: take[c]]])
    else:
        perm = rng.permutation(n)
        train_idx = list(perm[:n_train])

    train_set = set(train_idx)
    train = [entities[i] for i in range(n) if i in train_set]
    test = [entities[i] for i in range(n) if i not in train_set]
    return train, test


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
    n, d = X.shape
    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    for _ in range(steps):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        r = p - y
        grad_w = X.T @ r / n + l2 * w
        grad_b = np.sum(r) / n
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


@dataclass
class LinearClassifier:
    """Logistic model fit by deterministic full-batch gradient descent."""

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray  # 0 for ignored (zero-variance) features

    def scores(self, X: np.ndarray) -> np.ndarray:
        active, Xs = _standardize_active(X, self.feature_mean, self.feature_scale)
        return Xs @ self.weights[active] + self.bias


def _standardize_active(
    X: np.ndarray, mean: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the columns with ``scale > 0`` and a standardized copy of
    those columns alone; the other columns are never read."""
    active = np.flatnonzero(scale > 0)
    Xs = np.asarray(X, dtype=np.float64)[:, active]
    Xs -= mean[active]
    Xs /= scale[active]
    return active, Xs


def fit_linear_classifier(
    train: FeatureMatrix,
    *,
    steps: int = 500,
    lr: float = 0.1,
    l2: float = 1e-4,
) -> LinearClassifier:
    """Fit the built-in classifier: zero init, fixed step, L2, 500 iterations.

    Features are standardized internally by train-set mean/std; gradient
    descent runs on the columns that vary, and a zero-variance column gets
    weight 0. Fully deterministic.
    """
    if train.labels is None:
        raise ValidationError("training requires labels")
    y = np.asarray(train.labels, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise ValidationError("cannot fit a classifier on a single class")
    X = np.asarray(train.values, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 0, std, 0.0)
    active, Xs = _standardize_active(X, mean, scale)
    w = np.zeros(X.shape[1], dtype=np.float64)
    w[active], b = _logistic_gd(Xs, y, steps, lr, l2)
    return LinearClassifier(weights=w, bias=float(b), feature_mean=mean, feature_scale=scale)


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


def grid_points(extended: bool = False) -> list[SerializationConfig]:
    """The 16-point ablation grid over every axis but the last (source
    combination), which keeps its default; the extended grid adds it, for 32."""
    names = list(AXES)[: None if extended else -1]
    return [
        SerializationConfig(**dict(zip(names, values)))
        for values in product(*(AXES[name][1] for name in names))
    ]


def evaluate_features(
    features: FeatureMatrix, spec: SplitSpec
) -> tuple[float, Optional[float], str]:
    """Split, fit the built-in classifier, and score the test set, once for
    each of the ``spec.repeats`` seeds from ``spec.seed``: the mean and the
    sample sd (None for one split) of test AUROC, and the split hash of the
    first seed. A split part without both classes is a ValidationError naming
    ``train_fraction`` and the seed."""
    if features.labels is None:
        raise ValidationError("evaluation requires labels")
    pos = {e: i for i, e in enumerate(features.entity_ids)}
    aurocs = []
    for seed in range(spec.seed, spec.seed + spec.repeats):
        train_ids, test_ids = split(features.entity_ids, replace(spec, seed=seed), features.labels)
        train_idx = [pos[e] for e in train_ids]
        test_idx = [pos[e] for e in test_ids]
        for part, idx in (("train", train_idx), ("test", test_idx)):
            absent = [c for c in (0, 1) if not np.any(features.labels[idx] == c)]
            if absent:
                raise ValidationError(
                    f"train_fraction {spec.train_fraction} leaves no entity of class "
                    f"{' or '.join(map(str, absent))} in the {part} part of the split "
                    f"with seed {seed}"
                )
        train = FeatureMatrix(
            entity_ids=train_ids,
            feature_names=features.feature_names,
            values=features.values[train_idx],
            labels=features.labels[train_idx],
        )
        model = fit_linear_classifier(train)
        scores = model.scores(features.values[test_idx])
        aurocs.append(auroc(scores, features.labels[test_idx]))
        if seed == spec.seed:
            first_hash = split_hash(test_ids)
    sd = float(np.std(aurocs, ddof=1)) if spec.repeats > 1 else None
    return float(np.mean(aurocs)), sd, first_hash


def run_ablation(
    feature_builder: Callable[[SerializationConfig], FeatureMatrix],
    spec: SplitSpec,
    extended: bool = False,
) -> AblationReport:
    """Evaluate every grid point under the same ``spec.repeats`` seeded splits.

    ``feature_builder`` maps a serialization config to the labeled feature
    matrix (serialize -> embed -> aggregate). Every point uses the same split
    seeds so AUROC differences reflect representation, not split noise; with
    more than one split each row also holds the sd of its test AUROC.
    """
    rows = []
    for config in grid_points(extended):
        try:
            features = feature_builder(config)
            score, sd, shash = evaluate_features(features, spec)
        except (StageError, ValidationError):
            raise
        except Exception as exc:
            raise StageError("ablate", f"grid point {to_dict(config)} failed: {exc}") from exc
        rows.append(AblationRow(config, score, shash, sd))
    return AblationReport(rows=rows)
