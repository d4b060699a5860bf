import warnings

import numpy as np
import pytest

from golden_fixture import golden_configs
from tabtext.baseline import FeatureMatrix, SparseRows
from tabtext.data_model import from_dict, to_dict
from tabtext.errors import ValidationError
from tabtext.evaluation import (
    GD_L2,
    GD_LR,
    SplitSpec,
    _PCG64,
    _logistic_gd,
    auroc,
    average_ranks,
    evaluate_features,
    fit_linear_classifier,
    grid_points,
    run_ablation,
    split,
)
from tabtext.serializer import CombineMode, MissingPolicy, SerializationConfig


def pairwise_auroc(scores, labels):
    """O(N^2) oracle: fraction of positive-negative pairs won, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def split_ids(entities, spec, labels=None):
    """``split`` as the two lists of entities at its train and test indices."""
    train, test = split(len(entities), spec, labels)
    return [entities[i] for i in train], [entities[i] for i in test]


class TestSplit:
    @pytest.mark.parametrize("stratified", [True, False])
    def test_indices_are_ascending_disjoint_and_cover_every_row(self, stratified):
        n = 37
        labels = [int(i % 3 == 0) for i in range(n)]
        for seed in range(5):
            train, test = split(n, SplitSpec(seed=seed, stratified=stratified), labels)
            assert len(train) == round(0.8 * n)
            for part in (train, test):
                assert part.dtype.kind == "i" and np.all(np.diff(part) > 0)
            assert sorted([*train.tolist(), *test.tolist()]) == list(range(n))

    def test_sizes(self):
        entities = [f"e{i}" for i in range(10)]
        labels = [0] * 8 + [1] * 2
        train, test = split_ids(entities, SplitSpec(seed=1), labels)
        assert len(train) == 8 and len(test) == 2

    def test_same_seed_identical(self):
        entities = [f"e{i}" for i in range(40)]
        labels = [i % 2 for i in range(40)]
        spec = SplitSpec(seed=99)
        assert split_ids(entities, spec, labels) == split_ids(entities, spec, labels)

    def test_different_seed_differs(self):
        entities = [f"e{i}" for i in range(40)]
        labels = [i % 2 for i in range(40)]
        a = split_ids(entities, SplitSpec(seed=1), labels)
        b = split_ids(entities, SplitSpec(seed=2), labels)
        assert a != b

    def test_partition_property(self):
        entities = [f"e{i}" for i in range(33)]
        labels = [i % 2 for i in range(33)]
        train, test = split_ids(entities, SplitSpec(seed=3), labels)
        assert sorted(train + test) == sorted(entities)
        assert not set(train) & set(test)

    def test_paper_scale_stratification(self):
        # 1590 entities, 121 positive: the test set gets 24 or 25 positives
        n, n_pos = 1590, 121
        entities = [f"e{i}" for i in range(n)]
        labels = [1] * n_pos + [0] * (n - n_pos)
        for seed in range(5):
            train, test = split_ids(entities, SplitSpec(seed=seed), labels)
            assert len(train) == round(0.8 * n)
            test_pos = sum(1 for e in test if int(e[1:]) < n_pos)
            assert test_pos in (24, 25)

    def test_single_class_stratified_error(self):
        with pytest.raises(ValidationError):
            split_ids(["a", "b", "c"], SplitSpec(), [1, 1, 1])

    def test_unstratified_mode(self):
        entities = [f"e{i}" for i in range(10)]
        train, test = split_ids(entities, SplitSpec(seed=0, stratified=False))
        assert len(train) == 8 and len(test) == 2

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            SplitSpec(train_fraction=1.0)


@pytest.mark.parametrize("seed", [*range(21), 2**32 - 1, 2**32, 2**64 + 3])
def test_permutation_draws_numpys_stream(seed):
    # Each size is drawn after the ones before it, from one generator.
    ours, numpys = _PCG64(seed), np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 40, 400, 1600, 2000):
        perm = ours.permutation(n)
        assert perm.dtype == np.intp
        assert perm.tolist() == numpys.permutation(n).tolist()


def brute_force_ranks(values):
    """O(N^2) oracle: 1 + values below + half of the other values tied."""
    return [
        1.0 + sum(w < v for w in values) + (sum(w == v for w in values) - 1) / 2.0
        for v in values
    ]


class TestAverageRanks:
    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = rng.integers(0, max(1, n // 3), size=n).astype(np.float64)
            np.testing.assert_array_equal(average_ranks(values), brute_force_ranks(values))

    def test_ties_and_signed_zero(self):
        values = np.array([2.0, -0.0, 2.0, 0.0, -1.0])
        np.testing.assert_array_equal(average_ranks(values), [4.5, 2.5, 4.5, 2.5, 1.0])


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.1, 0.9], [0, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
            assert auroc(scores, labels) == pytest.approx(
                pairwise_auroc(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(3.0 * scores + 2.0, labels) == base
        assert auroc(np.exp(scores), labels) == base

    def test_negation_complement_for_tie_free(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=25)  # continuous, tie-free
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0)

    def test_single_class_error(self):
        with pytest.raises(ValidationError):
            auroc([0.1, 0.2], [1, 1])


def make_matrix(X, y):
    return FeatureMatrix(
        entity_ids=[f"e{i}" for i in range(len(X))],
        feature_names=[f"f{j}" for j in range(X.shape[1])],
        values=X,
        labels=y,
    )


class TestFitLinearClassifier:
    def test_separable_toy_set(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        model = fit_linear_classifier(X, y)
        assert auroc(model.scores(X), y) == 1.0

    def test_null_features_stay_near_chance(self):
        # labels independent of features: mean test AUROC near 0.5
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(200, 5))
            y = rng.integers(0, 2, size=200)
            features = make_matrix(X, y)
            score, _, _ = evaluate_features(features, SplitSpec(seed=seed))
            scores.append(score)
        assert 0.35 <= float(np.mean(scores)) <= 0.65

    def test_zero_iterations_gives_all_ties(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = np.array([0, 1] * 15)
        w, b = _logistic_gd(X, y.astype(np.float64), 0, GD_LR, GD_L2)
        assert auroc(X @ w + b, y) == 0.5

    def test_single_class_error(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            fit_linear_classifier(X, np.zeros(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        a = fit_linear_classifier(X, y)
        b = fit_linear_classifier(X, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_constant_feature_ignored(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        model = fit_linear_classifier(X, y)
        assert model.weights[1] == 0.0


class TestEvaluateFeatures:
    # 30 negatives and 10 positives; an unstratified split from seed 0 first
    # loses class 1 from its test part at seed 4.
    @pytest.mark.parametrize(
        "fraction, stratified, part, seed",
        [(0.97, True, "test", 0), (0.03, True, "train", 0), (0.85, False, "test", 4)],
    )
    def test_split_part_without_a_class_names_train_fraction(
        self, fraction, stratified, part, seed
    ):
        X = np.random.default_rng(4).normal(size=(40, 3))
        y = np.array([0] * 30 + [1] * 10)
        spec = SplitSpec(train_fraction=fraction, stratified=stratified, repeats=5)
        message = (
            f"train_fraction {fraction} leaves no entity of class 1 in the {part} part "
            f"of the split with seed {seed}"
        )
        with pytest.raises(ValidationError, match=f"^{message}$"):
            evaluate_features(make_matrix(X, y), spec)

    @pytest.mark.parametrize(
        "stratified, expected",
        [
            (True, (0.7638888888888888, 0.05892556509887899, "3c7cd9fadc1f2a02")),
            (False, (0.7294642857142857, 0.05934646199244241, "5d33d09c407acf5a")),
        ],
    )
    def test_scores_and_split_hash_are_pinned(self, stratified, expected):
        # Recorded when split returned entity lists: the hash sorts the test
        # ids, which here are not in row order.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 2 * rng.normal(size=60) > 0.5).astype(int)
        features = FeatureMatrix(
            entity_ids=[f"e{(7 * i) % 60:02d}" for i in range(60)],
            feature_names=[f"f{j}" for j in range(5)],
            values=X,
            labels=y,
        )
        spec = SplitSpec(seed=3, stratified=stratified, repeats=2)
        assert evaluate_features(features, spec) == expected


def reference_fit(X, y, steps=500, lr=0.1, l2=1e-4):
    """Oracle: the masked fit, gradient descent over every column with each
    zero-variance column zeroed after standardizing. Returns the mean, the
    scale (0 where ignored), the weights and the scoring function."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    divisor = np.where(std > 0, std, 1.0)
    w, b = _logistic_gd((X - mean) / divisor * (std > 0), y.astype(np.float64), steps, lr, l2)
    return mean, np.where(std > 0, std, 0.0), w, lambda T: (T - mean) / divisor * (std > 0) @ w + b


CONSTANTS = [0.0, -0.0, 7.0, -3.5]


def differential_case(seed):
    """A train and a test matrix with labels, drawn from ``seed``. Some
    columns hold one of CONSTANTS on every train row; seed 0 gives an
    all-constant matrix and seed 1 a single varying column."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(12, 60)), int(rng.integers(1, 10))
    X, T = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    y, y_test = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
    y[:2] = y_test[:2] = [0, 1]
    varying = {0: 0, 1: 1}.get(seed, int(rng.integers(0, d + 1)))
    for j in rng.permutation(d)[varying:]:
        X[:, j] = CONSTANTS[rng.integers(0, len(CONSTANTS))]
    return X, y, T, y_test


class TestActiveColumnFit:
    """The fit on the varying columns alone against the masked fit."""

    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
    def test_matches_masked_fit(self, seeds):
        for seed in seeds:
            X, y, T, y_test = differential_case(seed)
            mean, scale, weights, scores = reference_fit(X, y)
            model = fit_linear_classifier(X, y)
            assert model.feature_mean.tobytes() == mean.tobytes()
            assert model.feature_scale.tobytes() == scale.tobytes()
            ignored = scale == 0
            assert model.weights.shape == weights.shape
            assert model.weights[ignored].tobytes() == np.zeros(int(ignored.sum())).tobytes()
            assert auroc(model.scores(T), y_test) == auroc(scores(T), y_test), seed
            if ignored.all():
                assert auroc(model.scores(T), y_test) == 0.5

    def test_cases_cover_constant_and_single_active_columns(self):
        scales = [reference_fit(*differential_case(seed)[:2], steps=0)[1] for seed in range(200)]
        assert not scales[0].any()
        assert np.count_nonzero(scales[1]) == 1
        held = {
            (float(v), bool(np.signbit(v)))
            for seed in range(200)
            for v in differential_case(seed)[0][0, scales[seed] == 0]
        }
        assert {(0.0, False), (0.0, True), (7.0, False), (-3.5, True)} <= held

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
    def test_fit_through_rows_matches_fit_on_a_copy_of_the_rows(self, width):
        # Widths below, at and above one block of the mean and sd pass; every
        # fourth column varies and the others hold 0.0, -0.0, 7.0 or -3.5.
        rng = np.random.default_rng(width)
        values = rng.normal(size=(150, width)) * rng.uniform(0.01, 1e3, size=width)
        for j in range(1, width):
            if j % 4:
                values[:, j] = CONSTANTS[j % 4 - 1 + (j // 4) % 2]
        train = sorted(rng.choice(150, size=110, replace=False).tolist())
        test = sorted(set(range(150)) - set(train))
        y = rng.integers(0, 2, size=110)
        y[:2] = [0, 1]
        mean, scale, _, _ = reference_fit(values[train], y, steps=0)
        active = np.flatnonzero(scale > 0)
        # The fit and the scores read a float32 column-major standardized copy.
        def standardized(part):
            return ((values[part][:, active] - mean[active]) / scale[active]).astype(
                np.float32, order="F"
            )

        weights = np.zeros(width)
        weights[active], bias = _logistic_gd(standardized(train), y.astype(np.float64),
                                             500, 0.1, 1e-4)
        scores = standardized(test) @ weights[active] + bias

        model = fit_linear_classifier(values, y, rows=train)
        assert model.feature_mean.tobytes() == mean.tobytes()
        assert model.feature_scale.tobytes() == scale.tobytes()
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias == bias
        assert model.scores(values, test).tobytes() == scores.tobytes()
        assert model.scores(values[test]).tobytes() == scores.tobytes()

    @pytest.mark.parametrize("width", [1, 64, 65, 200])
    @pytest.mark.parametrize("through_rows", [True, False])
    def test_fit_on_sparse_rows_is_the_fit_on_the_dense_array(self, width, through_rows):
        rng = np.random.default_rng(width)
        values = rng.normal(size=(150, width))
        values[rng.random(values.shape) >= 0.05] = 0.0
        values[::7, ::3] = -0.0
        keys = np.flatnonzero((values != 0) | np.signbit(values))
        sparse = SparseRows(values.shape, keys, values.reshape(-1)[keys])
        y = rng.integers(0, 2, size=150)
        y[:2] = [0, 1]
        train = np.sort(rng.choice(150, size=110, replace=False)) if through_rows else None
        test = np.setdiff1d(np.arange(150), train) if through_rows else None
        y_train = y[train] if through_rows else y
        want = fit_linear_classifier(values, y_train, train)
        got = fit_linear_classifier(sparse, y_train, train)
        for field in ("weights", "feature_mean", "feature_scale"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.bias == want.bias
        assert got.scores(sparse, test).tobytes() == want.scores(values, test).tobytes()

    def test_huge_value_in_an_ignored_column_changes_no_score(self):
        X, y, T, _ = differential_case(5)
        model = fit_linear_classifier(X, y)
        ignored = model.feature_scale == 0
        assert ignored.any() and not ignored.all()
        huge = T.copy()
        huge[:, ignored] = np.finfo(np.float64).max
        assert model.scores(huge).tobytes() == model.scores(T).tobytes()

    def test_outlying_row_overflows_no_sigmoid(self):
        # Row 0 scores near -140 at the end of the fit, past the -88.7 where
        # a float32 exp(-z) overflows.
        y = np.repeat([0, 1], 40)
        rng = np.random.default_rng(0)
        X = (2 * y - 1)[:, None] + 0.01 * rng.normal(size=(80, 400))
        X[0] = -1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit_linear_classifier(X, y)
            scores = model.scores(X)
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
        assert auroc(scores, y) == 1.0
        assert scores.min() < -100


class TestGridPoints:
    def test_sixteen_points(self):
        points = grid_points(SerializationConfig())
        assert len(points) == 16
        assert len(set(points)) == 16
        assert all(p.combine_sources is CombineMode.SEPARATE for p in points)

    def test_extended_doubles(self):
        assert len(grid_points(SerializationConfig(), extended=True)) == 32

    def test_matches_golden_order(self):
        assert grid_points(SerializationConfig()) == [config for _, config in golden_configs()]

    def test_every_point_round_trips_through_a_dict(self):
        for config in grid_points(SerializationConfig(), extended=True):
            assert from_dict(SerializationConfig, to_dict(config), "serialization") == config


def synthetic_builder(seed=0, n=120, dim=32):
    """Feature builder whose quality depends on the missing policy."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]

    def build(config: SerializationConfig) -> FeatureMatrix:
        noise = {
            MissingPolicy.EXCLUDE: 0.5,
            MissingPolicy.ENCODE_MISSING: 0.2,
            MissingPolicy.ZERO_PAD: 1.0,
            MissingPolicy.KEEP_ORIGINAL: 2.0,
        }[config.missing_policy]
        local = np.random.default_rng(seed + 1)
        X = np.outer(y, np.ones(dim)) + noise * local.normal(size=(n, dim))
        return make_matrix(X, y)

    return build


class TestRunAblation:
    def test_report_shape_and_ordering(self):
        report = run_ablation(synthetic_builder(), SplitSpec(seed=0), grid_points(SerializationConfig()))
        assert len(report.rows) == 16
        scores = [r.test_auroc for r in report.rows]
        assert scores == sorted(scores, reverse=True)

    def test_shared_split_hash(self):
        report = run_ablation(synthetic_builder(), SplitSpec(seed=0), grid_points(SerializationConfig()))
        assert len({r.split_hash for r in report.rows}) == 1

    def test_axis_means_recompute(self):
        report = run_ablation(synthetic_builder(), SplitSpec(seed=0), grid_points(SerializationConfig()))
        means = report.axis_means()
        include_rows = [
            r.test_auroc for r in report.rows if r.config.include_meta
        ]
        assert means["include_meta"]["Include"] == pytest.approx(
            float(np.mean(include_rows))
        )
        for policy, label in [
            (MissingPolicy.EXCLUDE, "Exclusion"),
            (MissingPolicy.ENCODE_MISSING, "Is missing"),
        ]:
            rows = [
                r.test_auroc for r in report.rows if r.config.missing_policy is policy
            ]
            assert means["missing_policy"][label] == pytest.approx(float(np.mean(rows)))

    def test_extended_grid(self):
        report = run_ablation(synthetic_builder(), SplitSpec(seed=0),
                              grid_points(SerializationConfig(), extended=True))
        assert len(report.rows) == 32
        assert "combine_sources" in report.axis_means()

    def test_render_has_table_columns(self):
        report = run_ablation(synthetic_builder(), SplitSpec(seed=0), grid_points(SerializationConfig()))
        text = report.render()
        for column in ("Missing Handling", "Meta Info", "Descriptiveness", "Test AUC"):
            assert column in text
