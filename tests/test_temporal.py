import re

import numpy as np
import pytest

from tabtext.errors import StageError, ValidationError
from tabtext.serializer import CombineMode
from tabtext.temporal import TimedEmbedding, aggregate_entity, aggregate_timed


def brute_force_weighted_average(series, normalize):
    """Independent oracle: naive loops over Σ w_i e_i (/ Σ w_i)."""
    dim = len(series[0].embedding)
    total = 0.0
    acc = [0.0] * dim
    for item in series:
        total += item.timestamp
        for j in range(dim):
            acc[j] += item.timestamp * float(item.embedding[j])
    if normalize:
        if total == 0.0:
            return [
                sum(float(it.embedding[j]) for it in series) / len(series)
                for j in range(dim)
            ]
        return [a / total for a in acc]
    return acc


def series_of(pairs):
    return [TimedEmbedding(t, np.asarray(e, dtype=np.float64)) for t, e in pairs]


class TestAggregateTimed:
    def test_two_point_weighted_average(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = aggregate_timed(series_of([(1.0, e1), (2.0, e2)]), normalize=True)
        np.testing.assert_allclose(out, (1 * e1 + 2 * e2) / 3)

    def test_unnormalized_weighted_sum(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = aggregate_timed(series_of([(1.0, e1), (2.0, e2)]), normalize=False)
        np.testing.assert_allclose(out, 1 * e1 + 2 * e2)

    def test_single_element_identity(self):
        e = np.array([3.0, -1.0, 2.0])
        for t in (0.5, 7.0, 1e6):
            np.testing.assert_allclose(aggregate_timed(series_of([(t, e)])), e)

    def test_all_zero_timestamps_fall_back_to_mean(self):
        e1, e2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        out = aggregate_timed(series_of([(0.0, e1), (0.0, e2)]), normalize=True)
        np.testing.assert_allclose(out, (e1 + e2) / 2)

    def test_all_zero_timestamps_unnormalized_zero(self):
        out = aggregate_timed(
            series_of([(0.0, [1.0]), (0.0, [2.0])]), normalize=False
        )
        np.testing.assert_array_equal(out, [0.0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(1, 6)
            series = series_of(
                [(float(rng.uniform(0, 10)), rng.normal(size=3)) for _ in range(n)]
            )
            for normalize in (True, False):
                expected = brute_force_weighted_average(series, normalize)
                got = aggregate_timed(series, normalize=normalize)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_empty_series_error(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_timed([])

    def test_negative_timestamp_error(self):
        with pytest.raises(ValueError, match="negative"):
            aggregate_timed(series_of([(-1.0, [1.0])]))

    def test_one_huge_timestamp_stays_finite(self):
        series = series_of([(1e308, [0.5, -1.0]), (2.0, [1.0, 1.0])])
        out = aggregate_timed(series, normalize=True)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.5, -1.0])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_overflowing_weights_raise(self, normalize):
        series = series_of([(1e308, [0.5, -1.0]), (1e308, [1.0, 1.0])])
        with pytest.raises(FloatingPointError, match="overflow"):
            aggregate_timed(series, normalize=normalize)

    def test_dimension_mismatch_error(self):
        with pytest.raises(ValueError, match="dimension"):
            aggregate_timed(series_of([(1.0, [1.0]), (2.0, [1.0, 2.0])]))


class TestInvariants:
    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(7)
        series = series_of(
            [(float(rng.uniform(0, 5)), rng.normal(size=4)) for _ in range(6)]
        )
        base = aggregate_timed(series)
        for _ in range(10):
            shuffled = [series[i] for i in rng.permutation(len(series))]
            np.testing.assert_array_equal(aggregate_timed(shuffled), base)

    def test_timestamp_scale_invariance(self):
        rng = np.random.default_rng(8)
        series = series_of(
            [(float(rng.uniform(0.1, 5)), rng.normal(size=4)) for _ in range(5)]
        )
        base = aggregate_timed(series, normalize=True)
        for c in (1e-3, 7.0, 1e6):
            scaled = series_of([(it.timestamp * c, it.embedding) for it in series])
            np.testing.assert_allclose(
                aggregate_timed(scaled, normalize=True), base, rtol=1e-12
            )

    def test_convexity_coordinate_wise(self):
        rng = np.random.default_rng(9)
        series = series_of(
            [(float(rng.uniform(0, 5)), rng.normal(size=6)) for _ in range(5)]
        )
        out = aggregate_timed(series, normalize=True)
        stacked = np.stack([it.embedding for it in series])
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)

    def test_recency_dominance(self):
        rng = np.random.default_rng(10)
        others = [(float(rng.uniform(0.1, 1.0)), rng.normal(size=4)) for _ in range(4)]
        dominant = rng.normal(size=4)
        series = series_of(others + [(1e9, dominant)])
        out = aggregate_timed(series, normalize=True)
        np.testing.assert_allclose(out, dominant, atol=1e-6)


class TestAggregateEntity:
    def test_static_passthrough(self):
        vec = np.array([1.0, 2.0])
        out = aggregate_entity([("demo", [(None, vec)])], CombineMode.SEPARATE)
        np.testing.assert_array_equal(out, vec)

    def test_static_plus_series_concatenation(self):
        static = np.ones(3)
        timed = [(1.0, np.zeros(3)), (2.0, np.full(3, 3.0))]
        out = aggregate_entity(
            [("demo", [(None, static)]), ("vitals", timed)], CombineMode.SEPARATE
        )
        assert out.shape == (6,)
        np.testing.assert_array_equal(out[:3], static)
        np.testing.assert_allclose(out[3:], np.full(3, 2.0))

    def test_single_paragraph_averages_parts(self):
        out = aggregate_entity(
            [("a", [(None, np.array([2.0, 0.0]))]), ("b", [(None, np.array([0.0, 2.0]))])],
            CombineMode.SINGLE_PARAGRAPH,
        )
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_multiple_static_rows_is_error(self):
        with pytest.raises(StageError, match="expected exactly one"):
            aggregate_entity(
                [("demo", [(None, np.ones(2)), (None, np.ones(2))])],
                CombineMode.SEPARATE,
                entity_id="p1",
            )

    def test_mixed_static_and_timed_rows_is_error(self):
        with pytest.raises(StageError, match="mixes"):
            aggregate_entity(
                [("demo", [(None, np.ones(2)), (1.0, np.ones(2))])],
                CombineMode.SEPARATE,
            )

    def test_overflowing_weights_are_validation_error_naming_source_and_entity(self):
        timed = [(1e308, np.ones(2)), (1e308, np.ones(2))]
        message = (
            "source 'vitals': the timestamp-weighted sum of entity 'p1' overflows "
            "(overflow encountered in reduce)"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            aggregate_entity(
                [("demo", [(None, np.ones(2))]), ("vitals", timed)],
                CombineMode.SEPARATE,
                entity_id="p1",
            )
