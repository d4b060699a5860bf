import io

import numpy as np
import pytest

from tabtext.baseline import (
    BUILD_ROWS,
    FeatureMatrix,
    SERIES_STATS,
    SparseRows,
    assemble_rows,
    build_baseline_features,
    encode_categorical,
    summarize_series,
)
from tabtext.data_model import (
    CellValue,
    ColumnKind,
    ColumnSpec,
    TableMeta,
    TableSchema,
    group_rows,
)
from tabtext.errors import ValidationError
from tabtext.formats import _BLOCK_ROWS

from test_pipeline import load


def cells(*raws):
    return [CellValue.absent("") if r is None else CellValue.present(r) for r in raws]


class TestEncodeCategorical:
    def test_frequency_capping_with_lexicographic_ties(self):
        names, matrix = encode_categorical(cells("A", "B", "A", "C"), max_categories=2)
        assert names == ["A", "B", "other"]
        # row "C" lands in other
        np.testing.assert_array_equal(matrix[3], [0, 0, 1])
        np.testing.assert_array_equal(matrix[0], [1, 0, 0])

    def test_all_missing_gives_all_zero(self):
        names, matrix = encode_categorical(cells(None, None), max_categories=3)
        assert names == ["other"]
        assert matrix.sum() == 0

    def test_no_capping_when_categories_fit(self):
        names, matrix = encode_categorical(cells("x", "y", "z"), max_categories=3)
        assert names == ["x", "y", "z", "other"]
        assert matrix[:, -1].sum() == 0

    def test_invalid_max_categories(self):
        with pytest.raises(ValueError):
            encode_categorical(cells("a"), max_categories=0)


def naive_summary(pairs):
    """Independent two-pass oracle with plain loops."""
    if not pairs:
        return {s: 0.0 for s in SERIES_STATS}
    ordered = sorted(pairs, key=lambda p: p[0])
    vals = [v for _, v in ordered]
    n = len(vals)
    mean = sum(vals) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
        change = (vals[-1] - vals[0]) / (n - 1)
    else:
        var = 0.0
        change = 0.0
    return {
        "mean": mean,
        "min": min(vals),
        "max": max(vals),
        "variance": var,
        "average_change": change,
        "count": float(n),
    }


class TestSummarizeSeries:
    def test_simple_arithmetic(self):
        stats = summarize_series([(1, 1.0), (2, 2.0), (3, 3.0)])
        assert stats == {
            "mean": 2.0,
            "min": 1.0,
            "max": 3.0,
            "variance": 1.0,
            "average_change": 1.0,
            "count": 3.0,
        }

    def test_singleton(self):
        stats = summarize_series([(5, 7.0)])
        assert stats == {
            "mean": 7.0,
            "min": 7.0,
            "max": 7.0,
            "variance": 0.0,
            "average_change": 0.0,
            "count": 1.0,
        }

    def test_empty(self):
        assert summarize_series([]) == {s: 0.0 for s in SERIES_STATS}

    def test_sorted_by_timestamp_before_slope(self):
        # same values, shuffled timestamps: slope uses time order
        stats = summarize_series([(3, 9.0), (1, 1.0), (2, 4.0)])
        assert stats["average_change"] == (9.0 - 1.0) / 2

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 21))
            pairs = [
                (float(rng.uniform(0, 10)), float(rng.normal())) for _ in range(n)
            ]
            got = summarize_series(pairs)
            expected = naive_summary(pairs)
            for stat in SERIES_STATS:
                assert got[stat] == pytest.approx(expected[stat], abs=1e-10)


STATIC_SCHEMA = TableSchema(
    meta=TableMeta(table_title="Demo"),
    columns=(
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="age", kind=ColumnKind.NUMERIC),
        ColumnSpec(name="height", kind=ColumnKind.NUMERIC),
        ColumnSpec(name="weight", kind=ColumnKind.NUMERIC),
        ColumnSpec(name="color", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="note", kind=ColumnKind.FREE_TEXT),
    ),
    entity_column="id",
)

SERIES_SCHEMA = TableSchema(
    meta=TableMeta(table_title="Vitals"),
    columns=(
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="t", kind=ColumnKind.TIMESTAMP),
        ColumnSpec(name="hr", kind=ColumnKind.NUMERIC),
    ),
    entity_column="id",
    time_column="t",
)


@pytest.fixture
def sources(parse_text):
    static_rows = parse_text(
        "id,age,height,weight,color,note\n"
        "p1,50,170,70,red,hello\n"
        "p2,NaN,180,80,blue,world\n"
        "p3,61,175,NaN,red,\n",
        STATIC_SCHEMA,
    )
    series_rows = parse_text(
        "id,t,hr\np1,1,60\np1,2,62\np2,1,70\n",
        SERIES_SCHEMA,
    )
    return [
        by_entity("demo", STATIC_SCHEMA, static_rows),
        by_entity("vitals", SERIES_SCHEMA, series_rows),
    ]


def by_entity(name, schema, rows):
    """A source of ``rows`` grouped by entity, as load_inputs passes it on."""
    return name, schema, group_rows(name, schema, rows, [row.entity_id for row in rows])


class TestBuildBaselineFeatures:
    def test_feature_accounting(self, sources):
        # 3 numeric + categorical capped at 2 -> 3 columns, series -> 6 stats
        matrix = build_baseline_features(
            sources, ["p1", "p2", "p3"], max_categories=2
        )
        assert len(matrix.feature_names) == 3 + 3 + 6

    def test_missing_numeric_imputed_zero(self, sources):
        matrix = build_baseline_features(sources, ["p1", "p2", "p3"])
        age = matrix.values[:, matrix.feature_names.index("demo.age")]
        np.testing.assert_array_equal(age, [50.0, 0.0, 61.0])

    def test_series_expands_to_six_stats(self, sources):
        matrix = build_baseline_features(sources, ["p1", "p2", "p3"])
        hr_names = [n for n in matrix.feature_names if n.startswith("vitals.hr.")]
        assert hr_names == [f"vitals.hr.{s}" for s in SERIES_STATS]
        mean = matrix.values[:, matrix.feature_names.index("vitals.hr.mean")]
        np.testing.assert_allclose(mean, [61.0, 70.0, 0.0])

    def test_free_text_dropped(self, sources):
        matrix = build_baseline_features(sources, ["p1", "p2", "p3"])
        assert not any("note" in n for n in matrix.feature_names)

    def test_all_values_finite(self, sources):
        matrix = build_baseline_features(sources, ["p1", "p2", "p3"])
        assert np.all(np.isfinite(matrix.values))

    def test_unknown_series_entity_is_error(self, tmp_path):
        vitals, labels = "id,t,hr\np1,1,60\np2,1,70\n", "entity_id,label\np1,1\np3,0\n"
        with pytest.raises(ValidationError, match="p2"):
            load(tmp_path, "id,age\np1,50\n", vitals, labels, "baseline")

    def test_duplicate_static_row_is_error(self, tmp_path):
        vitals, labels = "id,t,hr\np1,1,60\n", "entity_id,label\np1,1\n"
        with pytest.raises(ValidationError, match="multiple rows"):
            load(tmp_path, "id,age\np1,1\np1,4\n", vitals, labels, "baseline")

    def test_entity_absent_from_static_source_gets_zeros(self, sources):
        matrix = build_baseline_features(sources, ["p1", "p2", "p3", "p4"])
        idx = matrix.entity_ids.index("p4")
        np.testing.assert_array_equal(matrix.values[idx], 0.0)


WARD_SCHEMA = TableSchema(
    meta=TableMeta(table_title="Ward stays"),
    columns=(
        ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="t", kind=ColumnKind.TIMESTAMP),
        ColumnSpec(name="ward", kind=ColumnKind.CATEGORICAL),
        ColumnSpec(name="icu", kind=ColumnKind.BINARY),
    ),
    entity_column="id",
    time_column="t",
)


def ward_features(parse_text, csv_rows, entity_ids):
    rows = parse_text("id,t,ward,icu\n" + csv_rows, WARD_SCHEMA)
    return build_baseline_features([by_entity("stays", WARD_SCHEMA, rows)], entity_ids)


class TestCategoricalSeriesAndUniverse:
    """Paths the synthetic corpus never runs: its time series are numeric."""

    def test_categorical_series_column_encodes_latest_row(self, parse_text):
        rows = "p1,2,B,1\np1,5,A,0\np1,3,C,1\np2,1,C,1\n"
        matrix = ward_features(parse_text, rows, ["p1", "p2"])
        assert matrix.feature_names == [
            "stays.ward.A", "stays.ward.C", "stays.ward.other",
            "stays.icu.0", "stays.icu.1", "stays.icu.other",
        ]
        np.testing.assert_array_equal(matrix.values, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]])

    def test_tied_latest_timestamps_take_the_first_row(self, parse_text):
        matrix = ward_features(parse_text, "p1,4,B,1\np1,4,A,0\np1,1,C,0\n", ["p1"])
        assert matrix.feature_names[:2] == ["stays.ward.B", "stays.ward.other"]
        np.testing.assert_array_equal(matrix.values, [[1, 0, 1, 0]])

    def test_entity_without_series_rows_gets_zeros(self, parse_text):
        matrix = ward_features(parse_text, "p1,2,B,1\n", ["p1", "p2"])
        np.testing.assert_array_equal(matrix.values[1], 0.0)
        assert matrix.values[0].sum() == 2

    def test_static_row_outside_universe_is_ignored(self, sources):
        # p3 (red) is not in the universe, so red and blue tie at one row each
        matrix = build_baseline_features(sources, ["p1", "p2"], max_categories=1)
        assert matrix.entity_ids == ["p1", "p2"]
        assert "demo.color.blue" in matrix.feature_names
        age = matrix.values[:, matrix.feature_names.index("demo.age")]
        np.testing.assert_array_equal(age, [50.0, 0.0])

    def test_static_negative_zero_keeps_its_sign(self, parse_text):
        rows = parse_text("id,age,height,weight,color,note\np1,-0,-0.0,0,a,x\n", STATIC_SCHEMA)
        matrix = build_baseline_features([by_entity("demo", STATIC_SCHEMA, rows)], ["p1"])
        np.testing.assert_array_equal(np.signbit(matrix.values[0, :3]), [True, True, False])


class TestFeatureMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(["a"], ["f1", "f2"], np.zeros((1, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(["a"], ["f"], np.array([[np.nan]]))
        for value in (np.nan, np.inf, -np.inf):
            for cell in ((0, 0), (2, 3), (4, 6)):  # the first, a middle and the last
                values = np.arange(35.0).reshape(5, 7) - 17
                values[cell] = value
                with pytest.raises(ValueError, match="^feature matrix contains non-finite values$"):
                    FeatureMatrix(list("abcde"), list("fghijkl"), values)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_matrix_constructs(self, shape):
        matrix = FeatureMatrix(list("abc"[: shape[0]]), list("xyz"[: shape[1]]), np.empty(shape))
        assert matrix.values.shape == shape

    def test_csv_round_trip(self, tmp_path):
        matrix = FeatureMatrix(
            entity_ids=["a", "b"],
            feature_names=["x", "y"],
            values=np.array([[0.1, 1 / 3], [2.5, -7e-12]]),
            labels=np.array([0, 1]),
        )
        path = tmp_path / "features.csv"
        matrix.to_csv(path)
        loaded = FeatureMatrix.from_csv(path)
        assert loaded.entity_ids == matrix.entity_ids
        assert loaded.feature_names == matrix.feature_names
        np.testing.assert_array_equal(loaded.values, matrix.values)
        np.testing.assert_array_equal(loaded.labels, matrix.labels)

    def test_csv_round_trip_without_labels(self, tmp_path):
        matrix = FeatureMatrix(["a"], ["x"], np.array([[1.25]]))
        path = tmp_path / "f.csv"
        matrix.to_csv(path)
        loaded = FeatureMatrix.from_csv(path)
        assert loaded.labels is None
        np.testing.assert_array_equal(loaded.values, matrix.values)

    @pytest.mark.parametrize("labelled", [True, False])
    def test_csv_round_trip_of_ids_that_need_quoting(self, tmp_path, labelled):
        ids = ["a,b", 'say "hi"', "x\ny", "plain"]
        matrix = FeatureMatrix(
            entity_ids=ids,
            feature_names=["f,1", "f2"],
            values=np.arange(8, dtype=np.float64).reshape(4, 2),
            labels=np.array([0, 1, 1, 0]) if labelled else None,
        )
        path = tmp_path / "features.csv"
        matrix.to_csv(path)
        assert path.read_text().splitlines()[-1].startswith("plain,")
        loaded = FeatureMatrix.from_csv(path)
        assert loaded.entity_ids == ids
        assert loaded.feature_names == ["f,1", "f2"]
        np.testing.assert_array_equal(loaded.values, matrix.values)
        if labelled:
            np.testing.assert_array_equal(loaded.labels, matrix.labels)
        else:
            assert loaded.labels is None


def reference_csv(matrix: FeatureMatrix) -> str:
    """The writer that formats every cell with repr(float(v)), kept as the
    reference that FeatureMatrix.to_csv must match byte for byte."""
    out = io.StringIO()
    header = ["entity_id"]
    if matrix.labels is not None:
        header.append("label")
    header.extend(matrix.feature_names)
    out.write(",".join(header) + "\n")
    for i, entity in enumerate(matrix.entity_ids):
        fields = [entity]
        if matrix.labels is not None:
            fields.append(str(int(matrix.labels[i])))
        fields.extend(repr(float(v)) for v in matrix.values[i])
        out.write(",".join(fields) + "\n")
    return out.getvalue()


EDGE_VALUES = np.array([-0.0, 5e-324, -1e-310, 1e300, -1e300, 0.1, -1 / 3, 1.0, 2.5e-8])


def random_matrix(rng, n, d, density, labelled):
    values = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, d))
    values[rng.random((n, d)) >= density] = 0.0
    edges = rng.random((n, d)) < 0.05
    values[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
    return FeatureMatrix(
        entity_ids=[f"e{i:04d}" for i in range(n)],
        feature_names=[f"f{j}" for j in range(d)],
        values=values,
        labels=rng.integers(0, 2, size=n) if labelled else None,
    )


def sparse_rows(values: np.ndarray) -> SparseRows:
    """``values`` held as its non-zero and -0.0 cells."""
    keys = np.flatnonzero((values != 0) | np.signbit(values))
    return SparseRows(values.shape, keys, values.reshape(-1)[keys])


def layouts(matrix: FeatureMatrix) -> list[FeatureMatrix]:
    """``matrix`` as it is and with its values held as SparseRows."""
    sparse = sparse_rows(matrix.values)
    return [matrix, FeatureMatrix(matrix.entity_ids, matrix.feature_names, sparse, matrix.labels)]


class TestSparseRows:
    """SparseRows is read as the dense matrix of its cells is read."""

    @pytest.fixture
    def dense(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 70))
        values[rng.random(values.shape) >= 0.1] = 0.0
        edges = rng.random(values.shape) < 0.05
        values[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
        values[7] = 0.0
        return values

    @pytest.mark.parametrize("key", [
        slice(None), slice(3, 9), slice(38, 45), slice(5, 5), 0, -1, np.array([9, 2, 30, 2]),
        (np.array([4, 0, 7, 39]), slice(10, 74)), (slice(None), np.array([1, 2, 40, 69])),
        np.ix_(np.array([33, 7, 8]), np.array([0, 5, 6, 64])), (np.array([], np.intp), slice(2, 4)),
        (np.array([1, 2]), slice(3, 3)), (3, slice(60, None)),
    ], ids=repr)
    def test_reads_equal_numpy(self, dense, key):
        want = np.ascontiguousarray(dense[key])
        got = sparse_rows(dense)[key]
        assert got.shape == want.shape and got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key", [
        (np.array([1, 2]), np.array([3, 4])), (slice(None), np.array([5, 2])),
        (0, np.array([1, 1])), (slice(None), slice(None, None, -1)),
    ], ids=repr)
    def test_reads_numpy_would_read_otherwise_raise(self, dense, key):
        with pytest.raises(IndexError):
            sparse_rows(dense)[key]

    def test_iterates_rows(self, dense):
        sparse = sparse_rows(dense)
        assert len(sparse) == 40 and np.asarray(sparse).tobytes() == dense.tobytes()

    def test_feature_matrix_rejects_non_finite_cells(self, dense):
        dense[3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix([f"e{i}" for i in range(40)], [f"f{j}" for j in range(70)],
                          sparse_rows(dense))

    @pytest.mark.parametrize("n", [0, 1, BUILD_ROWS[0], BUILD_ROWS[0] + 1, 8 * BUILD_ROWS[1] + 3])
    @pytest.mark.parametrize("dense_from", [None, 0, 40, 600])
    def test_assembled_rows_are_the_rows_filled(self, dense, n, dense_from):
        # Rows from ``dense_from`` on have no zero cell; the others are those
        # of ``dense``, mostly zero.
        want = np.tile(dense, (n // 40 + 1, 1))[:n]
        if dense_from is not None:
            want[dense_from:] += 1.0
        blocks = []

        def fill(start, block):
            assert not block.any() and not np.signbit(block).any()
            blocks.append(len(block))
            block[:] = want[start : start + len(block)]

        got = assemble_rows(n, 70, fill)
        held_dense = dense_from is not None and dense_from < n
        assert isinstance(got, np.ndarray if held_dense else SparseRows)
        assert sum(blocks) == n
        # the rows left once they are found dense are filled in one call
        assert max(blocks[: -1 if held_dense else None], default=0) <= BUILD_ROWS[1]
        assert got[:].shape == (n, 70) and got[:].tobytes() == want.tobytes()

    def test_fill_that_keeps_a_view_fails_the_build(self):
        # Growing the buffer in place may move it, so a view that fill kept
        # would read freed memory: the build raises instead.
        kept = []

        def fill(start, block):
            kept.append(block)
            block[:] = 1.0

        with pytest.raises(ValueError, match="resize"):
            assemble_rows(4 * BUILD_ROWS[0], 70, fill)


class TestToCsvMatchesReference:
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
    @pytest.mark.parametrize(
        "n, d",
        [
            (0, 4),
            (1, 1),
            (3, 0),
            (_BLOCK_ROWS - 1, 3),
            (_BLOCK_ROWS, 1),
            (_BLOCK_ROWS + 1, 7),
            (2 * _BLOCK_ROWS + 5, 40),
        ],
    )
    def test_bytes_equal_reference(self, tmp_path, n, d, density, labelled):
        rng = np.random.default_rng([n, d, int(density * 100), labelled])
        matrix = random_matrix(rng, n, d, density, labelled)
        path = tmp_path / "features.csv"
        for held in layouts(matrix):
            held.to_csv(path)
            assert path.read_bytes() == reference_csv(matrix).encode("utf-8")

    def test_all_edge_values_in_one_row(self, tmp_path):
        matrix = FeatureMatrix(["e"], [f"f{j}" for j in range(len(EDGE_VALUES))], [EDGE_VALUES])
        path = tmp_path / "features.csv"
        for held in layouts(matrix):
            held.to_csv(path)
            assert path.read_text() == reference_csv(matrix)
            assert path.read_text().splitlines()[1].startswith("e,-0.0,5e-324,-1e-310,1e+300,")
