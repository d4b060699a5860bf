"""Differential tests of the row-path kernels: the hashing embedder, the
timestamp-weighted sum, the float-row CSV writer, the table parser and the
series statistics each give, byte for byte, what the plain versions kept
frozen below give (a dense vector per text with np.linalg.norm, np.stack of
every vector, one list of fields per CSV line, one new cell per field, one
1-D array per series). The feature CSV reader, which fills its matrix in
place, is checked on every line ending that csv.reader accepts. The float32
classifier fit gives the test AUROC of a frozen float64 fit, and nearly its
weights; its in-place gradient descent gives the weights and bias of a frozen
float32 one that allocates each step's arrays, bit for bit."""
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabtext.baseline import (
    SERIES_STATS,
    build_baseline_features,
    series_statistics,
    summarize_series,
)
from tabtext.data_model import (
    MISSING_TOKENS,
    CellValue,
    ColumnKind,
    ColumnSpec,
    Row,
    TableMeta,
    TableSchema,
    group_rows,
    load_schema,
    parse_table,
)
from tabtext.embedding import HashingBackend, chunk_text, embed_text
from tabtext.errors import ValidationError
from tabtext.evaluation import (
    SplitSpec,
    _column_moments,
    _logistic_gd,
    _standardize_active,
    auroc,
    fit_linear_classifier,
    grid_points,
    split,
)
from tabtext.formats import _invalid, load_labels, read_csv, read_features, write_float_rows
from tabtext.pipeline import build_tabtext_features
from tabtext.serializer import SerializationConfig
from tabtext.synthetic import CorpusSpec, generate
from tabtext.temporal import aggregate_timed

# ---- frozen reference versions -------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def frozen_hashing(texts, dim):
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, text in enumerate(texts):
        vec = out[i]
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
            vec[int.from_bytes(digest[:8], "big") % dim] += 1.0 if digest[8] & 1 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def frozen_aggregate_timed(series, normalize=True):
    dim = len(series[0][1])
    order = sorted(range(len(series)), key=lambda i: (series[i][0], i))
    vectors = np.stack([np.asarray(series[i][1], dtype=np.float64) for i in order])
    weights = np.array([series[i][0] for i in order], dtype=np.float64)
    total = weights.sum()
    if total == 0.0:
        return vectors.mean(axis=0) if normalize else np.zeros(dim, dtype=np.float64)
    out = np.zeros(dim, dtype=np.float64)
    for weight, vector in zip(weights, vectors):
        out += weight * vector
    return out / total if normalize else out


def frozen_csv_field(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def frozen_write_float_rows(handle, leads, values, block_rows=256):
    template = ["0.0"] * values.shape[1]
    for start in range(0, len(values), block_rows):
        block = values[start : start + block_rows]
        rows, cols = np.nonzero((block != 0) | np.signbit(block))
        texts = [repr(v) for v in block[rows, cols].tolist()]
        bounds = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        cols = cols.tolist()
        for i, lead in enumerate(leads[start : start + len(block)]):
            fields = [*map(frozen_csv_field, lead), *template]
            offset = len(lead)
            for j in range(bounds[i], bounds[i + 1]):
                fields[offset + cols[j]] = texts[j]
            handle.write(",".join(fields) + "\n")


def frozen_parse_table(path, schema):
    records = read_csv(path, 1)
    _, header = next(records)
    if len(set(header)) < len(header):
        raise _invalid(path, 1, f"header repeats a column name: {header}")
    positions = {}
    for col in schema.columns:
        if col.name not in header:
            raise _invalid(path, 1, f"header is missing schema column '{col.name}'")
        positions[col.name] = header.index(col.name)
    rows = []
    for line, record in records:
        cells = {}
        for col in schema.columns:
            raw = record[positions[col.name]]
            if raw.lower() in MISSING_TOKENS:
                cells[col.name] = CellValue.absent(raw)
            else:
                cells[col.name] = CellValue.present(raw)
        entity_id = cells[schema.entity_column].raw
        timestamp = None
        if schema.time_column is not None:
            tcell = cells[schema.time_column]
            timestamp = tcell.parsed
            if timestamp is None or timestamp < 0:
                raise _invalid(
                    path,
                    line,
                    f"{'unparseable' if timestamp is None else 'negative'} timestamp "
                    f"{tcell.raw!r} in column '{schema.time_column}'",
                )
        value_cells = tuple(cells[c.name] for c in schema.value_columns)
        rows.append(Row(entity_id=entity_id, cells=value_cells, timestamp=timestamp))
    return rows


def frozen_summarize_series(values):
    if not values:
        return {stat: 0.0 for stat in SERIES_STATS}
    ordered = sorted(values, key=lambda pair: pair[0])
    data = np.array([v for _, v in ordered], dtype=np.float64)
    n = len(data)
    with np.errstate(over="raise", invalid="raise"):
        return {
            "mean": float(data.mean()),
            "min": float(data.min()),
            "max": float(data.max()),
            "variance": float(data.var(ddof=1)) if n > 1 else 0.0,
            "average_change": float((data[-1] - data[0]) / (n - 1)) if n > 1 else 0.0,
            "count": float(n),
        }


def frozen_logistic_gd(X, y, steps, lr, l2):
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


def frozen_logistic_gd32(X, y, steps, lr, l2):
    real = X.dtype.type
    n, half, lr, l2 = real(X.shape[0]), real(0.5), real(lr), real(l2)
    y = y.astype(X.dtype)
    w = np.zeros(X.shape[1], dtype=X.dtype)
    b = real(0.0)
    for _ in range(steps):
        z = X @ w + b
        p = half + half * np.tanh(half * z)
        r = p - y
        grad_w = X.T @ r / n + l2 * w
        grad_b = np.sum(r) / n
        w -= lr * grad_w
        b -= lr * grad_b
    return w.astype(np.float64), float(b)


# ---- hashing --------------------------------------------------------------

LONG = " ".join(f"word{i} Über-{i % 7} x" for i in range(120))
TEXTS = [
    "",
    "   \t\n ",
    "a a a a b b a",
    "heart rate is 72 bpm; heart rate is 72 bpm.",
    "Ünïcödé straße 東京 x2 İstanbul K-9 ﬁve",
    "surrogate\udc80split",
    "MiXeD CaSe, punctuation!? 3.14 -0.0 1e308",
    LONG,
]


@pytest.mark.parametrize("dim", [1, 7, 768])
def test_hashing_matches_dense_vectors(dim):
    texts = TEXTS + chunk_text(LONG, 50)
    got = HashingBackend(dim=dim).embed_batch(texts)
    assert got.tobytes() == frozen_hashing(texts, dim).tobytes()


@pytest.mark.parametrize("dim", [1, 7, 768])
def test_hashing_text_by_text_matches_dense_vectors(dim):
    backend = HashingBackend(dim=dim, max_chars=50)
    for text in TEXTS:
        want = frozen_hashing(chunk_text(text, 50) or [""], dim).mean(axis=0)
        if not text.strip():
            want = np.zeros(dim)
        assert embed_text(text, backend).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab01 ,.ÄzéK\n", max_size=40), max_size=5))
def test_hashing_matches_dense_vectors_on_any_text(texts):
    got = HashingBackend(dim=5).embed_batch(texts)
    assert got.tobytes() == frozen_hashing(texts, 5).tobytes()


# ---- timestamp-weighted sum -------------------------------------------------

RNG = np.random.default_rng(7)
VECS = RNG.normal(size=(6, 9))
SERIES = {
    "single": [(3.5, VECS[0])],
    "all_zero": [(0.0, VECS[0]), (0.0, VECS[1]), (-0.0, VECS[2])],
    "negative_zero": [(-0.0, VECS[0]), (2.0, VECS[1]), (0.0, VECS[2])],
    "ties": [(1.0, VECS[3]), (1.0, VECS[1]), (0.5, VECS[2]), (1.0, VECS[0])],
    "shuffled": [(t, VECS[i]) for i, t in enumerate([5.0, 1.0, 3.0, 0.25, 4.0, 2.0])],
    "float32": [(t, VECS[i].astype(np.float32)) for i, t in enumerate([0.1, 7.0, 2.5])],
    "lists": [(1.5, VECS[0].tolist()), (0.5, VECS[1].tolist())],
    "large": [(1e150, VECS[0] * 1e150), (3e150, VECS[1])],
}


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_aggregate_timed_matches_stacked_sum(name, normalize):
    series = SERIES[name]
    got = aggregate_timed(series, normalize=normalize)
    assert got.dtype == np.float64
    assert got.tobytes() == frozen_aggregate_timed(series, normalize).tobytes()


def test_aggregate_timed_is_the_same_for_every_order_of_its_rows():
    series = SERIES["shuffled"] + SERIES["ties"]
    want = frozen_aggregate_timed(series)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(series))
        shuffled = [series[i] for i in order]
        assert aggregate_timed(shuffled).tobytes() == frozen_aggregate_timed(shuffled).tobytes()
    assert aggregate_timed(series).tobytes() == want.tobytes()


# ---- float-row CSV writer ---------------------------------------------------

MATRICES = {
    "width_1": (np.array([[0.0], [1.5], [-0.0], [5e-324]]), 1),
    "all_zero_row": (np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), 1),
    "no_zeros": (np.array([[1.0, -2.5, 1e308, -1e308, 0.1]]), 1),
    "signed_zeros_and_subnormals": (np.array([[-0.0, 0.0, 5e-324, -5e-324, -0.0]]), 1),
    "repeated_values": (np.tile(np.array([[0.1, 0.0, 0.2, 0.1, 0.0, 0.2]]), (4, 1)), 1),
    "no_lead": (np.array([[0.0, 3.0], [4.0, 0.0]]), 0),
    "no_rows": (np.zeros((0, 4)), 1),
    "several_blocks": (
        np.where(RNG.random((600, 11)) < 0.3, RNG.normal(size=(600, 11)).round(2), 0.0), 2
    ),
}
LEAD_TEXTS = ["p1", "a,b", 'say "hi"', "line\nbreak", "cr\r", "", "plain"]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_write_float_rows_matches_one_list_per_line(name):
    values, n_leads = MATRICES[name]
    leads = [
        tuple(LEAD_TEXTS[(i + k) % len(LEAD_TEXTS)] for k in range(n_leads))
        for i in range(len(values))
    ]
    got, want = io.StringIO(), io.StringIO()
    write_float_rows(got, leads, values)
    frozen_write_float_rows(want, leads, values)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e308, 1 / 3]),
                min_size=width,
                max_size=width,
            ),
            max_size=6,
        ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width))
    )
)
def test_write_float_rows_matches_one_list_per_line_on_any_matrix(values):
    leads = [(f"e{i}",) for i in range(len(values))]
    got, want = io.StringIO(), io.StringIO()
    write_float_rows(got, leads, values)
    frozen_write_float_rows(want, leads, values)
    assert got.getvalue() == want.getvalue()


# ---- feature CSV reader -----------------------------------------------------


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("blank_lines", [False, True])
def test_read_features_reads_every_line_ending(tmp_path, newline, blank_lines):
    header = "entity_id,label,a,b"
    records = ['"p\n1",1,0.5,0.0', "p2,0,-0.0,1e308", '"p,3",1,5e-324,2']
    lines = [header, *records]
    if blank_lines:
        lines = [header, "", records[0], "", "", *records[1:], ""]
    path = tmp_path / "features.csv"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    ids, names, values, labels = read_features(path)
    assert ids == ["p\n1", "p2", "p,3"] and names == ["a", "b"]
    assert labels.tolist() == [1, 0, 1]
    want = np.array([[0.5, 0.0], [-0.0, 1e308], [5e-324, 2.0]])
    assert values.shape == (3, 2) and values.tobytes() == want.tobytes()


# ---- table parser -----------------------------------------------------------

SERIES_SCHEMA = TableSchema(
    meta=TableMeta(),
    columns=(
        ColumnSpec("id", ColumnKind.CATEGORICAL),
        ColumnSpec("t", ColumnKind.TIMESTAMP),
        ColumnSpec("x", ColumnKind.NUMERIC),
        ColumnSpec("y", ColumnKind.NUMERIC),
        ColumnSpec("c", ColumnKind.CATEGORICAL),
        ColumnSpec("s", ColumnKind.FREE_TEXT),
    ),
    entity_column="id",
    time_column="t",
)
# Every column draws from one pool, so one text recurs across columns.
FIELDS = ["", "NA", "na", "NaN", "nan", "Null", "null", "-0.0", "0.0", "0", "1", "1.0",
          "1e400", "-1e400", "inf", "-inf", " 7 ", "1_0", "abc", "x,y", 'q"t', "p1"]
STAMPS = ["0", "-0.0", "1", "1.0", "2.5", "1e2", " 3", "1"]


def _write(path, header, records):
    path.write_text("\n".join([",".join(header), *records]) + "\n", encoding="utf-8")
    return path


def _quote(text):
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def test_parse_table_matches_one_cell_per_field(tmp_path):
    # A header in another order than the schema's, with a column it does not name.
    header = ["s", "extra", "t", "id", "y", "c", "x"]
    rng = np.random.default_rng(5)
    records = []
    for _ in range(400):
        fields = {name: FIELDS[rng.integers(len(FIELDS))] for name in ("s", "y", "c", "x")}
        fields.update(extra="zz", t=STAMPS[rng.integers(len(STAMPS))], id=f"p{rng.integers(9)}")
        records.append(",".join(_quote(fields[name]) for name in header))
    path = _write(tmp_path / "series.csv", header, records)
    got = parse_table(path, SERIES_SCHEMA)
    want = frozen_parse_table(path, SERIES_SCHEMA)
    assert len(got) == 400 and got == want and repr(got) == repr(want)


@pytest.mark.parametrize("stamp", ["-1", "abc", "", "NA", "inf", "1e400"])
def test_parse_table_names_the_same_bad_timestamp(tmp_path, stamp):
    records = ["p1,1,2,3,c,s", "p1,0,2,3,c,s", f"p2,{stamp},2,3,c,s", "p3,-5,2,3,c,s"]
    path = _write(tmp_path / "bad.csv", ["id", "t", "x", "y", "c", "s"], records)
    with pytest.raises(ValidationError) as got:
        parse_table(path, SERIES_SCHEMA)
    with pytest.raises(ValidationError) as want:
        frozen_parse_table(path, SERIES_SCHEMA)
    assert str(got.value) == str(want.value) and "line 4:" in str(got.value)


def test_parse_table_matches_one_cell_per_field_on_the_corpus(tmp_path):
    generate(CorpusSpec(seed=0, n_entities=80), tmp_path)
    for name in ("demographics", "vitals"):
        schema = load_schema(tmp_path / f"{name}.schema.yaml")
        got = parse_table(tmp_path / f"{name}.csv", schema)
        want = frozen_parse_table(tmp_path / f"{name}.csv", schema)
        assert got == want and repr(got) == repr(want)


# ---- series statistics ------------------------------------------------------

LENGTHS = [*range(40), 127, 128, 129, 130, 255, 256, 257, 300, 1000, 1025]


def frozen_rows(stats):
    """Dicts of statistics as the rows of one array, in SERIES_STATS order."""
    return np.array([[s[stat] for stat in SERIES_STATS] for s in stats]).reshape(-1, 6)


def random_series(rng, n, scale):
    """n (timestamp, value) pairs with tied timestamps and some -0.0 values."""
    stamps = rng.integers(0, max(n // 3, 1), size=n).astype(np.float64)
    values = rng.normal(size=n) * scale
    values[rng.random(n) < 0.1] = -0.0
    return list(zip(stamps.tolist(), values.tolist()))


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-300])
def test_series_statistics_match_one_array_per_series(scale):
    rng = np.random.default_rng(11)
    series = [random_series(rng, n, scale) for n in LENGTHS for _ in range(3)]
    series = [series[i] for i in rng.permutation(len(series))]
    want = [frozen_summarize_series(pairs) for pairs in series]
    ordered = [[v for _, v in sorted(pairs, key=lambda pair: pair[0])] for pairs in series]
    assert series_statistics(ordered).tobytes() == frozen_rows(want).tobytes()
    assert repr([summarize_series(pairs) for pairs in series]) == repr(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
                max_size=8))
def test_series_statistics_match_one_array_per_series_on_any_values(series):
    pairs = [[(0.0, v) for v in values] for values in series]
    try:
        want = [frozen_summarize_series(p) for p in pairs]
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            series_statistics(series)
        return
    assert series_statistics(series).tobytes() == frozen_rows(want).tobytes()


def frozen_baseline_stats(universe, rows, position):
    """The old build_baseline_features loop's statistics of the series column
    at ``position`` in the rows' cells, one row per entity."""
    per_entity = {e: [] for e in universe}
    for row in rows:
        cell = row.cells[position]
        if not cell.missing and cell.parsed is not None:
            per_entity[row.entity_id].append((row.timestamp, cell.parsed))
    return frozen_rows([frozen_summarize_series(per_entity[e]) for e in universe])


def series_rows(rng, universe, scale):
    """Rows of SERIES_SCHEMA in shuffled order. Entity i has
    LENGTHS[i % len(LENGTHS)] rows; each x and y is missing, unparseable,
    -0.0 or a random number."""
    cells = [CellValue.absent("na"), CellValue.present("abc"), CellValue.present("-0.0")]
    rows = []
    for i, entity in enumerate(universe):
        for stamp, value in random_series(rng, LENGTHS[i % len(LENGTHS)], scale):
            x, y = (cells[k] if k < 3 else CellValue(repr(value), value)
                    for k in rng.integers(12, size=2))
            rows.append(Row(entity, (x, y, CellValue.absent(""), CellValue.absent("")), stamp))
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-300])
def test_baseline_series_statistics_match_one_array_per_entity(scale):
    rng = np.random.default_rng(3)
    universe = [f"e{i}" for i in range(3 * len(LENGTHS))]
    rows = series_rows(rng, universe, scale)
    grouped = group_rows("v", SERIES_SCHEMA, rows, universe)
    features = build_baseline_features([("v", SERIES_SCHEMA, grouped)], universe)
    for k, column in enumerate(("x", "y")):
        got = features.values[:, 6 * k : 6 * k + 6]
        assert features.feature_names[6 * k] == f"v.{column}.mean"
        want = frozen_baseline_stats(universe, rows, k)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_baseline_overflow_names_the_first_entity_in_universe_order():
    # e0 and e2 share a length; the stacked pair overflows through e2, but e1
    # (a longer series) comes first in the universe.
    series = {"e0": [1.0, 2.0], "e1": [1e308, -1e308, 1e308], "e2": [1e308, 1e308]}
    rows = [Row(e, (CellValue(repr(v), v), *[CellValue.absent("")] * 3), float(t))
            for e, values in series.items() for t, v in enumerate(values)]
    with pytest.raises(FloatingPointError) as frozen:
        frozen_summarize_series(list(enumerate(series["e1"])))
    grouped = group_rows("v", SERIES_SCHEMA, rows, series)
    with pytest.raises(ValidationError) as got:
        build_baseline_features([("v", SERIES_SCHEMA, grouped)], list(series))
    assert str(got.value) == (
        f"source 'v': a statistic of column 'x' of entity 'e1' overflows ({frozen.value})"
    )


# ---- classifier fit --------------------------------------------------------


def test_float32_fit_gives_the_auroc_of_a_float64_fit_at_every_grid_point(tmp_path):
    generate(CorpusSpec(seed=3, n_entities=200), tmp_path)
    ids, labels = load_labels(tmp_path / "labels.csv")
    sources = []
    for name in ("demographics", "vitals"):
        schema = load_schema(tmp_path / f"{name}.schema.yaml")
        rows = parse_table(tmp_path / f"{name}.csv", schema)
        sources.append((name, schema, group_rows(name, schema, rows, ids)))
    backend = HashingBackend()
    for config in grid_points(SerializationConfig()):
        features = build_tabtext_features(sources, ids, labels, config, backend)
        values, y = features.values, features.labels
        train, test = split(len(ids), SplitSpec(seed=0), y)
        model = fit_linear_classifier(values, y[train], train)
        active = np.flatnonzero(model.feature_scale > 0)

        def standardized(part):
            return np.asfortranarray(
                (values[part][:, active] - model.feature_mean[active])
                / model.feature_scale[active]
            )

        w64, b64 = frozen_logistic_gd(standardized(train), y[train].astype(np.float64),
                                      500, 0.1, 1e-4)
        want = auroc(standardized(test) @ w64 + b64, y[test])
        assert auroc(model.scores(values, test), y[test]) == want, config
        w32 = model.weights[active]
        assert np.max(np.abs(w32 - w64)) <= 1e-4 * np.max(np.abs(w64)), config


def standardized32(X):
    """The float32 column-major copy that the fit runs its descent on."""
    mean, std = _column_moments(X, None)
    return _standardize_active(X, None, mean, np.where(std > 0, std, 0.0))[1]


def outlying_case():
    # The separable matrix of the sigmoid test, whose row 0 scores near -140.
    y = np.repeat([0, 1], 40)
    X = (2 * y - 1)[:, None] + 0.01 * np.random.default_rng(0).normal(size=(80, 400))
    X[0] = -1e3
    return X, y


def random_case(n, d):
    rng = np.random.default_rng(n + d)
    y = rng.integers(2, size=n)
    return rng.normal(size=(n, d)) + 0.3 * y[:, None] * rng.normal(size=d), y


@pytest.mark.parametrize("case", [(32, 343), (1600, 17), (400, 868), "outlying"])
def test_in_place_descent_matches_one_array_per_step(case):
    X, y = outlying_case() if case == "outlying" else random_case(*case)
    Xs = standardized32(X)
    w, b = _logistic_gd(Xs, y.astype(np.float64), 500, 0.1, 1e-4)
    want_w, want_b = frozen_logistic_gd32(Xs, y.astype(np.float64), 500, 0.1, 1e-4)
    assert w.tobytes() == want_w.tobytes()
    assert b == want_b
