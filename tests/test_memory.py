"""Memory guards: a feature matrix is built, checked and read back in place
and evaluated through row indices, never copied at full width. tracemalloc
counts numpy's buffers, so a list of per-entity rows stacked into the matrix,
a copy of the training rows or a full-size boolean mask shows in the traced
peak of the call. The hashing embeddings are mostly zero, so the TabText
matrix is held as its non-zero cells, well below the ``n x width x 8`` bytes
of a dense copy; a backend of dense vectors keeps the dense array. A parsed
table shares one cell among the fields of each distinct text, and `compare`
lets its parsed rows go before it evaluates."""
import gc
import tracemalloc

import numpy as np
import pytest

import tabtext.pipeline
from tabtext.baseline import FeatureMatrix, SparseRows
from tabtext.data_model import Row, group_rows, load_schema, parse_table
from tabtext.embedding import HashingBackend
from tabtext.evaluation import SplitSpec, evaluate_features
from tabtext.formats import load_labels, read_features
from tabtext.pipeline import RunConfig, SourceConfig, build_tabtext_features, run_compare
from tabtext.serializer import CombineMode, SerializationConfig
from tabtext.synthetic import CorpusSpec, generate

SINGLE = SerializationConfig(combine_sources=CombineMode.SINGLE_PARAGRAPH)


class DenseBackend(HashingBackend):
    """Hashing vectors with 1 added to every cell, so that no cell is zero,
    as a real encoder's are not."""

    def embed_batch(self, texts):
        return super().embed_batch(texts) + 1.0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate(CorpusSpec(seed=3, n_entities=400), path)
    return path


@pytest.fixture(scope="module")
def inputs(corpus):
    ids, labels = load_labels(corpus / "labels.csv")
    sources = []
    for name in ("demographics", "vitals"):
        schema = load_schema(corpus / f"{name}.schema.yaml")
        rows = parse_table(corpus / f"{name}.csv", schema)
        sources.append((name, schema, group_rows(name, schema, rows, ids)))
    return sources, ids, labels


def traced_peak(call):
    """The result of ``call()`` and the peak of the memory that it allocated
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build(inputs, backend, ser_config=SerializationConfig()):
    sources, ids, labels = inputs
    return build_tabtext_features(sources, ids, labels, ser_config, backend)


def dense_bytes(features):
    """The bytes of the matrix of ``features`` held dense: n x width x 8."""
    return len(features.entity_ids) * len(features.feature_names) * 8


def test_building_features_holds_one_matrix(inputs):
    backend = HashingBackend()
    build(inputs, backend)  # warms the backend's token cache, which is kept
    features, peak = traced_peak(lambda: build(inputs, backend))
    assert features.values.shape == (400, 2 * backend.dim)
    assert isinstance(features.values, SparseRows)
    assert peak <= 0.25 * dense_bytes(features)


def test_single_paragraph_build_holds_one_matrix(inputs):
    # Its blocks are summed into the buffer in place, not held side by side.
    backend = HashingBackend()
    build(inputs, backend, SINGLE)
    features, peak = traced_peak(lambda: build(inputs, backend, SINGLE))
    assert features.values.shape == (400, backend.dim)
    assert isinstance(features.values, SparseRows)
    assert peak <= 0.35 * dense_bytes(features)


@pytest.mark.parametrize("ser_config", [SerializationConfig(), SINGLE], ids=["separate", "single"])
def test_dense_vectors_build_one_dense_matrix(inputs, ser_config):
    # The buffer that finds them dense is grown in place into the matrix.
    backend = DenseBackend()
    build(inputs, backend, ser_config)
    features, peak = traced_peak(lambda: build(inputs, backend, ser_config))
    assert isinstance(features.values, np.ndarray)
    assert peak <= 1.1 * dense_bytes(features)


def test_evaluating_features_copies_no_full_width_matrix(inputs):
    features = build(inputs, HashingBackend())
    evaluate_features(features, SplitSpec(seed=0))  # leaves out any first-call set-up
    _, peak = traced_peak(lambda: evaluate_features(features, SplitSpec(seed=0)))
    assert peak <= 0.32 * dense_bytes(features)


def test_evaluating_dense_vectors_copies_no_full_width_matrix(inputs):
    # Every column of this matrix varies, so the fit's float32 copy of the
    # training rows alone is 0.8 x 0.5 of the dense bytes; a float64 copy of
    # them would be 0.8.
    features = build(inputs, DenseBackend())
    evaluate_features(features, SplitSpec(seed=0))
    _, peak = traced_peak(lambda: evaluate_features(features, SplitSpec(seed=0)))
    assert peak <= 0.5 * dense_bytes(features)


def test_reading_the_feature_csv_holds_one_matrix(inputs, tmp_path):
    features = build(inputs, HashingBackend())
    path = tmp_path / "features.csv"
    features.to_csv(path)
    (ids, _, values, labels), peak = traced_peak(lambda: read_features(path))
    assert ids == features.entity_ids and labels.tolist() == features.labels.tolist()
    assert values.tobytes() == features.values[:].tobytes()
    assert peak <= 1.25 * dense_bytes(features)


def test_parsing_a_table_makes_one_cell_per_distinct_text(corpus):
    # A new cell for every field needs about 750 B a row, shared cells in a
    # dict of every column about 350, and shared cells in a tuple of the
    # value columns about 175.
    schema = load_schema(corpus / "vitals.schema.yaml")
    parse_table(corpus / "vitals.csv", schema)  # leaves out one-off allocations
    rows, peak = traced_peak(lambda: parse_table(corpus / "vitals.csv", schema))
    assert len(rows) > 2000
    assert peak <= 250 * len(rows)


def test_checking_a_prebuilt_matrix_copies_nothing():
    values = np.random.default_rng(0).normal(size=(400, 1536))
    ids, names = [f"e{i}" for i in range(400)], [f"f{j}" for j in range(1536)]
    labels = np.arange(400) % 2
    features, peak = traced_peak(lambda: FeatureMatrix(ids, names, values, labels))
    assert features.values is values
    assert peak < 0.01 * values.nbytes


def test_compare_evaluates_with_no_parsed_row_alive(corpus, tmp_path, monkeypatch):
    before = [obj for obj in gc.get_objects() if isinstance(obj, Row)]  # held, so no id is reused
    known = set(map(id, before))
    alive = []

    def evaluate(features, spec):
        gc.collect()
        alive.append(sum(isinstance(obj, Row) and id(obj) not in known
                         for obj in gc.get_objects()))
        return evaluate_features(features, spec)

    monkeypatch.setattr(tabtext.pipeline, "evaluate_features", evaluate)
    sources = [SourceConfig(name, corpus / f"{name}.csv", corpus / f"{name}.schema.yaml")
               for name in ("demographics", "vitals")]
    run_compare(RunConfig(sources, corpus / "labels.csv", output_dir=tmp_path))
    assert alive == [0, 0]
