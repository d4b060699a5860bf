"""Memory guards: a feature matrix is built, checked and read back in place
and evaluated through row indices, never copied at full width. tracemalloc
counts numpy's buffers, so a list of per-entity rows stacked into the matrix,
a copy of the training rows or a full-size boolean mask shows in the traced
peak of the call. A parsed table shares one cell among the fields of each
distinct text, and `compare` lets its parsed rows go before it evaluates."""
import gc
import tracemalloc

import numpy as np
import pytest

import tabtext.pipeline
from tabtext.baseline import FeatureMatrix
from tabtext.data_model import Row, group_rows, load_schema, parse_table
from tabtext.embedding import HashingBackend
from tabtext.evaluation import SplitSpec, evaluate_features
from tabtext.formats import load_labels, read_features
from tabtext.pipeline import RunConfig, SourceConfig, build_tabtext_features, run_compare
from tabtext.serializer import CombineMode, SerializationConfig
from tabtext.synthetic import CorpusSpec, generate


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


def test_building_features_holds_one_matrix(inputs):
    backend = HashingBackend()
    build(inputs, backend)  # warms the backend's token cache, which is kept
    features, peak = traced_peak(lambda: build(inputs, backend))
    assert features.values.shape == (400, 2 * backend.dim)
    assert peak <= 1.25 * features.values.nbytes


def test_single_paragraph_build_holds_one_matrix(inputs):
    # Its blocks are summed into the matrix in place, not held side by side.
    backend = HashingBackend()
    single = SerializationConfig(combine_sources=CombineMode.SINGLE_PARAGRAPH)
    build(inputs, backend, single)
    features, peak = traced_peak(lambda: build(inputs, backend, single))
    assert features.values.shape == (400, backend.dim)
    assert peak <= 1.25 * features.values.nbytes


def test_evaluating_features_copies_no_full_width_matrix(inputs):
    features = build(inputs, HashingBackend())
    evaluate_features(features, SplitSpec(seed=0))  # leaves out any first-call set-up
    _, peak = traced_peak(lambda: evaluate_features(features, SplitSpec(seed=0)))
    assert peak <= 0.32 * features.values.nbytes


def test_reading_the_feature_csv_holds_one_matrix(inputs, tmp_path):
    features = build(inputs, HashingBackend())
    path = tmp_path / "features.csv"
    features.to_csv(path)
    (ids, _, values, labels), peak = traced_peak(lambda: read_features(path))
    assert ids == features.entity_ids and labels.tolist() == features.labels.tolist()
    assert values.tobytes() == features.values.tobytes()
    assert peak <= 1.25 * values.nbytes


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
