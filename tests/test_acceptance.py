"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from golden_fixture import GOLDEN_SCHEMA, golden_configs, golden_rows
from tabtext.baseline import SERIES_STATS, build_baseline_features, encode_categorical, summarize_series
from tabtext.data_model import CellValue, group_rows, load_schema, parse_table
from tabtext.embedding import HashingBackend, chunk_text, embed_text
from tabtext.evaluation import SplitSpec, auroc, evaluate_features, grid_points, run_ablation
from tabtext.pipeline import (
    RunConfig,
    SourceConfig,
    build_tabtext_features,
    load_labels,
    run_compare,
)
from tabtext.serializer import MissingPolicy, SerializationConfig, serialize_row
from tabtext.synthetic import CorpusSpec, generate
from tabtext.temporal import aggregate_timed

from test_baseline import naive_summary
from test_evaluation import pairwise_auroc
from test_temporal import brute_force_weighted_average


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def corpus_sources(corpus: Path):
    """Each table of the corpus, its rows by entity of the labels file."""
    ids, _ = load_labels(corpus / "labels.csv")
    out = []
    for name in ("demographics", "vitals"):
        schema = load_schema(corpus / f"{name}.schema.yaml")
        rows = parse_table(corpus / f"{name}.csv", schema)
        out.append((name, schema, group_rows(name, schema, rows, ids)))
    return out


def test_criterion_1_serialization_goldens(tmp_path):
    with criterion(1, "16-point serialization grid is byte-exact on the golden fixture", 1.0):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_sentences.json").read_text()
        )
        rows = golden_rows(tmp_path)
        assert len(rows) == 10
        for key, config in golden_configs():
            produced = [serialize_row(GOLDEN_SCHEMA, row, config) for row in rows]
            assert produced == golden[key], f"grid point {key}"
        # the paper-fixed literal encodings
        from tabtext.data_model import ColumnKind, ColumnSpec
        from tabtext.serializer import serialize_cell

        col = ColumnSpec(name="bmi", kind=ColumnKind.NUMERIC)
        cell = CellValue.absent("NaN")
        assert serialize_cell(col, cell, SerializationConfig(missing_policy=MissingPolicy.ENCODE_MISSING)) == "bmi is missing"
        assert serialize_cell(col, cell, SerializationConfig(missing_policy=MissingPolicy.ZERO_PAD)) == "bmi is 0"
        assert serialize_cell(col, cell, SerializationConfig(missing_policy=MissingPolicy.KEEP_ORIGINAL)) == "bmi is NaN"


def test_criterion_2_chunking_property_suite():
    with criterion(2, "chunking properties over 10,000 random strings", 10.0):
        rng = np.random.default_rng(2024)
        alphabet = np.array(list("abcdefghij XY.;\t\n  "))
        max_chars = 510
        for _ in range(10_000):
            length = int(rng.integers(0, 5001))
            text = "".join(rng.choice(alphabet, size=length).tolist())
            chunks = chunk_text(text, max_chars)
            assert all(len(c) <= max_chars for c in chunks)
            # whitespace-normalized reconstruction; hard splits only insert
            # breaks inside over-long tokens, so compare ignoring spaces too
            tokens = text.split()
            if tokens and all(len(t) <= max_chars for t in tokens):
                assert " ".join(chunks) == " ".join(tokens)
            else:
                assert "".join(chunks).replace(" ", "") == "".join(tokens)
            if tokens and len(text) <= max_chars:
                assert len(chunks) == 1


class KnownVectorBackend:
    """Stub whose per-chunk vectors are known ahead of time."""

    def __init__(self, dim=6, max_chars=40):
        self.dim = dim
        self.max_chars = max_chars
        self.backend_id = f"known-d{dim}"

    def vector(self, text):
        rng = np.random.default_rng(len(text) * 7919 + sum(map(ord, text)) % 104729)
        return rng.normal(size=self.dim)

    def embed_batch(self, texts):
        return np.stack([self.vector(t) for t in texts])


def test_criterion_3_embedding_averaging_oracle():
    with criterion(3, "chunk-mean embedding equals the analytic mean (1,000 cases)"):
        backend = KnownVectorBackend()
        rng = np.random.default_rng(3)
        for _ in range(1_000):
            n_words = int(rng.integers(15, 60))
            text = " ".join(
                "w" * int(rng.integers(1, 12)) + str(int(rng.integers(0, 100)))
                for _ in range(n_words)
            )
            chunks = chunk_text(text, backend.max_chars)
            assert len(chunks) >= 2  # the multi-chunk regime
            expected = np.mean([backend.vector(c) for c in chunks], axis=0)
            got = embed_text(text, backend)
            np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_criterion_4_temporal_aggregation_oracle():
    with criterion(4, "timestamp-weighted aggregation matches the brute-force oracle"):
        rng = np.random.default_rng(4)
        for _ in range(1_000):
            n = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 17))
            series = [
                (float(rng.uniform(0, 100)), rng.normal(size=dim))
                for _ in range(n)
            ]
            expected = brute_force_weighted_average(series, normalize=True)
            np.testing.assert_allclose(
                aggregate_timed(series, normalize=True), expected, rtol=1e-12, atol=1e-12
            )
        # timestamp-scale invariance
        series = [
            (float(rng.uniform(0.1, 10)), rng.normal(size=8))
            for _ in range(6)
        ]
        base = aggregate_timed(series, normalize=True)
        for c in (1e-3, 7.0, 1e6):
            scaled = [(s[0] * c, s[1]) for s in series]
            np.testing.assert_allclose(
                aggregate_timed(scaled, normalize=True), base, rtol=1e-12
            )
        # recency dominance at ratio 1e9
        dominant = rng.normal(size=8)
        series = series + [(1e9 * max(s[0] for s in series), dominant)]
        np.testing.assert_allclose(
            aggregate_timed(series, normalize=True), dominant, atol=1e-6
        )


def test_criterion_5_auroc_oracle_equivalence():
    with criterion(5, "rank-based AUROC matches the pairwise oracle (500 cases)"):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            assert auroc(scores, labels) == pytest.approx(
                pairwise_auroc(scores, labels), abs=1e-12
            )
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        base = auroc(scores, labels)
        assert auroc(5.0 * scores + 3.0, labels) == base
        assert auroc(np.tanh(scores), labels) == base


def test_criterion_6_baseline_statistics_oracle():
    with criterion(6, "series statistics match the naive oracle; capping matches fixtures"):
        rng = np.random.default_rng(6)
        for _ in range(1_000):
            n = int(rng.integers(0, 25))
            pairs = [(float(rng.uniform(0, 50)), float(rng.normal())) for _ in range(n)]
            got = summarize_series(pairs)
            expected = naive_summary(pairs)
            for stat in SERIES_STATS:
                assert got[stat] == pytest.approx(expected[stat], abs=1e-10)
        values = [CellValue.present(v) for v in ("A", "B", "A", "C")]
        names, matrix = encode_categorical(values, max_categories=2)
        assert names == ["A", "B", "other"]
        np.testing.assert_array_equal(
            matrix, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )


def _compare_on_corpus(corpus: Path, out_dir: Path, seed: int = 0) -> dict:
    config = RunConfig(
        sources=[
            SourceConfig("demographics", corpus / "demographics.csv", corpus / "demographics.schema.yaml"),
            SourceConfig("vitals", corpus / "vitals.csv", corpus / "vitals.schema.yaml"),
        ],
        labels=corpus / "labels.csv",
        serialization=SerializationConfig(missing_policy=MissingPolicy.ENCODE_MISSING),
        evaluation=SplitSpec(seed=seed),
        output_dir=out_dir,
    )
    return run_compare(config)


def test_criterion_7_end_to_end_separation(tmp_path):
    with criterion(
        7,
        "TabText beats the traditional baseline on the text-signal corpus (5 seeds)",
        120.0,
    ):
        tabtext_scores, baseline_scores = [], []
        for seed in range(5):
            corpus = tmp_path / f"c{seed}"
            generate(CorpusSpec(seed=seed), corpus)
            manifest = _compare_on_corpus(corpus, tmp_path / f"out{seed}", seed=seed)
            tabtext_scores.append(manifest["results"]["tabtext_auroc"])
            baseline_scores.append(manifest["results"]["baseline_auroc"])
        tab = float(np.mean(tabtext_scores))
        base = float(np.mean(baseline_scores))
        assert tab >= 0.90, f"TabText mean AUROC {tab:.3f} < 0.90"
        assert tab - base >= 0.05, f"gap {tab - base:.3f} < 0.05"


def test_criterion_8_informative_missingness(tmp_path):
    with criterion(
        8,
        "EncodeMissing beats KeepOriginal when only missingness carries signal (5 seeds)",
    ):
        gaps = []
        backend = HashingBackend()
        for seed in range(5):
            corpus = tmp_path / f"c{seed}"
            generate(
                CorpusSpec(seed=seed, n_entities=800, informative_missingness=True),
                corpus,
            )
            sources = corpus_sources(corpus)
            ids, labels = load_labels(corpus / "labels.csv")
            scores = {}
            for policy in (MissingPolicy.ENCODE_MISSING, MissingPolicy.KEEP_ORIGINAL):
                features = build_tabtext_features(
                    sources, ids, labels, SerializationConfig(missing_policy=policy), backend
                )
                scores[policy], _, _ = evaluate_features(features, SplitSpec(seed=seed))
            gaps.append(
                scores[MissingPolicy.ENCODE_MISSING] - scores[MissingPolicy.KEEP_ORIGINAL]
            )
        mean_gap = float(np.mean(gaps))
        assert mean_gap >= 0.05, f"mean gap {mean_gap:.3f} < 0.05"


def test_criterion_9_ablation_grid_shape(tmp_path):
    with criterion(
        9, "16-row ablation grid with recomputable axis means and one shared split", 300.0
    ):
        corpus = tmp_path / "corpus"
        generate(CorpusSpec(seed=9, n_entities=400), corpus)
        sources = corpus_sources(corpus)
        ids, labels = load_labels(corpus / "labels.csv")
        backend = HashingBackend(dim=256)

        def builder(config):
            return build_tabtext_features(sources, ids, labels, config, backend)

        report = run_ablation(builder, SplitSpec(seed=0), grid_points(SerializationConfig()))
        assert len(report.rows) == 16
        assert len({r.split_hash for r in report.rows}) == 1
        rendered = report.render()
        for column in ("Missing Handling", "Meta Info", "Descriptiveness", "Test AUC"):
            assert column in rendered
        means = report.axis_means()
        for policy, label in [
            (MissingPolicy.EXCLUDE, "Exclusion"),
            (MissingPolicy.ENCODE_MISSING, "Is missing"),
            (MissingPolicy.ZERO_PAD, "Is 0"),
            (MissingPolicy.KEEP_ORIGINAL, "Original"),
        ]:
            expected = np.mean(
                [r.test_auroc for r in report.rows if r.config.missing_policy is policy]
            )
            assert means["missing_policy"][label] == float(expected)
        for flag, label in [(True, "Include"), (False, "Does not Include")]:
            expected = np.mean(
                [r.test_auroc for r in report.rows if r.config.include_meta is flag]
            )
            assert means["include_meta"][label] == float(expected)
        best = report.rows[0].test_auroc
        assert all(best >= m for table in means.values() for m in table.values())


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "two identical compare runs are byte-identical"):
        corpus = tmp_path / "corpus"
        generate(CorpusSpec(seed=10, n_entities=120), corpus)
        first = _compare_on_corpus(corpus, tmp_path / "run_a")
        second = _compare_on_corpus(corpus, tmp_path / "run_b")
        assert first == second
        for name in ("manifest.json", "report.txt", "tabtext_features.csv", "baseline_features.csv"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
