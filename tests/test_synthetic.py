import filecmp
from pathlib import Path

import numpy as np
import pytest

from tabtext.data_model import load_schema, parse_table
from tabtext.embedding import HashingBackend
from tabtext.evaluation import SplitSpec, auroc, evaluate_features
from tabtext.pipeline import build_tabtext_features, load_labels
from tabtext.serializer import SerializationConfig
from tabtext.synthetic import CorpusSpec, generate, oracle_scores

FILES = (
    "demographics.csv",
    "demographics.schema.yaml",
    "vitals.csv",
    "vitals.schema.yaml",
    "labels.csv",
    "ground_truth.json",
)


def load_corpus_sources(corpus: Path):
    sources = []
    for name in ("demographics", "vitals"):
        schema = load_schema(corpus / f"{name}.schema.yaml")
        rows = parse_table((corpus / f"{name}.csv").read_bytes(), schema)
        sources.append((name, schema, rows))
    return sources


class TestGenerate:
    def test_default_spec_counts(self, tmp_path):
        generate(CorpusSpec(seed=0), tmp_path)
        ids, labels = load_labels(tmp_path / "labels.csv")
        assert len(ids) == 1590
        n_pos = sum(labels.values())
        assert abs(n_pos - 121) < 40  # ~121 positives at the default rate

    def test_emits_all_files(self, tmp_path):
        generate(CorpusSpec(seed=0, n_entities=20), tmp_path)
        for name in FILES:
            assert (tmp_path / name).exists()

    def test_files_parse_with_own_schemas(self, tmp_path):
        generate(CorpusSpec(seed=1, n_entities=30), tmp_path)
        demo, vitals = load_corpus_sources(tmp_path)
        assert len(demo[2]) == 30
        assert all(r.timestamp is not None for r in vitals[2])

    def test_zero_missingness_boundary(self, tmp_path):
        generate(CorpusSpec(seed=2, n_entities=50, missingness_rate=0.0), tmp_path)
        demo, _ = load_corpus_sources(tmp_path)
        assert not any(c.missing for row in demo[2] for c in row.cells.values())

    def test_same_seed_byte_identical(self, tmp_path):
        generate(CorpusSpec(seed=3, n_entities=40), tmp_path / "a")
        generate(CorpusSpec(seed=3, n_entities=40), tmp_path / "b")
        for name in FILES:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_different_seed_differs(self, tmp_path):
        generate(CorpusSpec(seed=4, n_entities=40), tmp_path / "a")
        generate(CorpusSpec(seed=5, n_entities=40), tmp_path / "b")
        assert not filecmp.cmp(
            tmp_path / "a" / "demographics.csv",
            tmp_path / "b" / "demographics.csv",
            shallow=False,
        )

    def test_informative_mode_uses_empty_missing_token(self, tmp_path):
        generate(
            CorpusSpec(seed=6, n_entities=60, informative_missingness=True), tmp_path
        )
        demo, _ = load_corpus_sources(tmp_path)
        tokens = {
            c.original_token
            for row in demo[2]
            for c in row.cells.values()
            if c.missing
        }
        assert tokens == {""}

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(positive_rate=1.5)


class TestOracle:
    def test_oracle_separates_classes(self, tmp_path):
        generate(CorpusSpec(seed=7, n_entities=300), tmp_path)
        _, scores, labels = oracle_scores(tmp_path)
        assert auroc(scores, labels) > 0.9

    def test_pipeline_never_beats_bayes(self, tmp_path):
        # over 20 seeds the pipeline AUROC must not exceed the generative
        # optimum by more than 3 sd of the per-seed differences
        diffs = []
        backend = HashingBackend(dim=128)
        for seed in range(20):
            corpus = tmp_path / f"c{seed}"
            generate(CorpusSpec(seed=seed, n_entities=250), corpus)
            _, scores, labels = oracle_scores(corpus)
            bayes = auroc(scores, labels)
            sources = load_corpus_sources(corpus)
            ids, label_map = load_labels(corpus / "labels.csv")
            features = build_tabtext_features(
                sources, ids, label_map, SerializationConfig(), backend
            )
            pipeline_auroc, _, _ = evaluate_features(features, SplitSpec(seed=0))
            diffs.append(pipeline_auroc - bayes)
        diffs = np.array(diffs)
        assert diffs.mean() <= 3 * diffs.std(ddof=1)
