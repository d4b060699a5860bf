import filecmp
import hashlib
from pathlib import Path

import numpy as np
import pytest

from tabtext.data_model import group_rows, load_schema, parse_table
from tabtext.embedding import HashingBackend
from tabtext.errors import ValidationError
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
        rows = parse_table(corpus / f"{name}.csv", schema)
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
        assert not any(c.missing for row in demo[2] for c in row.cells)

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
            c.raw
            for row in demo[2]
            for c in row.cells
            if c.missing
        }
        assert tokens == {""}

    @pytest.mark.parametrize(
        "informative, digests",
        [
            (False, {
                "demographics.csv": "68636f9e803739ea4696fb0854a273ec16b2fbdbd6c308a899768261c9e5a851",
                "vitals.csv": "96561633b0a16013fe64d9de6e2a52c754b161e4e4f203921404c0807949aba1",
                "ground_truth.json": "8658a869a638726430d05c6b8669d2ae8572d83831b121e74deb814549c72ba1",
            }),
            (True, {
                "demographics.csv": "5b3e67ae2dcd8e01bb390c142fd96044026cf6deb7a9a9986fa9755a7ed2c7b8",
                "vitals.csv": "873031123d9139c31f5760947c266912f56728b1f321002817230613a4892477",
                "ground_truth.json": "9c2696504dd947721a3b815a1d2b96f79ab91cdae8dd41cc2c07b4c990f244d4",
            }),
        ],
    )
    def test_corpus_bytes_are_pinned(self, tmp_path, informative, digests):
        # The same in both modes: the schemas are constants and the labels
        # are drawn before any mode-dependent draw.
        digests = {
            **digests,
            "demographics.schema.yaml": "49092676ec1eef908d557bcc596208224e8fbba032dd668e1504511cbdfecdcd",
            "vitals.schema.yaml": "c65b0ae4b6d5f89c033155498ca8f264f3b10c4b7a4ddc78fbd7052884eeb5cd",
            "labels.csv": "43c2f7e7d61a0c485e1b05c5ed4e6ab1f1306fa30200bcf74e13dd07205b6345",
        }
        generate(CorpusSpec(seed=3, n_entities=200, informative_missingness=informative), tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}
        assert got == digests

    def test_rate_validation(self):
        with pytest.raises(ValidationError, match=r"^positive_rate must be in \[0, 1\], not 1.5$"):
            CorpusSpec(positive_rate=1.5)
        with pytest.raises(ValidationError, match=r"^missingness_rate must be in \[0, 1\]"):
            CorpusSpec(missingness_rate=-0.1)
        with pytest.raises(ValidationError, match="^n_entities must be >= 0$"):
            CorpusSpec(n_entities=-1)
        with pytest.raises(ValidationError, match="^seed must be >= 0$"):
            CorpusSpec(seed=-1)
        CorpusSpec(n_entities=0, positive_rate=0, missingness_rate=1)


class TestOracle:
    @pytest.mark.parametrize("informative", [False, True], ids=["standard", "informative"])
    def test_oracle_separates_classes(self, tmp_path, informative):
        spec = CorpusSpec(seed=7, n_entities=300, informative_missingness=informative)
        generate(spec, tmp_path)
        _, scores, labels = oracle_scores(tmp_path, spec)
        assert auroc(scores, labels) > 0.9

    def test_pipeline_never_beats_bayes(self, tmp_path):
        # over 20 seeds the pipeline AUROC must not exceed the generative
        # optimum by more than 3 sd of the per-seed differences
        diffs = []
        backend = HashingBackend(dim=128)
        for seed in range(20):
            corpus = tmp_path / f"c{seed}"
            spec = CorpusSpec(seed=seed, n_entities=250)
            generate(spec, corpus)
            _, scores, labels = oracle_scores(corpus, spec)
            bayes = auroc(scores, labels)
            ids, label_map = load_labels(corpus / "labels.csv")
            sources = [(name, schema, group_rows(name, schema, rows, ids))
                       for name, schema, rows in load_corpus_sources(corpus)]
            features = build_tabtext_features(
                sources, ids, label_map, SerializationConfig(), backend
            )
            pipeline_auroc, _, _ = evaluate_features(features, SplitSpec(seed=0))
            diffs.append(pipeline_auroc - bayes)
        diffs = np.array(diffs)
        assert diffs.mean() <= 3 * diffs.std(ddof=1)
