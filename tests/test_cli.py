import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tabtext.baseline import FeatureMatrix
from tabtext.cli import main
from tabtext.data_model import load_schema, parse_table
from tabtext.embedding import HashingBackend, embed_text
from tabtext.pipeline import RunConfig, build_tabtext_features
from tabtext.serializer import SerializationConfig, serialize_row
from tabtext.synthetic import CorpusSpec, generate


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate(CorpusSpec(seed=0, n_entities=80), path)
    return path


def write_config(corpus: Path, out_dir: Path, **overrides) -> Path:
    doc = {
        "sources": [
            {"data": "demographics.csv", "schema": "demographics.schema.yaml"},
            {"data": "vitals.csv", "schema": "vitals.schema.yaml"},
        ],
        "labels": "labels.csv",
        "serialization": {"missing_policy": "encode_missing", "include_meta": True},
        "embedding": {"backend": "hashing", "dim": 64},
        "temporal": {"normalize": True},
        "evaluation": {"train_fraction": 0.8, "seed": 0, "stratified": True},
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    path = corpus / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_gen_corpus_command(tmp_path):
    code = main(["gen-corpus", "--out", str(tmp_path / "c"), "--seed", "1", "--n-entities", "25"])
    assert code == 0
    assert (tmp_path / "c" / "demographics.csv").exists()


def test_serialize_embed_aggregate_chain(corpus, tmp_path):
    sentences = tmp_path / "vitals.tsv"
    code = main(
        [
            "serialize",
            "--data", str(corpus / "vitals.csv"),
            "--schema", str(corpus / "vitals.schema.yaml"),
            "--out", str(sentences),
        ]
    )
    assert code == 0
    lines = sentences.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 3 for line in lines)

    embeddings = tmp_path / "vitals_emb.csv"
    assert main(
        ["embed", "--in", str(sentences), "--out", str(embeddings), "--dim", "32"]
    ) == 0
    header = embeddings.read_text().splitlines()[0].split(",")
    assert header[:2] == ["entity_id", "timestamp"] and len(header) == 34

    features = tmp_path / "vitals_feat.csv"
    assert main(["aggregate", "--in", str(embeddings), "--out", str(features)]) == 0
    rows = features.read_text().splitlines()
    assert len(rows) == 81  # header + one vector per entity


def test_serialize_static_has_two_columns(corpus, tmp_path):
    out = tmp_path / "demo.tsv"
    assert main(
        [
            "serialize",
            "--data", str(corpus / "demographics.csv"),
            "--schema", str(corpus / "demographics.schema.yaml"),
            "--out", str(out),
        ]
    ) == 0
    assert all(len(line.split("\t")) == 2 for line in out.read_text().splitlines())


def test_baseline_and_eval(corpus, tmp_path, capsys):
    config = write_config(corpus, tmp_path / "out")
    features = tmp_path / "base.csv"
    assert main(["baseline", "--config", str(config), "--out", str(features)]) == 0
    assert main(["eval", "--features", str(features), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "test AUROC:" in out


def test_compare_writes_manifest(corpus, tmp_path, capsys):
    config = write_config(corpus, tmp_path / "out")
    assert main(["compare", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest) == {"backend_id", "config_hash", "outputs", "results", "split_hash"}
    assert (tmp_path / "out" / "report.txt").exists()
    out = capsys.readouterr().out
    assert "TabText AUROC" in out


def test_ablate_reports_sixteen_rows(corpus, tmp_path):
    config = write_config(corpus, tmp_path / "out")
    assert main(["ablate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "ablation_report.json").read_text())
    assert len(report["rows"]) == 16


def test_missing_schema_path_is_validation_error(corpus, tmp_path):
    config = write_config(
        corpus,
        tmp_path / "out",
        sources=[{"data": "demographics.csv", "schema": "nope.yaml"}],
    )
    assert main(["compare", "--config", str(config)]) == 1


def test_unknown_backend_is_backend_error(corpus, tmp_path):
    config = write_config(
        corpus, tmp_path / "out", embedding={"backend": "quantum", "dim": 8}
    )
    assert main(["compare", "--config", str(config)]) == 3


def test_unreachable_remote_backend_exit_code(corpus, tmp_path):
    config = write_config(
        corpus,
        tmp_path / "out",
        embedding={"backend": "remote", "dim": 8, "url": "http://127.0.0.1:9/embed"},
    )
    assert main(["compare", "--config", str(config)]) == 3


def test_bad_flag_usage_is_validation_error():
    assert main(["eval"]) == 1


def test_baseline_without_labels_is_validation_error(corpus, tmp_path, capsys):
    config = write_config(corpus, tmp_path / "out", labels=None)
    assert main(["baseline", "--config", str(config)]) == 1
    assert "validation error: baseline requires a labels file" in capsys.readouterr().err


SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("embed", "--dim", "0"),
        ("embed", "--max-chars", "0"),
        ("gen-corpus", "--positive-rate", "2"),
        ("gen-corpus", "--missingness-rate", "2"),
        ("gen-corpus", "--n-entities", "-1"),
    ],
)
def test_out_of_range_flag_is_usage_error(tmp_path, command, flag, value):
    sentences = tmp_path / "sentences.tsv"
    sentences.write_text("p1\tfine\n")
    args = ["--out", str(tmp_path / "out")]
    if command == "embed":
        args += ["--in", str(sentences)]
    result = subprocess.run(
        [sys.executable, "-m", "tabtext.cli", command, *args, flag, value],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert result.returncode == 1
    assert f"Invalid value for '{flag}'" in result.stderr
    assert "Traceback" not in result.stderr


def modules_loaded_by_import(names):
    code = f"import sys, tabtext.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=SRC_ENV
    )
    return result.stdout.strip()


def test_import_loads_neither_scipy_nor_numba():
    assert modules_loaded_by_import({"scipy", "numba"}) == "[]"


def test_import_loads_no_http_client_or_sqlite():
    # The remote backend and the disk cache import these when they are used.
    names = {"requests", "urllib.request", "http.client", "sqlite3"}
    assert modules_loaded_by_import(names) == "[]"


def write_embeddings(tmp_path, *rows):
    path = tmp_path / "emb.csv"
    path.write_text("entity_id,timestamp,e0,e1\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "rows",
    [
        ("p1,,1.0,0.0", "p1,2.0,0.0,1.0"),  # empty and numeric timestamps mixed
        ("p1,,1.0,0.0", "p1,,0.0,1.0"),  # two static rows
        ("p1,x,1.0,0.0",),  # timestamp is not a number
        ("p1,1.0,1.0",),  # fewer values than the header
        ("p1,2.0,1e308,0.5", "p1,3.0,1e308,0.25"),  # the weighted sum overflows
    ],
)
def test_aggregate_bad_input_is_validation_error(tmp_path, rows, capsys):
    embeddings = write_embeddings(tmp_path, *rows)
    assert main(["aggregate", "--in", str(embeddings), "--out", str(tmp_path / "f.csv")]) == 1
    assert "validation error" in capsys.readouterr().err


def test_aggregate_empty_file_is_validation_error(tmp_path, capsys):
    embeddings = tmp_path / "emb.csv"
    embeddings.write_text("")
    assert main(["aggregate", "--in", str(embeddings), "--out", str(tmp_path / "f.csv")]) == 1
    assert "validation error" in capsys.readouterr().err


def test_aggregate_header_only_file_writes_header_only(tmp_path):
    embeddings = tmp_path / "emb.csv"
    embeddings.write_text("entity_id,timestamp,e0,e1\n")
    out = tmp_path / "f.csv"
    assert main(["aggregate", "--in", str(embeddings), "--out", str(out)]) == 0
    assert out.read_text() == "entity_id,e0,e1\n"


def test_aggregate_static_and_series_entities(tmp_path):
    embeddings = write_embeddings(
        tmp_path, "p1,,0.5,0.25", "p2,1.0,1.0,0.0", "p2,3.0,0.0,1.0"
    )
    out = tmp_path / "f.csv"
    assert main(["aggregate", "--in", str(embeddings), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "entity_id,e0,e1", "p1,0.5,0.25", "p2,0.25,0.75",
    ]


def test_ablate_train_fraction_zero_is_validation_error(corpus, tmp_path):
    config = write_config(corpus, tmp_path / "out")
    assert main(["ablate", "--config", str(config), "--train-fraction", "0"]) == 1


def test_aggregate_reads_quoted_entity_ids(tmp_path):
    embeddings = write_embeddings(tmp_path, '"a,b",,0.5,0.25', '"x\ny",1.0,1.0,0.0')
    out = tmp_path / "f.csv"
    assert main(["aggregate", "--in", str(embeddings), "--out", str(out)]) == 0
    assert FeatureMatrix.from_csv(out).entity_ids == ["a,b", "x\ny"]


def test_embed_output_matches_repr_of_every_value(corpus, tmp_path):
    sentences = tmp_path / "vitals.tsv"
    assert main(
        [
            "serialize",
            "--data", str(corpus / "vitals.csv"),
            "--schema", str(corpus / "vitals.schema.yaml"),
            "--out", str(sentences),
        ]
    ) == 0
    embeddings = tmp_path / "emb.csv"
    assert main(["embed", "--in", str(sentences), "--out", str(embeddings), "--dim", "32"]) == 0
    backend = HashingBackend(dim=32)
    expected = ["entity_id,timestamp," + ",".join(f"e{i}" for i in range(32))]
    for line in sentences.read_text().splitlines():
        entity, timestamp, sentence = line.split("\t")
        vector = embed_text(sentence, backend)
        expected.append(",".join([entity, timestamp] + [repr(float(v)) for v in vector]))
    assert embeddings.read_text() == "\n".join(expected) + "\n"


NOTES_SCHEMA = """\
meta: {table_title: Notes}
entity_column: id
columns:
  - {name: id, kind: categorical}
  - {name: note, kind: free_text}
"""


def test_serialize_embed_keeps_tabs_and_line_breaks(tmp_path):
    schema_path = tmp_path / "notes.schema.yaml"
    schema_path.write_text(NOTES_SCHEMA)
    data = tmp_path / "notes.csv"
    data.write_text(
        'id,note\n'
        'p1,"first line\nsecond\tcolumn"\n'
        '"p,2","back\\slash \\t not a tab\r\nend"\n'
        'p3,plain\u2028text\n'
    )
    sentences = tmp_path / "notes.tsv"
    assert main(
        ["serialize", "--data", str(data), "--schema", str(schema_path), "--out", str(sentences)]
    ) == 0
    assert len(sentences.read_text().split("\n")) == 4  # three records, final newline
    embeddings = tmp_path / "emb.csv"
    assert main(["embed", "--in", str(sentences), "--out", str(embeddings), "--dim", "32"]) == 0

    schema = load_schema(schema_path)
    rows = parse_table(data.read_bytes(), schema)
    with open(embeddings, encoding="utf-8", newline="") as handle:
        records = list(csv.reader(handle))[1:]
    assert [r[0] for r in records] == [row.entity_id for row in rows] == ["p1", "p,2", "p3"]
    backend = HashingBackend(dim=32)
    for row, record in zip(rows, records):
        sentence = serialize_row(schema, row, SerializationConfig())
        assert [float(v) for v in record[2:]] == embed_text(sentence, backend).tolist()


# sha256 of the feature CSVs that `compare` writes for `gen-corpus
# --n-entities 150 --seed 0` under the default configuration. A change to a
# writer that alters any output byte fails here.
COMPARE_150_DIGESTS = {
    "tabtext_features.csv": "1106a520df428a4aae88131066bd903cfc6a36f8c842473c3f5a350e2fede63d",
    "baseline_features.csv": "7fe4f973ce953a9153774f71af44da473b5972fce068eb51df4f1eaec608c126",
}


def test_compare_feature_csv_bytes_are_stable(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--n-entities", "150", "--seed", "0"]) == 0
    config = tmp_path / "run.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "sources": [
                    {"data": "corpus/demographics.csv", "schema": "corpus/demographics.schema.yaml"},
                    {"data": "corpus/vitals.csv", "schema": "corpus/vitals.schema.yaml"},
                ],
                "labels": "corpus/labels.csv",
                "output_dir": "out",
            }
        )
    )
    assert main(["compare", "--config", str(config)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in COMPARE_150_DIGESTS
    }
    assert digests == COMPARE_150_DIGESTS


# sha256 of compare's report.txt at `--repeats 3` on the 80-entity corpus:
# the mean +/- sd of test AUROC over three seeded splits for each pipeline.
COMPARE_REPEATS_3_REPORT = "cda07a6415490827e49cb6a5aa6deb96701fdd6359f58050739fb8484e6d4c96"


def test_compare_repeated_report_bytes_are_stable(corpus, tmp_path):
    config = write_config(corpus, tmp_path / "out")
    assert main(["compare", "--config", str(config), "--repeats", "3"]) == 0
    report = (tmp_path / "out" / "report.txt").read_bytes()
    assert report.count(b" +/- ") == 2
    assert hashlib.sha256(report).hexdigest() == COMPARE_REPEATS_3_REPORT


@pytest.mark.parametrize(
    "body",
    [
        "p1,1,0.5,0.5\np2,0,0.5\n",  # short row
        "p1,1,0.5,0.5\np2,0,x,0.5\n",  # non-numeric cell
        "p1,1,0.5,0.5\np2,2,0.5,0.5\n",  # label outside {0, 1}
        "p1,1,0.5,0.5\np2,0,nan,0.5\n",  # non-finite cell
    ],
)
def test_eval_bad_feature_csv_is_validation_error(tmp_path, body, capsys):
    features = tmp_path / "f.csv"
    features.write_text("entity_id,label,f0,f1\n" + body)
    assert main(["eval", "--features", str(features)]) == 1
    assert "line 3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "p2 no tab",
        "p2\t1.0\tmiddle\tsentence",
        "p2\tsoon\tsentence",
        "p2\tinf\tsentence",
        "p2\t\tsentence",
    ],
)
def test_embed_malformed_sentence_line_is_validation_error(tmp_path, line, capsys):
    sentences = tmp_path / "s.tsv"
    sentences.write_text(f"p1\t1.0\tfine\n{line}\n")
    out = tmp_path / "emb.csv"
    assert main(["embed", "--in", str(sentences), "--out", str(out), "--dim", "8"]) == 1
    assert "line 2:" in capsys.readouterr().err
    assert not out.exists()


SERIES_NOTES_SCHEMA = """\
meta: {table_title: Notes}
entity_column: id
time_column: t
columns:
  - {name: id, kind: categorical}
  - {name: t, kind: timestamp}
  - {name: note, kind: free_text}
"""

AWKWARD_TEXT = st.text(alphabet=[",", '"', "\t", "\r", "\n", "\u2028", "\\", " ", "a", "é", "日"])


@settings(max_examples=50, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(["p1", "a,b", 'q"t', "x\r\ny\tz", "é "]) | AWKWARD_TEXT,
            st.floats(0, 1e6),
            AWKWARD_TEXT,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_cli_stages_match_in_process_features(records):
    """serialize -> embed -> aggregate through the stage files gives, per
    entity, the bits that build_tabtext_features gives in one process."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        schema_path = tmp / "notes.schema.yaml"
        schema_path.write_text(SERIES_NOTES_SCHEMA)
        data = tmp / "notes.csv"
        with open(data, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "t", "note"])
            writer.writerows((e, repr(t), note) for e, t, note in records)
        for args in (
            ["serialize", "--data", str(data), "--schema", str(schema_path),
             "--out", str(tmp / "s.tsv")],
            ["embed", "--in", str(tmp / "s.tsv"), "--out", str(tmp / "e.csv"), "--dim", "16"],
            ["aggregate", "--in", str(tmp / "e.csv"), "--out", str(tmp / "f.csv")],
        ):
            assert main(args) == 0
        staged = FeatureMatrix.from_csv(tmp / "f.csv")

        schema = load_schema(schema_path)
        rows = parse_table(data.read_bytes(), schema)
        universe = list(dict.fromkeys(row.entity_id for row in rows))
        expected = build_tabtext_features(
            [("notes", schema, rows)], universe, None, SerializationConfig(),
            HashingBackend(dim=16),
        )
    assert staged.entity_ids == universe
    for got, want in zip(staged.values, expected.values):
        assert got.tobytes() == want.tobytes()


# sha256 of the ablation reports that `ablate` writes for `gen-corpus
# --n-entities 60 --seed 3 --positive-rate 0.3` with a 32-d hashing backend.
# A change to the grid order, the axis labels, the report layout or the sort
# fails here.
ABLATION_DIGESTS = {
    "": {
        "ablation_report.json": "87a4967e6df9febd926881d988203049161773df139898f7e85da08070033e12",
        "ablation_report.txt": "c196949bb691899f8ce241e9cb46af00087ca23cd2513c0321d7575af5338514",
    },
    "--grid-extended": {
        "ablation_report.json": "826a7d0bd98675ee31196bdff5af942051772a433ff856d4354feb0e61f40e67",
        "ablation_report.txt": "d3c547b0ad5e222892d3670cd15fb6d25429e30aa178dfc6869cf88d4e376e6a",
    },
}


@pytest.mark.parametrize("flag", sorted(ABLATION_DIGESTS))
def test_ablation_report_bytes_are_stable(tmp_path, flag, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--n-entities", "60", "--seed", "3",
                 "--positive-rate", "0.3"]) == 0
    config = tmp_path / "run.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "sources": [
                    {"data": "corpus/demographics.csv", "schema": "corpus/demographics.schema.yaml"},
                    {"data": "corpus/vitals.csv", "schema": "corpus/vitals.schema.yaml"},
                ],
                "labels": "corpus/labels.csv",
                "embedding": {"dim": 32},
                "output_dir": "out",
            }
        )
    )
    capsys.readouterr()
    assert main(["ablate", "--config", str(config), *filter(None, [flag])]) == 0
    text = (tmp_path / "out" / "ablation_report.txt").read_text()
    assert capsys.readouterr().out == text + "\n"
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ABLATION_DIGESTS[flag]
    }
    assert digests == ABLATION_DIGESTS[flag]


def test_ablate_honours_repeats(corpus, tmp_path):
    """At repeats 3 every ablation row holds the mean and the sd of its test
    AUROC over three splits; the reports differ from those of one split."""
    reports = {}
    for repeats in (1, 3):
        out = tmp_path / f"out{repeats}"
        config = write_config(
            corpus, out, evaluation={"seed": 0, "repeats": repeats}, embedding={"dim": 32}
        )
        assert main(["ablate", "--config", str(config)]) == 0
        reports[repeats] = [(out / name).read_bytes() for name in ABLATION_DIGESTS[""]]
    rows = json.loads(reports[3][0])["rows"]
    assert len(rows) == 16 and all(row["test_auroc_sd"] > 0 for row in rows)
    assert "test_auroc_sd" not in json.loads(reports[1][0])["rows"][0]
    assert reports[3][1].count(b" +/- ") == 16
    assert all(a != b for a, b in zip(reports[1], reports[3]))


BAD_CONFIGS = [
    ({"embeding": {"dim": 8}}, "embeding"),
    ({"serialization": {"missing_polcy": "exclude"}}, "missing_polcy"),
    ({"embedding": {"backend": "hashing", "dimm": 8}}, "dimm"),
    ({"temporal": {"normalise": False}}, "normalise"),
    ({"evaluation": {"sead": 1}}, "sead"),
    ({"baseline": {"max_categorys": 5}}, "max_categorys"),
    ({"sources": [{"data": "vitals.csv", "schema": "vitals.schema.yaml", "shema": "x"}]},
     "shema"),
    ({"sources": [{"name": "v", "data": None, "schema": "vitals.schema.yaml"}]}, "data"),
    ({"sources": [{"name": 5, "data": "vitals.csv", "schema": "vitals.schema.yaml"}]}, "name"),
    ({"serialization": {"include_meta": "false"}}, "include_meta"),
    ({"serialization": {"descriptive": "no"}}, "descriptive"),
    ({"temporal": {"normalize": "yes"}}, "normalize"),
    ({"evaluation": {"stratified": 1}}, "stratified"),
    ({"embedding": {"model_dir": "/path/to/model"}}, "model_dir"),
]


@pytest.mark.parametrize("overrides, key", BAD_CONFIGS, ids=[key for _, key in BAD_CONFIGS])
def test_bad_config_key_or_flag_is_validation_error(corpus, tmp_path, overrides, key, capsys):
    config = write_config(corpus, tmp_path / "out", **overrides)
    assert main(["compare", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


# Values of another type than a key's default, by the type of the default.
WRONG_TYPES = {bool: [1], int: ["3", True, 2.7], float: ["0.5"], str: [5], list: [{}], dict: [5]}


def wrong_type_configs():
    """(config overrides, key) for each wrong-typed value of each config key,
    from the sections of a default RunConfig."""
    for name, section in RunConfig([], None, SerializationConfig()).sections().items():
        for value in WRONG_TYPES.get(type(section), []):
            yield pytest.param({name: value}, name, id=f"{name}={value!r}")
        for key, default in (section.items() if isinstance(section, dict) else []):
            for value in WRONG_TYPES.get(type(default), []):
                yield pytest.param({name: {key: value}}, key, id=f"{name}.{key}={value!r}")


@pytest.mark.parametrize("overrides, key", wrong_type_configs())
def test_config_value_of_the_wrong_type_is_validation_error(
    corpus, tmp_path, overrides, key, capsys
):
    config = write_config(corpus, tmp_path / "out", **overrides)
    assert main(["compare", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


BAD_VALUES = [
    ({"labels": 5}, "labels"),
    ({"output_dir": None}, "output_dir"),
    ({"embedding": {"cache": 5}}, "cache"),
    ({"baseline": {"max_categories": 0}}, "max_categories"),
    ({"evaluation": {"repeats": 0}}, "repeats"),
    ({"sources": []}, "sources"),
    ({"embedding": {"backend": "remote", "url": 5}}, "url"),
    ({"sources": [{"name": "demo", "data": f"{n}.csv", "schema": f"{n}.schema.yaml"}
                  for n in ("demographics", "vitals")]}, "demo"),
]


@pytest.mark.parametrize("overrides, key", BAD_VALUES, ids=[key for _, key in BAD_VALUES])
def test_config_value_out_of_range_is_validation_error(corpus, tmp_path, overrides, key, capsys):
    config = write_config(corpus, tmp_path / "out", **overrides)
    assert main(["compare", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "compare", "ablate", "config"])
def test_negative_seed_is_validation_error(corpus, tmp_path, command, capsys):
    features = tmp_path / "features.csv"
    features.write_text("entity_id,label,f0\np1,1,0.5\np2,0,0.1\np3,1,0.7\np4,0,0.2\n")
    config = str(write_config(
        corpus, tmp_path / "out", evaluation={"seed": -3} if command == "config" else {}
    ))
    args = {
        "eval": ["eval", "--features", str(features), "--seed", "-1"],
        "compare": ["compare", "--config", config, "--seed", "-1"],
        "ablate": ["ablate", "--config", config, "--seed", "-2"],
        "config": ["compare", "--config", config],
    }[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: seed must be >= 0") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_labels_file_without_entity_is_validation_error(corpus, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("entity_id,label\n")
    config = write_config(corpus, tmp_path / "out", labels=str(labels))
    assert main(["compare", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"validation error: {labels}: lists no entity\n"


# A field longer than csv's limit of 131,072 characters.
OVERSIZED = "x" * 200_000
OVERSIZED_FILES = {
    "eval": ("features.csv", f"entity_id,label,f0\np1,1,{OVERSIZED}\n", "--features"),
    "serialize": ("notes.csv", f"id,note\np1,{OVERSIZED}\n", "--data"),
}


@pytest.mark.parametrize("command", sorted(OVERSIZED_FILES))
def test_field_over_the_csv_limit_is_validation_error(tmp_path, command, capsys):
    name, content, option = OVERSIZED_FILES[command]
    path = tmp_path / name
    path.write_text(content)
    schema = tmp_path / "notes.schema.yaml"
    schema.write_text(NOTES_SCHEMA)
    args = [option, str(path)]
    if command == "serialize":
        args += ["--schema", str(schema), "--out", str(tmp_path / "out.tsv")]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {path}") and "line 2: field larger" in err


@pytest.mark.parametrize(
    "text", [b"sources: [\n", b"labels: caf\xff\n"], ids=["yaml-syntax", "not-utf8"]
)
def test_unreadable_config_file_is_validation_error(tmp_path, text, capsys):
    config = tmp_path / "run.yaml"
    config.write_bytes(text)
    assert main(["compare", "--config", str(config)]) == 1
    assert f"validation error: {config}: " in capsys.readouterr().err


def test_short_data_record_is_validation_error_naming_the_file(corpus, tmp_path, capsys):
    schema = tmp_path / "notes.schema.yaml"
    schema.write_text(NOTES_SCHEMA)
    data = tmp_path / "notes.csv"
    data.write_text("id,note\np1,fine\np2\n")
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.tsv")]
    assert main(["serialize", *args]) == 1
    config = write_config(
        corpus, tmp_path / "out", sources=[{"data": str(data), "schema": str(schema)}]
    )
    assert main(["compare", "--config", str(config)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith(f"validation error: {data}: line 3:") for line in lines)


def test_negative_timestamp_is_validation_error_naming_the_file(corpus, tmp_path, capsys):
    schema = tmp_path / "notes.schema.yaml"
    schema.write_text(SERIES_NOTES_SCHEMA)
    data = tmp_path / "notes.csv"
    data.write_text("id,t,note\np1,1.0,fine\np2,-5,early\n")
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.tsv")]
    assert main(["serialize", *args]) == 1
    config = write_config(
        corpus, tmp_path / "out", sources=[{"data": str(data), "schema": str(schema)}]
    )
    assert main(["compare", "--config", str(config)]) == 1
    assert main(["baseline", "--config", str(config)]) == 1
    message = f"validation error: {data}: line 3: negative timestamp '-5' in column 't'"
    assert capsys.readouterr().err.splitlines() == [message] * 3


def huge_timestamp_config(corpus: Path, tmp_path: Path, rows: int) -> Path:
    """A run config over a copy of the corpus's vitals table whose first
    ``rows`` rows of entity p00000 (of 3) take the timestamp 1e308."""
    lines = (corpus / "vitals.csv").read_text().splitlines()
    targets = [i for i, line in enumerate(lines) if line.startswith("p00000,")][:rows]
    for i in targets:
        entity, _, rest = lines[i].split(",", 2)
        lines[i] = f"{entity},1e308,{rest}"
    vitals = tmp_path / "vitals.csv"
    vitals.write_text("\n".join(lines) + "\n")
    sources = [
        {"data": "demographics.csv", "schema": "demographics.schema.yaml"},
        {"data": str(vitals), "schema": "vitals.schema.yaml"},
    ]
    return write_config(corpus, tmp_path / "out", sources=sources)


def test_overflowing_timestamps_are_validation_error_naming_the_entity(
    corpus, tmp_path, capsys
):
    config = huge_timestamp_config(corpus, tmp_path, rows=3)
    assert main(["compare", "--config", str(config)]) == 1
    assert main(["ablate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    message = (
        "validation error: source 'vitals': the timestamp-weighted sum of entity "
        "'p00000' overflows (overflow encountered in reduce)"
    )
    assert [line for line in err.splitlines() if "error" in line] == [message] * 2
    assert "Warning" not in err and "Traceback" not in err


# sha256 of compare's tabtext_features.csv on the 80-entity corpus with one
# vitals row of p00000 at timestamp 1e308, which outweighs its other rows.
ONE_HUGE_TIMESTAMP_FEATURES = "dc35ffabd15bdd8949351b09ef3caba6d5d5b70088b85b9e1cf19d9b64c39f7c"


def test_one_huge_timestamp_keeps_its_feature_bytes(corpus, tmp_path):
    config = huge_timestamp_config(corpus, tmp_path, rows=1)
    assert main(["compare", "--config", str(config)]) == 0
    features = (tmp_path / "out" / "tabtext_features.csv").read_bytes()
    assert hashlib.sha256(features).hexdigest() == ONE_HUGE_TIMESTAMP_FEATURES


@pytest.mark.parametrize("fraction, part", [(0.95, "test"), (0.05, "train")])
def test_split_part_without_a_class_names_train_fraction(
    corpus, tmp_path, fraction, part, capsys
):
    config = write_config(corpus, tmp_path / "out", evaluation={"train_fraction": fraction})
    assert main(["compare", "--config", str(config)]) == 1
    assert main(["ablate", "--config", str(config)]) == 1
    message = (
        f"validation error: train_fraction {fraction} leaves no entity of class 1 in the "
        f"{part} part of the split with seed 0"
    )
    assert capsys.readouterr().err.splitlines()[-2:] == [message] * 2


NOT_UTF8 = {
    "eval": ("features.csv", b"entity_id,label,f0\np1,1,0.5\np2,0,\xff\n", "--features"),
    "embed": ("sentences.tsv", b"p1\tfine\np2\tcaf\xff\n", "--in"),
    "serialize": ("notes.csv", b"id,note\np1,caf\xff\n", "--data"),
}


@pytest.mark.parametrize("command", sorted(NOT_UTF8))
def test_file_that_is_not_utf8_is_validation_error(tmp_path, command, capsys):
    name, content, option = NOT_UTF8[command]
    path = tmp_path / name
    path.write_bytes(content)
    schema = tmp_path / "notes.schema.yaml"
    schema.write_text(NOTES_SCHEMA)
    args = [option, str(path)]
    if command != "eval":
        args += ["--out", str(tmp_path / "out")]
    if command == "serialize":
        args += ["--schema", str(schema)]
    assert main([command, *args]) == 1
    assert f"validation error: {path}: " in capsys.readouterr().err


def test_concurrent_runs_share_one_cache_and_match_a_run_without_it(corpus, tmp_path):
    sentences = tmp_path / "vitals.tsv"
    args = ["--schema", str(corpus / "vitals.schema.yaml"), "--out", str(sentences)]
    assert main(["serialize", "--data", str(corpus / "vitals.csv"), *args]) == 0
    embed = ["embed", "--in", str(sentences), "--dim", "32"]
    assert main([*embed, "--out", str(tmp_path / "plain.csv")]) == 0
    cache = ["--cache", str(tmp_path / "cache")]
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "tabtext.cli", *embed, *cache, "--out", str(tmp_path / name)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=SRC_ENV,
        )
        for name in ("a.csv", "b.csv")
    ]
    for run in runs:
        _, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
    assert main([*embed, *cache, "--out", str(tmp_path / "warm.csv")]) == 0
    expected = (tmp_path / "plain.csv").read_bytes()
    for name in ("a.csv", "b.csv", "warm.csv"):
        assert (tmp_path / name).read_bytes() == expected
    assert os.listdir(tmp_path / "cache") == ["embeddings.sqlite3"]


def unusable_cache(tmp_path: Path, case: str) -> Path:
    """A cache directory that holds a file that is not a database, or that
    cannot be made because a file is in the way."""
    if case == "not-a-database":
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "embeddings.sqlite3").write_text("not a database\n")
        return tmp_path / "c"
    (tmp_path / "f").write_text("")
    return tmp_path / "f" if case == "a-file" else tmp_path / "f" / "c"


@pytest.mark.parametrize("case", ["not-a-database", "a-file", "under-a-file"])
def test_unusable_cache_is_backend_error_naming_the_file(tmp_path, case, capsys):
    cache = unusable_cache(tmp_path, case)
    sentences = tmp_path / "s.tsv"
    sentences.write_text("p1\tfine\n")
    args = ["--in", str(sentences), "--out", str(tmp_path / "e.csv"), "--cache", str(cache)]
    assert main(["embed", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"backend error: embedding cache {cache / 'embeddings.sqlite3'}: ")


BAD_SCHEMAS = {
    "column-key": (NOTES_SCHEMA.replace("kind: free_text", "kind: free_text, lable: Note"),
                   "'lable'"),
    "meta-key": (NOTES_SCHEMA.replace("table_title", "titel"), "'titel'"),
    "top-level-key": (NOTES_SCHEMA.replace("entity_column", "entity_colum"), "'entity_colum'"),
    "yaml-syntax": ("entity_column: [id\n", ""),
    "not-utf8": ("entity_column: caf\udcff\n", ""),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEMAS))
def test_bad_schema_file_is_validation_error_naming_the_file(tmp_path, case, capsys):
    text, key = BAD_SCHEMAS[case]
    schema = tmp_path / "notes.schema.yaml"
    schema.write_bytes(text.encode("utf-8", "surrogateescape"))
    data = tmp_path / "notes.csv"
    data.write_text("id,note\np1,x\n")
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.tsv")]
    assert main(["serialize", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {schema}: ") and key in err
    assert not (tmp_path / "s.tsv").exists()
