import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tabtext.baseline import FeatureMatrix
from tabtext.cli import main
from tabtext.data_model import group_rows, load_schema, parse_table
from tabtext.embedding import HashingBackend, embed_text
from tabtext.errors import ValidationError
from tabtext.evaluation import SplitSpec, split
from tabtext.formats import load_labels
from tabtext.pipeline import RunConfig, build_tabtext_features, load_inputs, load_run_config
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


def read_records(path):
    """The records of a CSV file, its header first."""
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def sentence_csv(tmp_path, *records):
    """A sentence CSV of the given records, each a line of text."""
    path = tmp_path / "s.csv"
    path.write_text("entity_id,timestamp,sentence\n" + "".join(f"{r}\n" for r in records))
    return path


def test_serialize_embed_aggregate_chain(corpus, tmp_path):
    sentences = tmp_path / "sentences.csv"
    code = main(
        [
            "serialize",
            "--data", str(corpus / "vitals.csv"),
            "--schema", str(corpus / "vitals.schema.yaml"),
            "--out", str(sentences),
        ]
    )
    assert code == 0
    header, *records = read_records(sentences)
    assert header == ["entity_id", "timestamp", "sentence"]
    assert records and all(len(r) == 3 and float(r[1]) >= 0 for r in records)

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


def test_serialize_static_has_empty_timestamps(corpus, tmp_path):
    out = tmp_path / "demo.csv"
    assert main(
        [
            "serialize",
            "--data", str(corpus / "demographics.csv"),
            "--schema", str(corpus / "demographics.schema.yaml"),
            "--out", str(out),
        ]
    ) == 0
    header, *records = read_records(out)
    assert header == ["entity_id", "timestamp", "sentence"]
    assert records and all(len(r) == 3 and r[1] == "" for r in records)


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


def test_ablate_keeps_the_configs_source_combination(corpus, tmp_path):
    config = write_config(corpus, tmp_path / "out",
                          serialization={"combine_sources": "single_paragraph"})
    assert main(["ablate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "ablation_report.json").read_text())
    assert len(report["rows"]) == 16
    assert {row["combine_sources"] for row in report["rows"]} == {"single_paragraph"}


def test_missing_schema_path_is_validation_error(corpus, tmp_path):
    config = write_config(
        corpus,
        tmp_path / "out",
        sources=[{"data": "demographics.csv", "schema": "nope.yaml"}],
    )
    assert main(["compare", "--config", str(config)]) == 1


FIRST_GRID_POINT = (
    "{'missing_policy': 'exclude', 'include_meta': True, 'descriptive': True, "
    "'combine_sources': 'separate'}"
)


@pytest.mark.parametrize("command", ["compare", "ablate"])
def test_unreachable_remote_backend_exit_code(corpus, tmp_path, command, capsys):
    config = write_config(
        corpus,
        tmp_path / "out",
        embedding={"backend": "remote", "dim": 8, "url": "http://127.0.0.1:9/embed"},
    )
    assert main([command, "--config", str(config)]) == 3
    name = {"compare": "features", "ablate": f"ablate {FIRST_GRID_POINT}"}[command]
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"backend error: stage '{name}': embedding service unreachable: ")
    assert not (tmp_path / "out").exists()


# A function each command runs inside a stage, and the name of that stage.
STAGE_FAULTS = {
    "compare": ("tabtext.pipeline.build_tabtext_features", "features"),
    "ablate": ("tabtext.pipeline.build_tabtext_features", f"ablate {FIRST_GRID_POINT}"),
    "baseline": ("tabtext.cli.build_baseline_features", "baseline"),
}


@pytest.mark.parametrize("command", sorted(STAGE_FAULTS))
def test_unexpected_failure_in_a_stage_is_stage_error(
    corpus, tmp_path, command, monkeypatch, capsys
):
    target, name = STAGE_FAULTS[command]

    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(target, fail)
    config = write_config(corpus, tmp_path / "out")
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: stage '{name}': unexpected"
    assert "Traceback" not in err


def test_bad_flag_usage_is_validation_error():
    assert main(["eval"]) == 1


USAGE_FAULTS = {
    "no-command": ([], "COMMAND"),
    "unknown-command": (["bogus"], "'bogus'"),
    "unknown-flag": (["compare", "--config", "run.yaml", "--sead", "1"], "--sead"),
    "missing-required-flag": (["eval"], "--features"),
    "abbreviated-flag": (["eval", "--feat", "f.csv"], "--features"),
    "value-of-the-wrong-type": (["embed", "--in", "s.csv", "--out", "e.csv", "--dim", "x"],
                                "--dim"),
    "value-not-a-choice": (["serialize", "--data", "d.csv", "--schema", "d.yaml", "--out",
                            "s.csv", "--missing-policy", "bogus"], "--missing-policy"),
    # serialize reads one table, so there are no sources to combine
    "serialize-combine": (["serialize", "--data", "d.csv", "--schema", "d.yaml", "--out",
                           "s.csv", "--combine", "separate"], "--combine"),
}


@pytest.mark.parametrize("argv, named", USAGE_FAULTS.values(), ids=list(USAGE_FAULTS))
def test_usage_fault_is_one_validation_error_line(tmp_path, monkeypatch, argv, named, capsys):
    """A fault in the command line itself takes the exit-1 path of any other
    bad input: one line naming the fault, no usage text, nothing written."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("validation error: ") and named in err
    assert "Usage:" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [None, "gen-corpus", "serialize", "embed", "aggregate",
                                     "baseline", "eval", "ablate", "compare"])
def test_help_exits_0_with_the_usage_on_stdout(command, capsys):
    assert main(["--help"] if command is None else [command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(filter(None, ["usage: tabtext", command])) + " [-h]")
    assert err == ""


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
def test_out_of_range_flag_is_usage_error(tmp_path, command, flag, value, capsys):
    # The input is a valid sentence file: only the flag is at fault.
    sentences = sentence_csv(tmp_path, "p1,,fine")
    args = ["--out", str(tmp_path / "out")]
    if command == "embed":
        args += ["--in", str(sentences)]
    assert main([command, *args, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_import_loads_no_corpus_generator():
    # Only gen-corpus needs it, and imports it when it runs.
    assert modules_loaded_by_import({"tabtext.synthetic"}) == "[]"


# Entities of the seed-0 corpus that each command runs on. From 800 entities
# up (not at 600 or fewer), the fit's weights differ in their low bits between
# one and two BLAS threads; ablate runs on fewer to keep the test short.
THREAD_CHECK_ENTITIES = {"compare": 800, "ablate": 150}


@pytest.mark.parametrize("command, output", [("compare", "manifest.json"),
                                             ("ablate", "ablation_report.json")])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command, output):
    corpus = tmp_path / "corpus"
    generate(CorpusSpec(seed=0, n_entities=THREAD_CHECK_ENTITIES[command]), corpus)
    outputs = []
    for threads in ("1", "2"):
        env = {**SRC_ENV, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads
        )}
        out = tmp_path / f"out{threads}"
        config = write_config(corpus, out, embedding={"backend": "hashing"})
        subprocess.run(
            [sys.executable, "-m", "tabtext.cli", command, "--config", str(config)],
            capture_output=True, check=True, env=env,
        )
        outputs.append((out / output).read_bytes())
    assert outputs[0] == outputs[1]


def write_embeddings(tmp_path, *rows):
    path = tmp_path / "emb.csv"
    path.write_text("entity_id,timestamp,e0,e1\n" + "\n".join(rows) + "\n")
    return path


# Each bad embedding file, by its rows, with its error message; {} is its path.
BAD_EMBEDDINGS = {
    ("p1,,1.0,0.0", "p1,2.0,0.0,1.0"):
        "{} line 3: entity 'p1' mixes rows with and without a timestamp",
    ("p1,,1.0,0.0", "p1,,0.0,1.0"): "{} line 3: entity 'p1' has two rows without a timestamp",
    ("p1,x,1.0,0.0",): "{} line 2: could not convert string to float: 'x'",
    ("p1,1.0,1.0",): "{} line 2: 3 fields, not 4",
    ("p1,2.0,1e308,0.5", "p1,3.0,1e308,0.25"): (
        "source '{}': the timestamp-weighted sum of entity 'p1' overflows "
        "(overflow encountered in multiply)"
    ),
    ("p1,1.0,1.0,0.0", "p1,-1.0,0.0,1.0"): "{} line 3: negative timestamp '-1.0' of entity 'p1'",
    ("p1,2.0,1.0,0.0", "p1,,0.0,1.0"):
        "{} line 3: entity 'p1' mixes rows with and without a timestamp",
}


@pytest.mark.parametrize("rows", list(BAD_EMBEDDINGS))
def test_aggregate_bad_input_is_validation_error(tmp_path, rows, capsys):
    embeddings = write_embeddings(tmp_path, *rows)
    assert main(["aggregate", "--in", str(embeddings), "--out", str(tmp_path / "f.csv")]) == 1
    message = BAD_EMBEDDINGS[rows].format(embeddings)
    assert capsys.readouterr().err == f"validation error: {message}\n"


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
    sentences = tmp_path / "sentences.csv"
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
    for entity, timestamp, sentence in read_records(sentences)[1:]:
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
    sentences = tmp_path / "sentences.csv"
    assert main(
        ["serialize", "--data", str(data), "--schema", str(schema_path), "--out", str(sentences)]
    ) == 0
    embeddings = tmp_path / "emb.csv"
    assert main(["embed", "--in", str(sentences), "--out", str(embeddings), "--dim", "32"]) == 0

    schema = load_schema(schema_path)
    rows = parse_table(data, schema)
    texts = [serialize_row(schema, row, SerializationConfig()) for row in rows]
    # csv.reader reads each sentence back whole: three records after the header.
    assert read_records(sentences)[1:] == [[row.entity_id, "", t] for row, t in zip(rows, texts)]
    records = read_records(embeddings)[1:]
    assert [r[0] for r in records] == [row.entity_id for row in rows] == ["p1", "p,2", "p3"]
    backend = HashingBackend(dim=32)
    for text, record in zip(texts, records):
        assert [float(v) for v in record[2:]] == embed_text(text, backend).tolist()


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
            st.sampled_from(["p1", "a,b", 'q"t', "x\r\ny\tz", "é "]) | AWKWARD_TEXT.filter(bool),
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
             "--out", str(tmp / "s.csv")],
            ["embed", "--in", str(tmp / "s.csv"), "--out", str(tmp / "e.csv"), "--dim", "16"],
            ["aggregate", "--in", str(tmp / "e.csv"), "--out", str(tmp / "f.csv")],
        ):
            assert main(args) == 0
        staged = FeatureMatrix.from_csv(tmp / "f.csv")

        schema = load_schema(schema_path)
        rows = parse_table(data, schema)
        universe = list(dict.fromkeys(row.entity_id for row in rows))
        expected = build_tabtext_features(
            [("notes", schema, group_rows("notes", schema, rows, universe))],
            universe, None, SerializationConfig(),
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
    ({"embedding": {"backend": "quantum"}}, "quantum"),
    ({"embedding": {"backend": "remote"}}, "remote"),
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


@pytest.mark.parametrize("command", ["eval", "compare", "ablate", "config", "gen-corpus"])
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
        "gen-corpus": ["gen-corpus", "--out", str(tmp_path / "out"), "--seed", "-1"],
    }[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: seed must be >= 0") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_dim_above_the_ceiling_is_validation_error(corpus, tmp_path):
    # Checked before any input is parsed, so no dim-sized array is made.
    config = write_config(corpus, tmp_path / "out", embedding={"dim": 65537})
    with pytest.raises(ValidationError, match=r"^dim must be in \[1, 65536\], not 65537$"):
        load_inputs(load_run_config(config), "compare")
    config = write_config(corpus, tmp_path / "out", embedding={"dim": 65536})
    assert load_run_config(config).embedding.dim == 65536


def test_embed_dim_above_the_ceiling_is_usage_error(tmp_path, capsys):
    sentences = sentence_csv(tmp_path, "p1,1.0,fine")
    out = tmp_path / "emb.csv"
    assert main(["embed", "--in", str(sentences), "--out", str(out), "--dim", "65537"]) == 1
    assert capsys.readouterr().err == "validation error: dim must be in [1, 65536], not 65537\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value",
                         [("dim", 65537), ("max_chars", 0), ("url", "file:///dev/null")])
def test_flag_and_config_key_print_the_same_rule(corpus, tmp_path, key, value, capsys):
    """One rule per setting: the embed flag and the config key of a setting
    fail with the same line."""
    sentences = sentence_csv(tmp_path, "p1,1.0,fine")
    flag = "--" + key.replace("_", "-")
    args = ["embed", "--in", str(sentences), "--out", str(tmp_path / "emb.csv"), flag, str(value)]
    assert main(args) == 1
    from_flag = capsys.readouterr().err
    config = write_config(corpus, tmp_path / "out", embedding={key: value})
    assert main(["compare", "--config", str(config)]) == 1
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"validation error: {key} must be") and from_flag.count("\n") == 1


def test_embed_unknown_backend_is_validation_error(tmp_path, capsys):
    sentences = sentence_csv(tmp_path, "p1,1.0,fine")
    args = ["--in", str(sentences), "--out", str(tmp_path / "emb.csv")]
    assert main(["embed", *args, "--cache", str(tmp_path / "c"), "--backend", "quantum"]) == 1
    assert capsys.readouterr().err == "validation error: unknown backend 'quantum'\n"
    assert not (tmp_path / "emb.csv").exists() and not (tmp_path / "c").exists()


def test_empty_entity_id_in_a_data_table_is_validation_error(corpus, tmp_path, capsys):
    # compare's case is in tests/test_boundaries.py
    lines = (corpus / "demographics.csv").read_text().splitlines()
    data = tmp_path / "demographics.csv"
    data.write_text("\n".join([*lines, "," + lines[1].split(",", 1)[1]]) + "\n")
    schema = corpus / "demographics.schema.yaml"
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.csv")]
    assert main(["serialize", *args]) == 1
    message = f"validation error: {data} line {len(lines) + 1}: empty entity id in column 'id'"
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.fixture(scope="module")
def corpus40(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus40")
    generate(CorpusSpec(seed=0, n_entities=40), path)
    return path


@pytest.mark.parametrize("command", ["compare", "ablate"])
@pytest.mark.parametrize(
    "table, entity, message",
    [
        ("demographics", "p00000",
         "static source 'demographics' has multiple rows for entity 'p00000'"),
        ("vitals", "ghost",
         "entity 'ghost' in time-series source 'vitals' is not in the entity universe "
         "(the labels file)"),
    ],
)
def test_grouping_fault_leaves_no_output_or_cache(
    corpus40, tmp_path, capsys, command, table, entity, message
):
    # A second row for p00000, or a row for an entity the labels file lacks,
    # fails where the tables are loaded, before any directory is made.
    corpus = shutil.copytree(corpus40, tmp_path / "corpus")
    lines = (corpus / f"{table}.csv").read_text().splitlines()
    extra = entity + "," + lines[1].split(",", 1)[1]
    (corpus / f"{table}.csv").write_text("\n".join([*lines, extra]) + "\n")
    cache = tmp_path / "cache"
    embedding = {"backend": "hashing", "dim": 64, "cache": str(cache)}
    config = write_config(corpus, tmp_path / "out", embedding=embedding)
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists() and not cache.exists()


@pytest.mark.parametrize("command", ["compare", "ablate"])
def test_each_table_is_grouped_once_per_run(corpus40, tmp_path, monkeypatch, command):
    grouped = []

    def counted(source, *args):
        grouped.append(source)
        return group_rows(source, *args)

    # Both names a builder could look the function up by are counted.
    monkeypatch.setattr("tabtext.pipeline.group_rows", counted)
    monkeypatch.setattr("tabtext.baseline.group_rows", counted, raising=False)
    config = write_config(corpus40, tmp_path / "out")
    assert main([command, "--config", str(config)]) == 0
    assert grouped == ["demographics", "vitals"]


@pytest.mark.parametrize("module", ["numpy.ma", "numpy.random"])
@pytest.mark.parametrize("command", ["compare", "ablate"])
def test_a_run_loads_no_unused_numpy_module(corpus40, tmp_path, command, module):
    # numpy.ma costs a run about 1 MB, and np.unique imports it unless told to
    # return indices; numpy.random costs about 2 MB, and the split does not use it.
    config = write_config(corpus40, tmp_path / "out")
    code = (f"import sys, tabtext.cli; assert tabtext.cli.main([{command!r}, '--config', "
            f"{str(config)!r}]) == 0; print({module!r} in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=SRC_ENV
    )
    assert result.stdout.splitlines()[-1] == "False"


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
        args += ["--schema", str(schema), "--out", str(tmp_path / "out.csv")]
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
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.csv")]
    assert main(["serialize", *args]) == 1
    config = write_config(
        corpus, tmp_path / "out", sources=[{"data": str(data), "schema": str(schema)}]
    )
    assert main(["compare", "--config", str(config)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith(f"validation error: {data} line 3:") for line in lines)


def test_negative_timestamp_is_validation_error_naming_the_file(corpus, tmp_path, capsys):
    schema = tmp_path / "notes.schema.yaml"
    schema.write_text(SERIES_NOTES_SCHEMA)
    data = tmp_path / "notes.csv"
    data.write_text("id,t,note\np1,1.0,fine\np2,-5,early\n")
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.csv")]
    assert main(["serialize", *args]) == 1
    config = write_config(
        corpus, tmp_path / "out", sources=[{"data": str(data), "schema": str(schema)}]
    )
    assert main(["compare", "--config", str(config)]) == 1
    assert main(["baseline", "--config", str(config)]) == 1
    message = f"validation error: {data} line 3: negative timestamp '-5' in column 't'"
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


def test_overflowing_series_statistic_is_validation_error_naming_the_entity(
    corpus, tmp_path, capsys
):
    lines = (corpus / "vitals.csv").read_text().splitlines()
    assert lines[0] == "id,hour,heart_rate,resp_rate" and lines[1].startswith("p00000,")
    entity, hour, _, resp_rate = lines[1].split(",")
    lines[1] = f"{entity},{hour},1e308,{resp_rate}"
    vitals = tmp_path / "vitals.csv"
    vitals.write_text("\n".join(lines) + "\n")
    sources = [
        {"data": "demographics.csv", "schema": "demographics.schema.yaml"},
        {"data": str(vitals), "schema": "vitals.schema.yaml"},
    ]
    config = write_config(corpus, tmp_path / "out", sources=sources)
    assert main(["baseline", "--config", str(config)]) == 1
    assert main(["compare", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    message = (
        "validation error: source 'vitals': a statistic of column 'heart_rate' of entity "
        "'p00000' overflows (overflow encountered in square)"
    )
    assert [line for line in err.splitlines() if "error" in line] == [message] * 2
    assert "Warning" not in err and "Traceback" not in err


HUGE_AGES = {"one-train-age": ("train", 1, "1e308"), "three-train-ages": ("train", 3, "1e308"),
             "test-age": ("test", 1, "1e300")}


@pytest.mark.parametrize("part, count, age", HUGE_AGES.values(), ids=list(HUGE_AGES))
def test_feature_too_large_to_standardize_is_validation_error_naming_it(
    corpus, tmp_path, part, count, age, capsys
):
    """An age whose train mean or sd overflows float64, or whose standardized
    test value overflows the classifier's float32 copy, stops compare before
    it scores anything."""
    ids, labels = load_labels(corpus / "labels.csv")
    train, test = split(len(ids), SplitSpec(), [labels[e] for e in ids])
    lines = (corpus / "demographics.csv").read_text().splitlines()
    for i in (train if part == "train" else test)[:count]:
        entity, _, rest = lines[i + 1].split(",", 2)
        assert entity == ids[i]
        lines[i + 1] = f"{entity},{age},{rest}"
    demographics = tmp_path / "demographics.csv"
    demographics.write_text("\n".join(lines) + "\n")
    sources = [
        {"data": str(demographics), "schema": "demographics.schema.yaml"},
        {"data": "vitals.csv", "schema": "vitals.schema.yaml"},
    ]
    config = write_config(corpus, tmp_path / "out", sources=sources)
    assert main(["compare", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    message = (
        "validation error: feature 'demographics.age' overflows when standardized "
        "in the split with seed 0"
    )
    assert [line for line in err.splitlines() if "error" in line] == [message]
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
    "embed": ("sentences.csv", b"entity_id,timestamp,sentence\np1,,fine\np2,,caf\xff\n", "--in"),
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


BOM_INPUTS = {
    "serialize": ("notes.csv", b"id,note\np1,fine\n",
                  ["--data", "notes.csv", "--schema", "notes.schema.yaml", "--out", "out"]),
    "embed": ("sentences.csv", b"entity_id,timestamp,sentence\np1,,fine\np2,1.5,later\n",
              ["--in", "sentences.csv", "--dim", "4", "--out", "out"]),
    "aggregate": ("embeddings.csv", b"entity_id,timestamp,e0\np1,,0.5\np2,1.0,2.0\n",
                  ["--in", "embeddings.csv", "--out", "out"]),
    "eval": ("features.csv", b"entity_id,label,f0\np1,0,0.1\np2,1,0.9\np3,0,0.2\np4,1,0.8\n",
             ["--features", "features.csv", "--train-fraction", "0.5"]),
    "baseline": ("labels.csv", b"entity_id,label\np1,0\np2,1\n",
                 ["--config", "run.yaml", "--out", "out"]),
}


@pytest.mark.parametrize("command", list(BOM_INPUTS))
def test_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch, command, capsys):
    """An input file that starts with a UTF-8 byte order mark reads as the
    same file without it."""
    name, content, args = BOM_INPUTS[command]
    results = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        work = tmp_path / f"bom{len(prefix)}"
        work.mkdir()
        monkeypatch.chdir(work)
        Path("notes.schema.yaml").write_text(NOTES_SCHEMA)
        Path("notes.csv").write_bytes(b"id,note\np1,fine\np2,other\n")
        Path("run.yaml").write_text(yaml.safe_dump(
            {"sources": [{"data": "notes.csv", "schema": "notes.schema.yaml"}],
             "labels": "labels.csv"}
        ))
        Path(name).write_bytes(prefix + content)
        code = main([command, *args])
        output = Path("out").read_bytes() if Path("out").exists() else None
        results.append((code, capsys.readouterr(), output))
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_concurrent_runs_share_one_cache_and_match_a_run_without_it(corpus, tmp_path):
    sentences = tmp_path / "sentences.csv"
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
    sentences = sentence_csv(tmp_path, "p1,,fine")
    args = ["--in", str(sentences), "--out", str(tmp_path / "e.csv"), "--cache", str(cache)]
    assert main(["embed", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"backend error: embedding cache {cache / 'embeddings.sqlite3'}: ")


@pytest.mark.parametrize("case", ["not-a-database", "a-file", "under-a-file"])
@pytest.mark.parametrize("command, named", [("compare", "features"), ("ablate", "ablate")])
def test_unusable_cache_names_the_stage_that_opens_it(corpus, tmp_path, command, named, case,
                                                      capsys):
    cache = unusable_cache(tmp_path, case)
    out = tmp_path / "out"
    embedding = {"backend": "hashing", "dim": 16, "cache": str(cache)}
    assert main([command, "--config", str(write_config(corpus, out, embedding=embedding))]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"backend error: stage '{named}': embedding cache {cache / 'embeddings.sqlite3'}: ")
    assert not out.exists()


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
    args = ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "s.csv")]
    assert main(["serialize", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {schema}: ") and key in err
    assert not (tmp_path / "s.csv").exists()


def command_reading(kind: str, path: Path, corpus: Path, tmp_path: Path) -> list[str]:
    """A command line that reads ``path`` as an input file of ``kind``; every
    output, the embedding cache too, goes to tmp_path / "o"."""
    out = str(tmp_path / "o")
    data, schema = str(corpus / "vitals.csv"), str(corpus / "vitals.schema.yaml")
    if kind in ("data", "schema", "labels"):
        source = {"data": data, "schema": schema}
        overrides = {"labels": str(path)} if kind == "labels" else {
            "sources": [{**source, kind: str(path)}]}
        return ["compare", "--config", str(write_config(corpus, tmp_path / "o", **overrides))]
    return {
        "serialize --data": ["serialize", "--data", str(path), "--schema", schema, "--out", out],
        "serialize --schema": ["serialize", "--data", data, "--schema", str(path), "--out", out],
        "config": ["compare", "--config", str(path)],
        "sentence CSV": ["embed", "--in", str(path), "--out", out, "--cache", out],
        "embedding CSV": ["aggregate", "--in", str(path), "--out", out],
        "feature CSV": ["eval", "--features", str(path)],
    }[kind]


INPUT_KINDS = ["data", "schema", "labels", "serialize --data", "serialize --schema", "config",
               "sentence CSV", "embedding CSV", "feature CSV"]
UNREADABLE = {"missing": "No such file or directory", "directory": "Is a directory"}


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_unreadable_input_is_validation_error_naming_the_file(
    corpus, tmp_path, kind, fault, capsys
):
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    assert main(command_reading(kind, path, corpus, tmp_path)) == 1
    assert capsys.readouterr().err == f"validation error: {path}: {UNREADABLE[fault]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["serialize", "embed", "aggregate", "compare"])
def test_unwritable_output_is_error_naming_the_file(corpus, tmp_path, command, capsys):
    """An --out that is a directory, or an output_dir that is a file."""
    out = tmp_path / "out"
    sentences = sentence_csv(tmp_path, "p1,,fine")
    args = {
        "serialize": ["--data", str(corpus / "vitals.csv"),
                      "--schema", str(corpus / "vitals.schema.yaml"), "--out", str(out)],
        "embed": ["--in", str(sentences), "--out", str(out)],
        "aggregate": ["--in", str(write_embeddings(tmp_path, "p1,,1.0,0.0")), "--out", str(out)],
        "compare": ["--config", str(write_config(corpus, out))],
    }[command]
    if command == "compare":
        out.write_text("")
    else:
        out.mkdir()
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
