import hashlib
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml

from tabtext.cli import main
from tabtext.data_model import ColumnKind, ColumnSpec, TableMeta, TableSchema, group_rows
from tabtext.embedding import EmbeddingConfig, HashingBackend
from tabtext.errors import ValidationError
from tabtext.evaluation import SplitSpec
from tabtext.pipeline import (
    RunConfig,
    _digest,
    SourceConfig,
    build_tabtext_features,
    load_inputs,
    load_labels,
    load_run_config,
)
from tabtext.serializer import CombineMode, MissingPolicy, SerializationConfig
from tabtext.temporal import aggregate_timed

SEPARATE = SerializationConfig(include_meta=False, combine_sources=CombineMode.SEPARATE)
SINGLE = SerializationConfig(include_meta=False, combine_sources=CombineMode.SINGLE_PARAGRAPH)


class RecordingBackend(HashingBackend):
    """Hashing backend that records every text it is asked to embed."""

    def __init__(self, dim=16):
        super().__init__(dim=dim)
        self.texts = []

    def embed_batch(self, texts):
        self.texts.extend(texts)
        return super().embed_batch(texts)


def static_source(parse_text, name, column, csv_text):
    schema = TableSchema(
        meta=TableMeta(table_title=name),
        columns=(
            ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
            ColumnSpec(name=column, kind=ColumnKind.NUMERIC),
        ),
        entity_column="id",
    )
    return name, schema, parse_text(csv_text, schema)


def series_source(parse_text, csv_text):
    schema = TableSchema(
        meta=TableMeta(table_title="vitals"),
        columns=(
            ColumnSpec(name="id", kind=ColumnKind.CATEGORICAL),
            ColumnSpec(name="t", kind=ColumnKind.TIMESTAMP),
            ColumnSpec(name="hr", kind=ColumnKind.NUMERIC),
        ),
        entity_column="id",
        time_column="t",
    )
    return "vitals", schema, parse_text(csv_text, schema)


@pytest.fixture
def demo(parse_text):
    return static_source(parse_text, "demo", "age", "id,age\np1,50\np2,60\n")


@pytest.fixture
def labs(parse_text):
    return static_source(parse_text, "labs", "ldl", "id,ldl\np1,3\np2,4\n")


@pytest.fixture
def vitals(parse_text):
    return series_source(parse_text, "id,t,hr\np1,1,80\np1,2,90\np2,1,70\n")


def build(sources, config, backend, ids=("p1", "p2")):
    grouped = [
        (name, schema, group_rows(name, schema, rows, ids)) for name, schema, rows in sources
    ]
    return build_tabtext_features(grouped, list(ids), None, config, backend)


SCHEMA_FILES = {
    "demo": "meta: {table_title: demo}\nentity_column: id\n"
            "columns: [{name: id, kind: categorical}, {name: age, kind: numeric}]\n",
    "vitals": "meta: {table_title: vitals}\nentity_column: id\ntime_column: t\n"
              "columns: [{name: id, kind: categorical}, {name: t, kind: timestamp}, "
              "{name: hr, kind: numeric}]\n",
}


def load(tmp_path, demo_csv, vitals_csv, labels_csv, command="compare", **sections):
    """load_inputs, for ``command``, of a demo and a vitals table of the texts
    given and of a labels file, with the config ``sections`` given."""
    sources = []
    for name, text in (("demo", demo_csv), ("vitals", vitals_csv)):
        (tmp_path / f"{name}.csv").write_text(text)
        (tmp_path / f"{name}.yaml").write_text(SCHEMA_FILES[name])
        sources.append(SourceConfig(name, tmp_path / f"{name}.csv", tmp_path / f"{name}.yaml"))
    (tmp_path / "labels.csv").write_text(labels_csv)
    return load_inputs(RunConfig(sources, tmp_path / "labels.csv", **sections), command)


class TestCombineModes:
    def test_single_paragraph_joins_static_texts_with_one_space(self, demo, vitals, labs):
        backend = RecordingBackend()
        build([demo, vitals, labs], SINGLE, backend)
        # block order: every entity's paragraph of static texts, then the series rows
        assert backend.texts == [
            "age is 50. ldl is 3.", "age is 60. ldl is 4.",
            "hr is 80.", "hr is 90.", "hr is 70.",
        ]

    def test_separate_embeds_each_source_as_one_run_of_texts(self, demo, vitals, labs):
        backend = RecordingBackend()
        build([demo, vitals, labs], SEPARATE, backend)
        assert backend.texts == [
            "age is 50.", "age is 60.", "hr is 80.", "hr is 90.", "hr is 70.",
            "ldl is 3.", "ldl is 4.",
        ]

    def test_single_paragraph_keeps_backend_dimension(self, demo, vitals, labs):
        backend = HashingBackend(dim=16)
        features = build([demo, vitals, labs], SINGLE, backend)
        assert features.values.shape == (2, backend.dim)
        assert features.feature_names == [f"text.e{i}" for i in range(16)]

    def test_single_paragraph_averages_parts(self, demo, vitals, labs):
        backend = HashingBackend(dim=16)
        features = build([demo, vitals, labs], SINGLE, backend)
        # p1's row: the mean of its static paragraph and of its vitals series
        (paragraph,) = backend.embed_batch(["age is 50. ldl is 3."])
        vitals_rows = backend.embed_batch(["hr is 80.", "hr is 90."])
        series = aggregate_timed([(1.0, vitals_rows[0]), (2.0, vitals_rows[1])])
        want = np.stack([paragraph, series]).mean(axis=0)
        assert features.values[0].tobytes() == want.tobytes()

    def test_single_static_source_modes_agree(self, demo):
        separate = build([demo], SEPARATE, HashingBackend(dim=16))
        single = build([demo], SINGLE, HashingBackend(dim=16))
        np.testing.assert_array_equal(separate.values, single.values)

    def test_separate_concatenates_per_source_blocks(self, demo, labs):
        backend = HashingBackend(dim=16)
        features = build([demo, labs], SEPARATE, backend)
        assert features.values.shape == (2, 32)
        assert features.feature_names[:2] == ["demo.e0", "demo.e1"]
        assert features.feature_names[16] == "labs.e0"
        np.testing.assert_array_equal(
            features.values[0, 16:], backend.embed_batch(["ldl is 3."])[0]
        )

    def test_entity_without_rows_gets_zero_block(self, demo, vitals):
        features = build(
            [demo, vitals], SEPARATE, HashingBackend(dim=16), ids=("p1", "p2", "p3")
        )
        np.testing.assert_array_equal(features.values[2], np.zeros(32))


class TestConsistency:
    """The grouping rule is checked once, where the tables are loaded, under
    every serialization section."""

    @pytest.mark.parametrize("config", [SEPARATE, SINGLE])
    def test_duplicate_static_row_is_error(self, config, tmp_path):
        vitals = "id,t,hr\np1,1,80\np1,2,90\np2,1,70\n"
        labels = "entity_id,label\np1,1\np2,0\n"
        with pytest.raises(ValidationError, match="multiple rows for entity 'p1'"):
            load(tmp_path, "id,age\np1,50\np1,51\n", vitals, labels, serialization=config)

    @pytest.mark.parametrize("config", [SEPARATE, SINGLE])
    def test_series_entity_outside_universe_is_error(self, config, tmp_path):
        vitals = "id,t,hr\np1,1,80\np1,2,90\np2,1,70\n"
        labels = "entity_id,label\np1,1\n"
        with pytest.raises(ValidationError, match="'p2'.*not in the entity universe"):
            load(tmp_path, "id,age\np1,50\np2,60\n", vitals, labels, serialization=config)

    def test_static_entity_outside_universe_is_ignored(self, demo):
        features = build([demo], SEPARATE, HashingBackend(dim=16), ids=("p1",))
        assert features.entity_ids == ["p1"]


class TestLoadLabels:
    def write(self, tmp_path, body):
        path = tmp_path / "labels.csv"
        path.write_text("entity_id,label\n" + body)
        return path

    def test_reads_in_file_order(self, tmp_path):
        ids, labels = load_labels(self.write(tmp_path, "p2,1\np1,0\n\n"))
        assert ids == ["p2", "p1"] and labels == {"p2": 1, "p1": 0}

    def test_reads_quoted_ids(self, tmp_path):
        ids, labels = load_labels(self.write(tmp_path, '"a,b",1\n"say ""hi""",0\n'))
        assert ids == ["a,b", 'say "hi"'] and labels == {"a,b": 1, 'say "hi"': 0}

    @pytest.mark.parametrize(
        "body, line",
        [
            ("p1,1\np1,0\n", 3),  # duplicate entity
            ("p1,1\np2,7\n", 3),  # label outside {0, 1}
            ("p1,yes\n", 2),
            ("p1\n", 2),
            ("p1,1,0\n", 2),
        ],
    )
    def test_bad_line_is_validation_error(self, tmp_path, body, line):
        with pytest.raises(ValidationError, match=f"line {line}:"):
            load_labels(self.write(tmp_path, body))


def test_digest_reads_a_file_of_several_chunks(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(5 * (1 << 19) + 7))
    assert _digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_config_hash_is_stable():
    """The manifest's config_hash for a fixed config; any change to the
    canonical form (key names, value spelling, order) fails here."""
    config = RunConfig(
        sources=[SourceConfig("vitals", Path("data/vitals.csv"), Path("data/vitals.schema.yaml"))],
        labels=Path("data/labels.csv"),
        serialization=SerializationConfig(
            missing_policy=MissingPolicy.ZERO_PAD,
            include_meta=False,
            combine_sources=CombineMode.SINGLE_PARAGRAPH,
        ),
        embedding=EmbeddingConfig(dim=64),
        evaluation=SplitSpec(train_fraction=0.75, seed=4, stratified=False, repeats=3),
    )
    assert config.config_hash() == "03981f0721dc5161"


DEFAULT_CONFIG = RunConfig([], None, SerializationConfig())


def test_each_config_section_is_declared_once():
    """A RunConfig field per section of a config file, of the same name, and
    a field of the section's dataclass per key of the section: no table maps
    one name onto another."""
    doc = DEFAULT_CONFIG.sections()
    assert [f.name for f in fields(RunConfig)] == list(doc)
    sections = [f.name for f in fields(RunConfig) if is_dataclass(getattr(DEFAULT_CONFIG, f.name))]
    assert sections == ["serialization", "embedding", "temporal", "baseline", "evaluation"]
    for name in sections:
        assert [f.name for f in fields(getattr(DEFAULT_CONFIG, name))] == list(doc[name])


def test_config_file_at_the_defaults_loads_to_the_default_config(tmp_path):
    """A file with one source and every other key written at its default
    loads to a config whose sections, but for sources and labels, are the
    defaults."""
    for name in ("d.csv", "d.schema.yaml", "labels.csv"):
        (tmp_path / name).write_text("")
    doc = {
        **DEFAULT_CONFIG.sections(),
        "sources": [{"data": "d.csv", "schema": "d.schema.yaml"}],
        "labels": "labels.csv",
    }
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc))
    loaded = load_run_config(tmp_path / "run.yaml").canonical()
    expected = DEFAULT_CONFIG.canonical()
    for name in ("sources", "labels"):
        del loaded[name], expected[name]
    assert loaded == expected


def config_keys(doc: dict) -> set[str]:
    """The sections of a config document, and ``section.key`` for each key of
    a section or of an item of a list section."""
    keys = set()
    for name, value in doc.items():
        items = value if isinstance(value, list) else [value]
        keys |= {name, *(f"{name}.{k}" for item in items if isinstance(item, dict) for k in item)}
    return keys


def test_readme_run_configuration_lists_every_key():
    """The YAML block under *Run configuration* in README.md, with its
    commented-out keys uncommented, holds the keys the loader accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Run configuration\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    doc = yaml.safe_load(re.sub(r"^(\s*)# (\w+:)", r"\1\2", block, flags=re.M))
    source = SourceConfig("name", Path("data.csv"), Path("schema.yaml"))
    assert config_keys(doc) == config_keys(RunConfig([source], None, SerializationConfig()).sections())


CLI_COMMANDS = ["gen-corpus", "serialize", "embed", "aggregate", "baseline", "eval", "ablate",
                "compare"]
FLAG = re.compile(r"--[a-z][a-z-]*")


def readme_cli_flags() -> dict[str, set[str]]:
    """The --flags of each command in the block under *CLI* in README.md,
    where a command's line goes on over the indented lines after it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    flags = {}
    for line in block.splitlines():
        if line.startswith("tabtext "):
            command = line.split()[1]
        flags.setdefault(command, set()).update(FLAG.findall(line))
    return flags


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_readme_cli_lists_every_flag(command, capsys):
    """The README's CLI block names each flag that the command's --help
    prints but --help itself, and no other."""
    assert main([command, "--help"]) == 0
    printed = set(FLAG.findall(capsys.readouterr().out)) - {"--help"}
    flags = readme_cli_flags()
    assert list(flags) == CLI_COMMANDS
    assert flags[command] == printed
