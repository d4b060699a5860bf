"""The input boundary of the CLI: valid inputs changed one way at a time and
run through ``tabtext.cli.main`` in process.

``compare`` runs on a valid 40-entity corpus and run config. ``embed``,
``aggregate`` and ``eval`` run on the stage files made from that corpus: the
sentence CSV and the embedding CSV of its vitals table, and its baseline
feature CSV. ``serialize`` refuses a sentence that ``embed`` could not read.

An input fault exits 1 with one ``validation error:`` line that names the
file, or the source read from it, with no traceback and no output. A valid
input exits 0. Under ``compare`` it writes finite features and the same
``manifest.json`` bytes on a second run; a valid stage file gives the output
of the unchanged file (for ``eval``, its standard output).
"""
import csv
import io
import re
import shutil

import numpy as np
import pytest
import yaml

from tabtext.baseline import FeatureMatrix
from tabtext.cli import main
from tabtext.synthetic import CorpusSpec, generate


def first_row(text):
    return text.splitlines()[1]


def first_row_as(entity):
    """A change that appends the table's first row again, for ``entity``."""
    return lambda text: f"{text}{entity},{first_row(text).split(',', 1)[1]}\n"


# (files to change, the change of each one's text, embedding keys, and the
# message after "validation error: ", where <file> is the first file's path;
# no message for an input that is valid). The corpus is fixed, so its
# labels file and demographics table hold 41 lines each, and the first label
# (line 2) is 0.
CASES = [
    pytest.param(("labels.csv",), lambda t: t.replace(",0\n", ",2\n", 1), {},
                 "<file> line 2: label '2' is not 0 or 1", id="label-of-2"),
    pytest.param(("labels.csv",), lambda t: f"{t}{first_row(t)}\n", {},
                 "<file> line 42: duplicate entity 'p00000'", id="entity-listed-twice"),
    pytest.param(("labels.csv",), lambda t: t.splitlines(True)[0], {},
                 "<file>: lists no entity", id="header-only-labels"),
    pytest.param(("labels.csv",), lambda t: t + ",1\n", {},
                 "<file> line 42: empty entity id", id="empty-entity-id-in-labels"),
    pytest.param(("demographics.schema.yaml",), lambda t: t + "- name: age\n  kind: numeric\n",
                 {}, "<file>: column names must be unique", id="repeated-schema-column"),
    pytest.param(("demographics.schema.yaml",),
                 lambda t: t.replace("is {value} years", "is old, in years"), {},
                 "<file>: descriptive_template for 'age' must contain exactly one '{value}' "
                 "placeholder", id="template-without-value"),
    pytest.param(("vitals.csv",), lambda t: re.sub(r"\n([^,]*),[^,]*,", r"\n\1,,", t, count=1),
                 {}, "<file> line 2: unparseable timestamp '' in column 'hour'",
                 id="empty-timestamp"),
    pytest.param(("demographics.csv",), first_row_as(""), {},
                 "<file> line 42: empty entity id in column 'id'",
                 id="empty-entity-id-in-a-data-table"),
    pytest.param(("demographics.csv",), lambda t: f"{t}{first_row(t)}\n", {},
                 "static source 'demographics' has multiple rows for entity 'p00000'",
                 id="static-entity-repeated"),
    pytest.param(("vitals.csv",), first_row_as("ghost"), {},
                 "entity 'ghost' in time-series source 'vitals' is not in the entity "
                 "universe (the labels file)", id="series-entity-not-in-labels"),
    pytest.param(("labels.csv",), lambda t: "\ufeff" + t, {}, None, id="bom-on-labels"),
    pytest.param(("labels.csv", "demographics.csv", "vitals.csv"),
                 lambda t: t.replace("\n", "\r\n"), {}, None, id="crlf-line-ends"),
    pytest.param(("vitals.csv",), lambda t: t.splitlines(True)[0], {}, None,
                 id="header-only-series-table"),
    pytest.param((), None, {"max_chars": 1}, None, id="max-chars-1"),
]


@pytest.fixture(scope="module")
def valid_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate(CorpusSpec(seed=0, n_entities=40), path)
    return path


def run_config(corpus, out, embedding):
    """A run config of the corpus, with output_dir ``out``; its path."""
    config = corpus / f"{out.name}.yaml"
    config.write_text(yaml.safe_dump({
        "sources": [{"data": f"{name}.csv", "schema": f"{name}.schema.yaml"}
                    for name in ("demographics", "vitals")],
        "labels": "labels.csv",
        "embedding": {"dim": 64, **embedding},
        "output_dir": str(out),
    }))
    return config


def compare(corpus, out, embedding):
    """``tabtext compare`` of the corpus into ``out``; its exit code."""
    return main(["compare", "--config", str(run_config(corpus, out, embedding))])


@pytest.mark.parametrize("files, change, embedding, message", CASES)
def test_one_change_to_a_valid_input(
    valid_corpus, tmp_path, capsys, files, change, embedding, message
):
    corpus = shutil.copytree(valid_corpus, tmp_path / "corpus")
    for name in files:
        path = corpus / name
        path.write_bytes(change(path.read_text(encoding="utf-8")).encode("utf-8"))
    out = tmp_path / "out"
    code = compare(corpus, out, embedding)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if message is not None:
        message = message.replace("<file>", str(corpus / files[0]))
        assert (code, err) == (1, f"validation error: {message}\n")
        assert not out.exists()
        return
    assert code == 0
    for name in ("tabtext_features.csv", "baseline_features.csv"):
        assert np.isfinite(FeatureMatrix.from_csv(out / name).values).all()
    assert compare(corpus, tmp_path / "again", embedding) == 0
    assert (tmp_path / "again" / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()


# An entity id, and a gap between two words of a sentence, that hold a comma,
# a quote, a tab and a line break.
AWKWARD_ID = 'p,"0"\t\n0'
AWKWARD_GAP = ' ,"\t\n'


def awkward(text, gap=False):
    """The CSV ``text`` with entity p00000 renamed AWKWARD_ID and, with
    ``gap``, the first space of each of its sentences made AWKWARD_GAP."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    for record in records:
        if record[0] == "p00000":
            record[0] = AWKWARD_ID
            if gap:
                record[-1] = record[-1].replace(" ", AWKWARD_GAP, 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(records)
    return out.getvalue()


def append(line):
    return lambda text: f"{text}{line}\n"


def last_value(value):
    """A change that makes the last field of the last record ``value``."""
    return lambda text: text[: text.rstrip("\n").rindex(",") + 1] + value + "\n"


def same(output):
    return output


# (stage file, the change of its text, and the message after "validation
# error: ", where <file> is the changed file's path and <last> its last line;
# or, for a valid file, None and its expected output as a function of the
# unchanged file's). The hashing backend splits words on all but letters and
# digits, so AWKWARD_GAP leaves each vector as it was; p00000 is in the train
# part of eval's split, so its new name leaves the split hash as it was.
STAGE_CASES = [
    pytest.param("sentences.csv", append("p2 has no comma"),
                 "<file> line <last>: 1 fields, not 3", None, id="sentence-of-1-field"),
    pytest.param("sentences.csv", append("p2,1.0,middle,sentence"),
                 "<file> line <last>: 4 fields, not 3", None, id="sentence-of-4-fields"),
    pytest.param("sentences.csv", append("p2,soon,sentence"),
                 "<file> line <last>: could not convert string to float: 'soon'", None,
                 id="timestamp-not-a-number"),
    pytest.param("sentences.csv", append("p2,inf,sentence"),
                 "<file> line <last>: 'inf' is not finite", None, id="timestamp-not-finite"),
    pytest.param("sentences.csv", append("p1,-1.0,sentence"),
                 "<file> line <last>: negative timestamp '-1.0' of entity 'p1'", None,
                 id="timestamp-negative"),
    pytest.param("sentences.csv", lambda t: t.replace("sentence\n", "sentence,extra\n", 1),
                 "<file> line 1: expected the header entity_id,timestamp,sentence", None,
                 id="sentence-header-of-4-fields"),
    pytest.param("sentences.csv", lambda t: t.replace(",", "\t"),
                 "<file> line 1: header has 1 fields, needs 3", None, id="tab-separated"),
    pytest.param("sentences.csv", lambda t: "", "<file> line 1: header has 0 fields, needs 3",
                 None, id="empty-sentence-file"),
    pytest.param("sentences.csv", append("p2,," + "x" * 131_073),
                 "<file> line <last>: field larger than field limit (131072)", None,
                 id="sentence-over-the-csv-limit"),
    pytest.param("embeddings.csv", lambda t: "entity_id\n",
                 "<file> line 1: header has 1 fields, needs 2", None,
                 id="embedding-header-of-1-field"),
    pytest.param("embeddings.csv", last_value("inf"),
                 "<file> line <last>: 'inf' is not finite", None, id="embedding-not-finite"),
    pytest.param("features.csv", last_value("inf"),
                 "<file> line <last>: 'inf' is not finite", None, id="feature-not-finite"),
    pytest.param("features.csv", append("p99,0" + ",0.5" * 18),
                 "<file> line <last>: 20 fields, not 19", None, id="feature-record-too-long"),
    pytest.param("features.csv", lambda t: t.splitlines(True)[0],
                 "<file>: need at least 2 entities to split", None, id="header-only-features"),
    *(pytest.param(name, lambda t: t.replace("\n", "\r\n"), None, same, id=f"crlf-{name}")
      for name in ("sentences.csv", "embeddings.csv", "features.csv")),
    pytest.param("sentences.csv", lambda t: awkward(t, gap=True), None, awkward,
                 id="awkward-sentences.csv"),
    pytest.param("embeddings.csv", awkward, None, awkward, id="awkward-embeddings.csv"),
    pytest.param("features.csv", awkward, None, same, id="awkward-features.csv"),
]
# The command that reads each stage file, less the file's path.
STAGE_COMMANDS = {
    "sentences.csv": ["embed", "--dim", "16", "--in"],
    "embeddings.csv": ["aggregate", "--in"],
    "features.csv": ["eval", "--features"],
}


@pytest.fixture(scope="module")
def stage_files(valid_corpus, tmp_path_factory):
    """A directory that holds the corpus's valid stage files."""
    path = tmp_path_factory.mktemp("stages")
    vitals = ["--data", str(valid_corpus / "vitals.csv"),
              "--schema", str(valid_corpus / "vitals.schema.yaml")]
    assert main(["serialize", *vitals, "--out", str(path / "sentences.csv")]) == 0
    assert main([*STAGE_COMMANDS["sentences.csv"], str(path / "sentences.csv"),
                 "--out", str(path / "embeddings.csv")]) == 0
    config = run_config(valid_corpus, path / "baseline", {})
    assert main(["baseline", "--config", str(config), "--out", str(path / "features.csv")]) == 0
    return path


def run_stage(path, out, capsys):
    """(exit code, stderr, output) of the command that reads the stage file
    at ``path``; the output is the text it writes to ``out``, or for eval its
    standard output, and None if there is none."""
    argv = [*STAGE_COMMANDS[path.name], str(path)]
    if path.name != "features.csv":
        argv += ["--out", str(out)]
    code = main(argv)
    stdout, err = capsys.readouterr()
    if path.name == "features.csv":
        return code, err, stdout or None
    return code, err, out.read_text(encoding="utf-8") if out.exists() else None


@pytest.mark.parametrize("name, change, message, expect", STAGE_CASES)
def test_one_change_to_a_valid_stage_file(
    stage_files, tmp_path, capsys, name, change, message, expect
):
    original = (stage_files / name).read_text(encoding="utf-8")
    text = change(original)
    assert text != original
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    code, err, output = run_stage(path, tmp_path / "out", capsys)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if message is not None:
        message = message.replace("<file>", str(path)).replace("<last>", str(text.count("\n")))
        assert (code, err, output) == (1, f"validation error: {message}\n", None)
        return
    assert code == 0
    unchanged = run_stage(stage_files / name, tmp_path / "unchanged", capsys)
    assert unchanged[0] == 0 and output == expect(unchanged[2])


def test_sentence_over_the_csv_limit_is_refused_by_serialize(valid_corpus, tmp_path, capsys):
    # A note of as many characters as csv reads in one field: the table is
    # read, but its sentence is longer, so embed could not read it back.
    note = "x" * 131_072
    data = tmp_path / "demographics.csv"
    text = (valid_corpus / "demographics.csv").read_text(encoding="utf-8")
    data.write_text(f"{text}p99,,,,{note},,,\n", encoding="utf-8")
    sentence = ("Demographics: patient background and admission diagnosis. age is missing; "
                f"gender is missing; bmi is missing; first note is {note}; second note is "
                "missing; third note is missing; diagnosis is missing.")
    out = tmp_path / "sentences.csv"
    schema = valid_corpus / "demographics.schema.yaml"
    code = main(["serialize", "--data", str(data), "--schema", str(schema), "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert (code, stdout, err) == (1, "", (
        f"validation error: {data}: the sentence of entity 'p99' has {len(sentence)} "
        "characters, over the CSV field limit (131072)\n"))
    assert not out.exists()
