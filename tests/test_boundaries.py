"""The input boundary of ``compare``: a valid 40-entity corpus and run config,
changed one way at a time, run through ``tabtext.cli.main`` in process.

An input fault exits 1 with one ``validation error:`` line that names the
file, or the source read from it, with no traceback and no output directory.
A valid input exits 0, writes finite features, and writes the same
``manifest.json`` bytes on a second run.
"""
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


def compare(corpus, out, embedding):
    """``tabtext compare`` of the corpus into ``out``; its exit code."""
    config = corpus / f"{out.name}.yaml"
    config.write_text(yaml.safe_dump({
        "sources": [{"data": f"{name}.csv", "schema": f"{name}.schema.yaml"}
                    for name in ("demographics", "vitals")],
        "labels": "labels.csv",
        "embedding": {"dim": 64, **embedding},
        "output_dir": str(out),
    }))
    return main(["compare", "--config", str(config)])


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
