"""Command-line entry point.

Subcommands: gen-corpus | serialize | embed | aggregate | baseline | eval |
ablate | compare. Exit codes: 0 success (also ``--help``), 1 validation error
(a bad option, config value or input file) or an output that cannot be
written, 2 stage failure, 3 backend failure. Stage logs go to standard error.
"""
from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

from .baseline import FeatureMatrix, build_baseline_features
from .data_model import from_dict, load_schema
from .embedding import EmbeddingConfig, embed_text, make_backend
from .errors import BackendError, TabTextError, ValidationError, stage
from .evaluation import SplitSpec, evaluate_features
from .formats import read_embeddings, read_sentences, write_embeddings, write_sentences
from .pipeline import load_inputs, load_run_config, parse_table, run_compare, run_grid
from .serializer import MissingPolicy, SerializationConfig, serialize_row
from .temporal import TemporalConfig, aggregate_entity


def gen_corpus(out_dir, **options):
    """Generate a seeded synthetic corpus (data + schemas + labels)."""
    from .synthetic import CorpusSpec, generate  # only this command needs it

    path = generate(CorpusSpec(**options), out_dir)
    print(f"corpus written to {path}")


def serialize(data, schema, out_path, **axes):
    """Serialize a table to a sentence CSV, one record per row."""
    table_schema = load_schema(schema)
    rows = parse_table(data, table_schema)
    config = from_dict(SerializationConfig, axes, "serialization")
    records = [(r.entity_id, r.timestamp, serialize_row(table_schema, r, config)) for r in rows]
    limit = csv.field_size_limit()  # the longest field that embed reads
    for entity, _, text in records:  # each checked before the file is opened
        if len(text) > limit:
            raise ValidationError(f"{data}: the sentence of entity '{entity}' has {len(text)} "
                                  f"characters, over the CSV field limit ({limit})")
    write_sentences(out_path, records)
    print(f"wrote {len(rows)} sentences to {out_path}")


def embed(in_path, out_path, **options):
    """Embed a sentence CSV into a per-row embedding CSV."""
    config = EmbeddingConfig(**options)  # a bad flag is reported before --in is read
    records = read_sentences(in_path)
    be = make_backend(config)  # after the read: a missing input makes no cache directory
    write_embeddings(out_path, be.dim, ((e, t, embed_text(s, be)) for e, t, s in records))
    print(f"wrote {len(records)} embeddings to {out_path}")


def aggregate(in_path, out_path, **options):
    """Aggregate per-row embeddings into one vector per entity."""
    normalize = TemporalConfig(**options).normalize
    names, grouped = read_embeddings(in_path)
    values = np.empty((len(grouped), len(names)), dtype=np.float64)
    for i, (entity, entries) in enumerate(grouped.items()):
        values[i] = aggregate_entity(in_path, entity, entries, normalize)
    matrix = FeatureMatrix(entity_ids=list(grouped), feature_names=names, values=values)
    matrix.to_csv(out_path)
    print(f"wrote {len(grouped)} entity vectors to {out_path}")


def baseline(config_path, out_path=None):
    """Build the traditional feature matrix for all configured sources."""
    config = load_run_config(config_path)
    sources, entity_ids, labels = load_inputs(config, "baseline")
    with stage("baseline", items=len(entity_ids)):
        matrix = build_baseline_features(
            sources, entity_ids, labels, config.baseline.max_categories
        )
    target = Path(out_path) if out_path else config.output_dir / "baseline_features.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    matrix.to_csv(target)
    print(f"wrote {len(entity_ids)} x {len(matrix.feature_names)} features to {target}")


def eval_cmd(features_path, **split):
    """Split, fit the built-in classifier, and print test AUROC."""
    spec = SplitSpec(**split)
    matrix = FeatureMatrix.from_csv(features_path)
    try:
        score, _, shash = evaluate_features(matrix, spec)
    except ValidationError as exc:  # the matrix came from the file: name it
        raise ValidationError(f"{features_path}: {exc}") from None
    print(f"test AUROC: {score:.6f} (split {shash})")


def ablate(config_path, grid_extended=False, **overrides):
    """Run the sentence-representation ablation grid."""
    report = run_grid(load_run_config(config_path, **overrides), extended=grid_extended)
    print(report.render())


def compare(config_path, **overrides):
    """Run TabText and the traditional baseline, report both AUROCs."""
    manifest = run_compare(load_run_config(config_path, **overrides))
    results = manifest["results"]
    print(f"Traditional AUROC: {results['baseline_auroc']:.6f}")
    print(f"TabText AUROC: {results['tabtext_auroc']:.6f}")


class _Parser(argparse.ArgumentParser):
    """A usage fault is a ValidationError, a flag must be spelled in full, and
    a flag that is not given is absent, so the config class it sets holds each
    default once. Each subcommand's parser is of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _parser() -> _Parser:
    """Each subcommand calls its function above with the given flags as keywords."""
    parser = _Parser(
        prog="tabtext", description="TabText: tabular-to-text feature extraction and evaluation."
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn, name: str):
        """The add_argument of a new subcommand ``name`` that runs ``fn``."""
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.set_defaults(command=fn)
        return sub.add_argument

    flag = command(gen_corpus, "gen-corpus")
    flag("--out", dest="out_dir", required=True)
    flag("--seed", type=int)
    flag("--n-entities", type=int)
    flag("--positive-rate", type=float)
    flag("--missingness-rate", type=float)
    flag("--informative-missingness", action="store_const", const=True)
    flag = command(serialize, "serialize")
    flag("--data", required=True)
    flag("--schema", required=True)
    flag("--out", dest="out_path", required=True)
    flag("--missing-policy", choices=[p.value for p in MissingPolicy])
    flag("--meta", dest="include_meta", action=argparse.BooleanOptionalAction)
    flag("--descriptive", action="store_const", const=True)
    flag("--terse", dest="descriptive", action="store_const", const=False)
    flag = command(embed, "embed")
    flag("--in", dest="in_path", required=True)
    flag("--out", dest="out_path", required=True)
    flag("--backend")
    flag("--dim", type=int)
    flag("--max-chars", type=int)
    flag("--cache", type=Path)
    flag("--url")
    flag = command(aggregate, "aggregate")
    flag("--in", dest="in_path", required=True)
    flag("--out", dest="out_path", required=True)
    flag("--normalize", action=argparse.BooleanOptionalAction)
    flag = command(baseline, "baseline")
    flag("--config", dest="config_path", required=True)
    flag("--out", dest="out_path")
    flag = command(eval_cmd, "eval")
    flag("--features", dest="features_path", required=True)
    flag("--seed", type=int)
    flag("--train-fraction", type=float)
    flag("--stratified", action=argparse.BooleanOptionalAction)
    flag = command(ablate, "ablate")
    flag("--config", dest="config_path", required=True)
    flag("--seed", type=int)
    flag("--train-fraction", type=float)
    flag("--backend")
    flag("--grid-extended", action="store_true")
    flag = command(compare, "compare")
    flag("--config", dest="config_path", required=True)
    flag("--seed", type=int)
    flag("--repeats", type=int)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    try:
        options = vars(_parser().parse_args(argv))
        options.pop("command")(**options)
    except SystemExit as exc:
        if exc.code != 0:  # only --help exits, and with 0
            raise
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except TabTextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An output that cannot be written: a fault in reading an input is
        # already a ValidationError.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
