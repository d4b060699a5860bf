"""Command-line entry point.

Subcommands: gen-corpus | serialize | embed | aggregate | baseline | eval |
ablate | compare. Exit codes: 0 success, 1 validation error (a bad option,
config value or input file) or an output that cannot be written, 2 stage
failure, 3 backend failure. Stage logs go to standard error.
"""
from __future__ import annotations

import logging
import sys
from pathlib import Path

import click
import numpy as np

from .baseline import FeatureMatrix, build_baseline_features
from .data_model import from_dict, load_schema
from .embedding import EmbeddingConfig, embed_text, make_backend
from .errors import BackendError, TabTextError, ValidationError, stage
from .evaluation import SplitSpec, evaluate_features
from .formats import read_embeddings, read_sentences, write_embeddings, write_sentences
from .pipeline import load_inputs, load_run_config, parse_table, run_compare, run_grid
from .serializer import (
    CombineMode,
    MissingPolicy,
    SerializationConfig,
    serialize_row,
)
from .temporal import TemporalConfig, aggregate_entity


@click.group()
def cli():
    """TabText: tabular-to-text feature extraction and evaluation."""


def _given(options: dict) -> dict:
    """The options that were set on the command line. The others default to
    None, so that the config class they set holds each default once."""
    return {key: value for key, value in options.items() if value is not None}


def _ser_options(fn):
    fn = click.option("--missing-policy", type=click.Choice([p.value for p in MissingPolicy]))(fn)
    fn = click.option("--meta/--no-meta", "include_meta", default=None)(fn)
    fn = click.option("--descriptive/--terse", default=None)(fn)
    combine = click.Choice([m.value for m in CombineMode])
    return click.option("--combine", "combine_sources", type=combine)(fn)


@cli.command("gen-corpus")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int)
@click.option("--n-entities", type=int)
@click.option("--positive-rate", type=float)
@click.option("--missingness-rate", type=float)
@click.option("--informative-missingness", is_flag=True, default=None)
def gen_corpus(out_dir, **options):
    """Generate a seeded synthetic corpus (data + schemas + labels)."""
    from .synthetic import CorpusSpec, generate  # only this command needs it

    path = generate(CorpusSpec(**_given(options)), out_dir)
    click.echo(f"corpus written to {path}")


@cli.command()
@click.option("--data", type=click.Path(), required=True)
@click.option("--schema", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_ser_options
def serialize(data, schema, out_path, **axes):
    """Serialize a table to a sentence TSV, one line per row."""
    table_schema = load_schema(schema)
    rows = parse_table(data, table_schema)
    config = from_dict(SerializationConfig, _given(axes), "serialization")
    write_sentences(
        out_path,
        ((row.entity_id, row.timestamp, serialize_row(table_schema, row, config)) for row in rows),
    )
    click.echo(f"wrote {len(rows)} sentences to {out_path}")


@cli.command()
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--backend")
@click.option("--dim", type=int)
@click.option("--max-chars", type=int)
@click.option("--cache", type=click.Path(path_type=Path))
@click.option("--url")
def embed(in_path, out_path, **options):
    """Embed a sentence file into a per-row embedding CSV."""
    config = EmbeddingConfig(**_given(options))  # a bad flag is reported before --in is read
    records = read_sentences(in_path)
    be = make_backend(config)  # after the read: a missing input makes no cache directory
    write_embeddings(out_path, be.dim, ((e, t, embed_text(s, be)) for e, t, s in records))
    click.echo(f"wrote {len(records)} embeddings to {out_path}")


@cli.command()
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--normalize/--no-normalize", default=None)
def aggregate(in_path, out_path, **options):
    """Aggregate per-row embeddings into one vector per entity."""
    normalize = TemporalConfig(**_given(options)).normalize
    names, grouped = read_embeddings(in_path)
    values = np.empty((len(grouped), len(names)), dtype=np.float64)
    for i, (entity, entries) in enumerate(grouped.items()):
        values[i] = aggregate_entity([(in_path, entries)], CombineMode.SEPARATE, normalize, entity)
    matrix = FeatureMatrix(entity_ids=list(grouped), feature_names=names, values=values)
    matrix.to_csv(out_path)
    click.echo(f"wrote {len(grouped)} entity vectors to {out_path}")


@cli.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def baseline(config_path, out_path):
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
    click.echo(f"wrote {len(entity_ids)} x {len(matrix.feature_names)} features to {target}")


@cli.command("eval")
@click.option("--features", "features_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--train-fraction", type=float, default=None)
@click.option("--stratified/--no-stratified", default=None)
def eval_cmd(features_path, **split):
    """Split, fit the built-in classifier, and print test AUROC."""
    spec = SplitSpec(**_given(split))
    matrix = FeatureMatrix.from_csv(features_path)
    score, _, shash = evaluate_features(matrix, spec)
    click.echo(f"test AUROC: {score:.6f} (split {shash})")


@cli.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--train-fraction", type=float, default=None)
@click.option("--backend", default=None)
@click.option("--grid-extended", is_flag=True, default=False)
def ablate(config_path, seed, train_fraction, backend, grid_extended):
    """Run the sentence-representation ablation grid."""
    config = load_run_config(config_path, seed=seed, train_fraction=train_fraction, backend=backend)
    report = run_grid(config, extended=grid_extended)
    click.echo(report.render())


@cli.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--repeats", type=int, default=None)
def compare(config_path, seed, repeats):
    """Run TabText and the traditional baseline, report both AUROCs."""
    config = load_run_config(config_path, seed=seed, repeats=repeats)
    manifest = run_compare(config)
    results = manifest["results"]
    click.echo(f"Traditional AUROC: {results['baseline_auroc']:.6f}")
    click.echo(f"TabText AUROC: {results['tabtext_auroc']:.6f}")


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        return 1
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
