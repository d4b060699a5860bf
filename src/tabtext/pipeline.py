"""End-to-end wiring: config, stages, feature construction, and manifests.

The pipeline is parse -> serialize -> embed -> aggregate -> features ->
evaluate. Reruns with an identical config (and a warm cache) are
byte-identical; the manifest records the config hash, backend id, split hash,
and a digest of every output file.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .baseline import BaselineConfig, FeatureMatrix, assemble_rows, build_baseline_features
from .data_model import Row, TableSchema, from_dict, group_rows, load_schema, parse_table
from .data_model import read_section, to_dict
from .embedding import EmbeddingBackend, EmbeddingConfig, embed_text, make_backend
from .errors import ValidationError, stage
from .evaluation import AblationReport, SplitSpec, evaluate_features, grid_points, run_ablation
from .formats import load_labels, read_yaml
from .serializer import CombineMode, SerializationConfig, serialize_row
from .temporal import TemporalConfig, aggregate_entity


@dataclass(frozen=True)
class SourceConfig:
    name: str
    data: Path
    schema: Path


@dataclass
class RunConfig:
    """One field per section of a config file, of its name; those between
    ``labels`` and ``output_dir`` are dataclasses that check their values."""

    sources: list[SourceConfig]
    labels: Optional[Path]
    serialization: SerializationConfig = field(default_factory=SerializationConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    evaluation: SplitSpec = field(default_factory=SplitSpec)
    output_dir: Path = Path("out")

    def sections(self) -> dict:
        """This config as the sections of a config file, paths as given."""
        return {
            "sources": [{k: str(v) for k, v in to_dict(s).items()} for s in self.sources],
            "labels": str(self.labels) if self.labels else None,
            **{f.name: to_dict(getattr(self, f.name)) for f in fields(self)[2:-1]},
            "output_dir": str(self.output_dir),
        }

    def canonical(self) -> dict:
        """Stable dict for hashing: :meth:`sections` without the keys that
        do not change results, ``embedding.cache`` and ``output_dir``."""
        doc = self.sections()
        del doc["embedding"]["cache"], doc["output_dir"]
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def load_run_config(path: Union[str, Path], **overrides) -> RunConfig:
    """Load a YAML run config; relative paths resolve against the config file.
    It holds keys of :meth:`RunConfig.sections`, and each section is read by
    :func:`from_dict`, which checks its values; an ``overrides`` value
    replaces the key of its name."""
    path = Path(path)
    defaults = RunConfig([], None)
    known = defaults.sections()
    doc = read_section(read_yaml(path) or {}, known, str(path))
    sections = [name for name, value in known.items() if isinstance(value, dict)]
    for key, value in overrides.items():
        name = next(name for name in sections if key in known[name])
        doc[name] = {**doc[name], key: value}

    def resolve(value: object, key: str) -> Optional[Path]:
        if value is not None and not (value and isinstance(value, str)):
            raise ValidationError(f"{key!r} in {path} must be a path, not {value!r}")
        return None if value is None else (path.parent / value).resolve()

    sources = []
    for s in doc["sources"]:
        read_section(s, {"name": "", "data": None, "schema": None}, "an item of sources")
        if not (s.get("data") and s.get("schema")):
            raise ValidationError("an item of sources needs 'data' and 'schema'")
        data, schema = resolve(s["data"], "data"), resolve(s["schema"], "schema")
        sources.append(SourceConfig(s.get("name") or data.stem, data, schema))
    cache = doc["embedding"].get("cache")
    doc["embedding"] = {**doc["embedding"], "cache": resolve(cache, "cache")}
    return RunConfig(
        sources=sources,
        labels=resolve(doc["labels"], "labels"),
        **{name: from_dict(type(getattr(defaults, name)), doc[name], name) for name in sections},
        output_dir=resolve(doc["output_dir"], "output_dir"),
    )


def load_inputs(
    config: RunConfig, command: str
) -> tuple[list[tuple[str, TableSchema, dict[str, list[Row]]]], list[str], dict[str, int]]:
    """Check the sources and the labels file of ``config``, which ``command``
    requires, then parse them, each table's rows grouped by :func:`group_rows`:
    (sources as (name, schema, rows by entity), entity ids, labels by entity)."""
    if not config.sources:
        raise ValidationError("'sources' lists no source")
    names = [source.name for source in config.sources]
    for name in names:
        if names.count(name) > 1:
            raise ValidationError(f"source name {name!r} is repeated in 'sources'")
    if config.labels is None:
        raise ValidationError(f"{command} requires a labels file")
    with stage("parse"):
        tables = []
        for source in config.sources:
            schema = load_schema(source.schema)
            tables.append((source.name, schema, parse_table(source.data, schema)))
        entity_ids, labels = load_labels(config.labels)
        sources = [(name, schema, group_rows(name, schema, rows, entity_ids))
                   for name, schema, rows in tables]
    return sources, entity_ids, labels


def build_tabtext_features(
    sources: Sequence[tuple[str, TableSchema, Mapping[str, Sequence[Row]]]],
    entity_ids: Sequence[str],
    labels: Optional[dict[str, int]],
    ser_config: SerializationConfig,
    backend: EmbeddingBackend,
    normalize: bool = True,
) -> FeatureMatrix:
    """Serialize, embed, and aggregate each source into one block of every
    entity's row of the feature matrix, a source at a time within each run
    of entities that :func:`~tabtext.baseline.assemble_rows` asks for; it
    holds the matrix as SparseRows while its cells are mostly zero.

    ``entity_ids`` is the entity universe, and each source comes with its
    rows by entity, as :func:`load_inputs` groups them; an entity without
    rows in a source keeps a zero block. Only this function combines
    sources: separate mode lays one block per source side by side, in source
    order; single-paragraph mode embeds each entity's static sentences,
    joined by spaces, as one paragraph, its block 0, and averages it with one
    block per time-series source, so the width stays the backend dimension.
    """
    universe = list(entity_ids)
    single = ser_config.combine_sources is CombineMode.SINGLE_PARAGRAPH
    statics = [s for s in sources if single and s[1].time_column is None]
    blocks = [s for s in sources if not (single and s[1].time_column is None)]
    dim = backend.dim

    def fill(start: int, values: np.ndarray) -> None:
        """The rows of the entities from ``start`` on into the zeroed ``values``."""
        entities = universe[start : start + len(values)]
        for i, entity in enumerate(entities):
            texts = [serialize_row(schema, row, ser_config)
                     for _, schema, per_entity in statics for row in per_entity.get(entity, ())]
            if texts:
                values[i] = embed_text(" ".join(texts), backend)
        for b, (name, schema, per_entity) in enumerate(blocks, start=bool(statics)):
            for i, entity in enumerate(entities):
                vector = 0.0  # the zero block, which single-paragraph mode still sums
                if rows := per_entity.get(entity):
                    texts = [serialize_row(schema, row, ser_config) for row in rows]
                    embedded = [(row.timestamp, embed_text(t, backend))
                                for row, t in zip(rows, texts)]
                    vector = aggregate_entity(name, entity, embedded, normalize)
                if single and b:
                    values[i] += vector
                else:
                    values[i, b * dim : (b + 1) * dim] = vector
        if single:
            values /= bool(statics) + len(blocks)  # the mean of the blocks, summed in block order

    values = assemble_rows(len(universe), dim if single else len(blocks) * dim, fill)
    prefixes = ["text"] if single else [name for name, _, _ in sources]
    names = [f"{prefix}.e{i}" for prefix in prefixes for i in range(dim)]

    return FeatureMatrix(
        entity_ids=universe,
        feature_names=names,
        values=values,
        labels=[labels[e] for e in universe] if labels else None,
    )


def _digest(path: Path) -> str:
    """The sha256 of the file at ``path``, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def run_compare(config: RunConfig) -> dict:
    """Run both pipelines on one dataset and write a comparison report.

    Returns the manifest dict (also written to manifest.json).
    """
    sources, entity_ids, labels = load_inputs(config, "compare")

    with stage("features", items=len(entity_ids)):
        backend = make_backend(config.embedding)
        tabtext = build_tabtext_features(
            sources, entity_ids, labels, config.serialization, backend, config.temporal.normalize
        )
    with stage("baseline", items=len(entity_ids)):
        base = build_baseline_features(
            sources, entity_ids, labels, config.baseline.max_categories
        )
    del sources  # the parsed rows are not needed past this point; free them for the fit

    with stage("evaluate"):
        tab_mean, tab_sd, shash = evaluate_features(tabtext, config.evaluation)
        base_mean, base_sd, _ = evaluate_features(base, config.evaluation)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    tabtext_path = out / "tabtext_features.csv"
    base_path = out / "baseline_features.csv"
    report_path = out / "report.txt"
    tabtext.to_csv(tabtext_path)
    base.to_csv(base_path)

    lines = ["Pipeline | Test AUROC"] + [
        f"{name} | {mean:.6f}" + (f" +/- {sd:.6f}" if sd is not None else "")
        for name, mean, sd in (("Traditional", base_mean, base_sd), ("TabText", tab_mean, tab_sd))
    ]
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "config_hash": config.config_hash(),
        "backend_id": backend.backend_id,
        "split_hash": shash,
        "outputs": {path.name: _digest(path) for path in (tabtext_path, base_path, report_path)},
        "results": {"tabtext_auroc": tab_mean, "baseline_auroc": base_mean},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def run_grid(config: RunConfig, extended: bool = False) -> AblationReport:
    """Run the ablation grid and write the report files."""
    sources, entity_ids, labels = load_inputs(config, "ablation")

    def builder(point: SerializationConfig) -> FeatureMatrix:
        return build_tabtext_features(
            sources, entity_ids, labels, point, backend, config.temporal.normalize
        )

    points = grid_points(config.serialization, extended)
    with stage("ablate", items=len(points)):
        backend = make_backend(config.embedding)
        report = run_ablation(builder, config.evaluation, points)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_report.txt").write_text(report.render(), encoding="utf-8")
    (out / "ablation_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report
