"""TabText: tabular-to-text feature extraction, embedding, and evaluation."""

from .data_model import (
    CellValue,
    ColumnKind,
    ColumnSpec,
    Row,
    TableMeta,
    TableSchema,
    load_schema,
    parse_table,
)
from .serializer import (
    CombineMode,
    MissingPolicy,
    SerializationConfig,
    serialize_cell,
    serialize_row,
)
from .embedding import (
    CachingBackend,
    HashingBackend,
    RemoteBackend,
    chunk_text,
    embed_text,
    make_backend,
)
from .temporal import TimedEmbedding, aggregate_entity, aggregate_timed
from .baseline import (
    FeatureMatrix,
    build_baseline_features,
    encode_categorical,
    summarize_series,
)
from .evaluation import (
    AblationReport,
    SplitSpec,
    auroc,
    fit_linear_classifier,
    run_ablation,
    split,
)
from .synthetic import CorpusSpec, generate, oracle_scores
from .pipeline import RunConfig, build_tabtext_features, load_run_config, run_compare

__version__ = "0.1.0"
