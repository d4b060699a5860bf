"""Seeded synthetic multi-table corpora with a known label mechanism.

Stands in for confidential clinical data: a static demographics table (with a
high-cardinality diagnosis text column), a timestamped vitals table, and a
labels file. The label signal is injected through a categorical diagnosis
token so that a text pipeline can genuinely recover it while the traditional
baseline, which drops free-text columns, cannot.

The ``informative_missingness`` switch produces a corpus where only the
pattern of absent values predicts the label: values themselves are noise and
missing cells are written as empty strings.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .data_model import Row, load_schema, parse_table
from .errors import ValidationError
from .formats import load_labels

SIGNAL_WORDS = (
    "septic shock",
    "cardiac arrest",
    "acute respiratory failure",
    "severe hemorrhage",
)
BENIGN_WORDS = (
    "routine observation",
    "stable recovery",
    "scheduled followup",
    "minor sprain",
    "mild dehydration",
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

# The label mechanism. Diagnosis channel: P(signal word | y).
P_SIGNAL_POS, P_SIGNAL_NEG = 0.95, 0.02
# A mild numeric signal, so the baseline is better than chance. Each value of
# a column is normal: (its mean, the shift of the mean for y = 1, its sd); the
# informative-missingness mode shifts nothing.
NORMAL = {"age": (55.0, 7.0, 12.0), "heart_rate": (78.0, 6.0, 10.0), "resp_rate": (16.0, 1.5, 3.0)}
# The informative-missingness channel: P(missing | y).
P_MISSING_POS, P_MISSING_NEG = 0.85, 0.10


@dataclass
class CorpusSpec:
    seed: int = 0
    n_entities: int = 1590
    positive_rate: float = 121 / 1590
    missingness_rate: float = 0.2
    informative_missingness: bool = False

    def __post_init__(self):
        for name in ("seed", "n_entities"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("positive_rate", "missingness_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], not {getattr(self, name)}")


DEMOGRAPHICS_SCHEMA = {
    "meta": {
        "table_title": "Demographics",
        "description": "patient background and admission diagnosis",
    },
    "entity_column": "id",
    "time_column": None,
    "columns": [
        {"name": "id", "kind": "categorical"},
        {
            "name": "age",
            "kind": "numeric",
            "unit": "years",
            "descriptive_template": "The patient is {value} years old",
        },
        {"name": "gender", "kind": "binary"},
        {
            "name": "bmi",
            "kind": "numeric",
            "descriptive_template": "The body mass index is {value}",
        },
        {"name": "note_a", "kind": "free_text", "label": "first note"},
        {"name": "note_b", "kind": "free_text", "label": "second note"},
        {"name": "note_c", "kind": "free_text", "label": "third note"},
        {"name": "diagnosis", "kind": "free_text"},
    ],
}

VITALS_SCHEMA = {
    "meta": {
        "table_title": "Vitals",
        "description": "timestamped bedside measurements",
    },
    "entity_column": "id",
    "time_column": "hour",
    "columns": [
        {"name": "id", "kind": "categorical"},
        {"name": "hour", "kind": "timestamp"},
        {
            "name": "heart_rate",
            "kind": "numeric",
            "unit": "bpm",
            "descriptive_template": "The heart rate is {value} beats per minute",
        },
        {"name": "resp_rate", "kind": "numeric", "label": "respiratory rate"},
    ],
}


def _word(rng: np.random.Generator, length: int = 6) -> str:
    return "".join(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), size=length))


def generate(spec: CorpusSpec, out_dir: Union[str, Path]) -> Path:
    """Write a corpus (data + schema + labels + ground truth) to out_dir.

    Deterministic given the seed: two runs produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    n = spec.n_entities
    ids = [f"p{i:05d}" for i in range(n)]
    y = (rng.random(n) < spec.positive_rate).astype(int)

    informative = spec.informative_missingness
    missing_token = "" if informative else "NaN"
    shifted = {c: (m, 0.0 if informative else s, sd) for c, (m, s, sd) in NORMAL.items()}

    def normal(column: str, label, size=None) -> np.ndarray:
        mean, shift, sd = shifted[column]
        return rng.normal(mean + shift * label, sd, size=size)

    age = normal("age", y)
    gender = np.where(rng.random(n) < 0.5, "female", "male")
    bmi = rng.normal(27.0, 4.0, size=n)

    if informative:
        p_missing = np.where(y == 1, P_MISSING_POS, P_MISSING_NEG)
        p_signal = np.full(n, 0.0)
    else:
        p_missing = np.full(n, spec.missingness_rate)
        p_signal = np.where(y == 1, P_SIGNAL_POS, P_SIGNAL_NEG)

    # informative mode: missingness lives on the three unique-word note
    # columns; every other column is pure noise (the diagnosis text gets a
    # label-independent random length so sentence-length effects are noise).
    bmi_missing = np.zeros(n, dtype=bool) if informative else rng.random(n) < p_missing
    note_missing = np.column_stack([rng.random(n) < p_missing for _ in range(3)])
    has_signal = rng.random(n) < p_signal
    if informative:
        diagnosis = [
            " ".join(_word(rng) for _ in range(int(rng.integers(3, 10))))
            for _ in range(n)
        ]
    else:
        diagnosis = [
            SIGNAL_WORDS[rng.integers(0, len(SIGNAL_WORDS))]
            if has_signal[i]
            else BENIGN_WORDS[rng.integers(0, len(BENIGN_WORDS))]
            for i in range(n)
        ]
    notes = [[_word(rng) for _ in range(3)] for _ in range(n)]

    demo_lines = ["id,age,gender,bmi,note_a,note_b,note_c,diagnosis"]
    for i in range(n):
        bmi_text = missing_token if bmi_missing[i] else f"{bmi[i]:.1f}"
        note_texts = [missing_token if note_missing[i, k] else notes[i][k] for k in range(3)]
        fields = [ids[i], f"{age[i]:.1f}", str(gender[i]), bmi_text, *note_texts, diagnosis[i]]
        demo_lines.append(",".join(fields))

    vitals_lines = ["id,hour,heart_rate,resp_rate"]
    for i in range(n):
        n_obs = int(rng.integers(1, 11))
        hours = np.sort(np.round(rng.uniform(0.0, 48.0, size=n_obs), 1))
        hr = normal("heart_rate", y[i], size=n_obs)
        rr = normal("resp_rate", y[i], size=n_obs)
        for k in range(n_obs):
            vitals_lines.append(f"{ids[i]},{hours[k]:.1f},{hr[k]:.1f},{rr[k]:.1f}")

    label_lines = ["entity_id,label"]
    label_lines.extend(f"{ids[i]},{int(y[i])}" for i in range(n))

    (out / "demographics.csv").write_text("\n".join(demo_lines) + "\n", encoding="utf-8")
    (out / "vitals.csv").write_text("\n".join(vitals_lines) + "\n", encoding="utf-8")
    (out / "labels.csv").write_text("\n".join(label_lines) + "\n", encoding="utf-8")

    import yaml

    (out / "demographics.schema.yaml").write_text(
        yaml.safe_dump(DEMOGRAPHICS_SCHEMA, sort_keys=False), encoding="utf-8"
    )
    (out / "vitals.schema.yaml").write_text(
        yaml.safe_dump(VITALS_SCHEMA, sort_keys=False), encoding="utf-8"
    )

    truth = {
        "seed": spec.seed,
        "n_entities": n,
        "n_positive": int(y.sum()),
        "informative_missingness": informative,
        "mechanism": {
            **{c: {"mean_neg": m, "shift_pos": s, "std": sd} for c, (m, s, sd) in shifted.items()},
            "diagnosis": {
                "p_signal_pos": float(p_signal[y == 1].mean()) if y.any() else 0.0,
                "p_signal_neg": 0.0 if informative else P_SIGNAL_NEG,
            },
            "missingness": {
                "p_missing_pos": P_MISSING_POS if informative else spec.missingness_rate,
                "p_missing_neg": P_MISSING_NEG if informative else spec.missingness_rate,
                "columns": ["note_a", "note_b", "note_c"]
                if informative
                else ["bmi", "note_a", "note_b", "note_c"],
            },
        },
    }
    (out / "ground_truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def oracle_scores(
    corpus_dir: Union[str, Path], spec: CorpusSpec
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Exact log-likelihood-ratio scores of the corpus that :func:`generate`
    wrote for ``spec`` in ``corpus_dir``, under the module constants above.

    Returns (entity_ids, scores, labels) in labels-file order. The files are
    read by the package's own readers, so a cell is missing as
    ``cell.missing`` says. The AUROC of these scores is the empirical
    Bayes-optimal performance on this corpus; no pipeline should beat it by
    more than statistical noise.
    """
    out = Path(corpus_dir)
    entity_ids, labels = load_labels(out / "labels.csv")
    scores = dict.fromkeys(entity_ids, 0.0)

    at: dict[str, int] = {}  # a column's position in its rows' cells; the tables share no name

    def table(name: str) -> list[Row]:
        schema = load_schema(out / f"{name}.schema.yaml")
        at.update((c.name, i) for i, c in enumerate(schema.value_columns))
        return parse_table(out / f"{name}.csv", schema)

    def gauss_llr(row: Row, column: str) -> float:
        mean_neg, shift, std = NORMAL[column]
        x, mean_pos = row.cells[at[column]].parsed, mean_neg + shift
        return ((x - mean_neg) ** 2 - (x - mean_pos) ** 2) / (2 * std**2)

    def bern_llr(p_pos: float, p_neg: float) -> dict[bool, float]:
        """The LLR of a yes/no outcome, by the outcome."""
        return {True: math.log(p_pos / p_neg), False: math.log((1 - p_pos) / (1 - p_neg))}

    if spec.informative_missingness:
        # Only the notes' missingness depends on the label: no value is
        # shifted and no diagnosis holds a signal word.
        missing = bern_llr(P_MISSING_POS, P_MISSING_NEG)
        for row in table("demographics"):
            notes = (row.cells[at[c]].missing for c in ("note_a", "note_b", "note_c"))
            scores[row.entity_id] += sum(missing[m] for m in notes)
    else:
        # Missingness has one rate in both classes, so its LLR is 0.
        signal = bern_llr(P_SIGNAL_POS, P_SIGNAL_NEG)
        for row in table("demographics"):
            hit = row.cells[at["diagnosis"]].raw in SIGNAL_WORDS
            scores[row.entity_id] += gauss_llr(row, "age") + signal[hit]
        for row in table("vitals"):
            scores[row.entity_id] += gauss_llr(row, "heart_rate")
            scores[row.entity_id] += gauss_llr(row, "resp_rate")
    # Both dicts hold the entities in labels-file order.
    return entity_ids, np.array(list(scores.values())), np.array(list(labels.values()))
