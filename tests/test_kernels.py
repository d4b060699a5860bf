"""Differential tests of the row-path kernels: the hashing embedder, the
timestamp-weighted sum and the float-row CSV writer each give, byte for byte,
what the plain versions kept frozen below give (a dense vector per text with
np.linalg.norm, np.stack of every vector, one list of fields per CSV line).
The feature CSV reader, which fills its matrix in place, is checked on every
line ending that csv.reader accepts."""
import hashlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabtext.embedding import HashingBackend, chunk_text, embed_text
from tabtext.formats import read_features, write_float_rows
from tabtext.temporal import aggregate_timed

# ---- frozen reference versions -------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def frozen_hashing(texts, dim):
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, text in enumerate(texts):
        vec = out[i]
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
            vec[int.from_bytes(digest[:8], "big") % dim] += 1.0 if digest[8] & 1 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def frozen_aggregate_timed(series, normalize=True):
    dim = len(series[0][1])
    order = sorted(range(len(series)), key=lambda i: (series[i][0], i))
    vectors = np.stack([np.asarray(series[i][1], dtype=np.float64) for i in order])
    weights = np.array([series[i][0] for i in order], dtype=np.float64)
    total = weights.sum()
    if total == 0.0:
        return vectors.mean(axis=0) if normalize else np.zeros(dim, dtype=np.float64)
    out = np.zeros(dim, dtype=np.float64)
    for weight, vector in zip(weights, vectors):
        out += weight * vector
    return out / total if normalize else out


def frozen_csv_field(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def frozen_write_float_rows(handle, leads, values, block_rows=256):
    template = ["0.0"] * values.shape[1]
    for start in range(0, len(values), block_rows):
        block = values[start : start + block_rows]
        rows, cols = np.nonzero((block != 0) | np.signbit(block))
        texts = [repr(v) for v in block[rows, cols].tolist()]
        bounds = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        cols = cols.tolist()
        for i, lead in enumerate(leads[start : start + len(block)]):
            fields = [*map(frozen_csv_field, lead), *template]
            offset = len(lead)
            for j in range(bounds[i], bounds[i + 1]):
                fields[offset + cols[j]] = texts[j]
            handle.write(",".join(fields) + "\n")


# ---- hashing --------------------------------------------------------------

LONG = " ".join(f"word{i} Über-{i % 7} x" for i in range(120))
TEXTS = [
    "",
    "   \t\n ",
    "a a a a b b a",
    "heart rate is 72 bpm; heart rate is 72 bpm.",
    "Ünïcödé straße 東京 x2 İstanbul K-9 ﬁve",
    "surrogate\udc80split",
    "MiXeD CaSe, punctuation!? 3.14 -0.0 1e308",
    LONG,
]


@pytest.mark.parametrize("dim", [1, 7, 768])
def test_hashing_matches_dense_vectors(dim):
    texts = TEXTS + chunk_text(LONG, 50)
    got = HashingBackend(dim=dim).embed_batch(texts)
    assert got.tobytes() == frozen_hashing(texts, dim).tobytes()


@pytest.mark.parametrize("dim", [1, 7, 768])
def test_hashing_text_by_text_matches_dense_vectors(dim):
    backend = HashingBackend(dim=dim, max_chars=50)
    for text in TEXTS:
        want = frozen_hashing(chunk_text(text, 50) or [""], dim).mean(axis=0)
        if not text.strip():
            want = np.zeros(dim)
        assert embed_text(text, backend).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab01 ,.ÄzéK\n", max_size=40), max_size=5))
def test_hashing_matches_dense_vectors_on_any_text(texts):
    got = HashingBackend(dim=5).embed_batch(texts)
    assert got.tobytes() == frozen_hashing(texts, 5).tobytes()


# ---- timestamp-weighted sum -------------------------------------------------

RNG = np.random.default_rng(7)
VECS = RNG.normal(size=(6, 9))
SERIES = {
    "single": [(3.5, VECS[0])],
    "all_zero": [(0.0, VECS[0]), (0.0, VECS[1]), (-0.0, VECS[2])],
    "negative_zero": [(-0.0, VECS[0]), (2.0, VECS[1]), (0.0, VECS[2])],
    "ties": [(1.0, VECS[3]), (1.0, VECS[1]), (0.5, VECS[2]), (1.0, VECS[0])],
    "shuffled": [(t, VECS[i]) for i, t in enumerate([5.0, 1.0, 3.0, 0.25, 4.0, 2.0])],
    "float32": [(t, VECS[i].astype(np.float32)) for i, t in enumerate([0.1, 7.0, 2.5])],
    "lists": [(1.5, VECS[0].tolist()), (0.5, VECS[1].tolist())],
    "large": [(1e150, VECS[0] * 1e150), (3e150, VECS[1])],
}


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_aggregate_timed_matches_stacked_sum(name, normalize):
    series = SERIES[name]
    got = aggregate_timed(series, normalize=normalize)
    assert got.dtype == np.float64
    assert got.tobytes() == frozen_aggregate_timed(series, normalize).tobytes()


def test_aggregate_timed_is_the_same_for_every_order_of_its_rows():
    series = SERIES["shuffled"] + SERIES["ties"]
    want = frozen_aggregate_timed(series)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(series))
        shuffled = [series[i] for i in order]
        assert aggregate_timed(shuffled).tobytes() == frozen_aggregate_timed(shuffled).tobytes()
    assert aggregate_timed(series).tobytes() == want.tobytes()


# ---- float-row CSV writer ---------------------------------------------------

MATRICES = {
    "width_1": (np.array([[0.0], [1.5], [-0.0], [5e-324]]), 1),
    "all_zero_row": (np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), 1),
    "no_zeros": (np.array([[1.0, -2.5, 1e308, -1e308, 0.1]]), 1),
    "signed_zeros_and_subnormals": (np.array([[-0.0, 0.0, 5e-324, -5e-324, -0.0]]), 1),
    "repeated_values": (np.tile(np.array([[0.1, 0.0, 0.2, 0.1, 0.0, 0.2]]), (4, 1)), 1),
    "no_lead": (np.array([[0.0, 3.0], [4.0, 0.0]]), 0),
    "no_rows": (np.zeros((0, 4)), 1),
    "several_blocks": (
        np.where(RNG.random((600, 11)) < 0.3, RNG.normal(size=(600, 11)).round(2), 0.0), 2
    ),
}
LEAD_TEXTS = ["p1", "a,b", 'say "hi"', "line\nbreak", "cr\r", "", "plain"]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_write_float_rows_matches_one_list_per_line(name):
    values, n_leads = MATRICES[name]
    leads = [
        tuple(LEAD_TEXTS[(i + k) % len(LEAD_TEXTS)] for k in range(n_leads))
        for i in range(len(values))
    ]
    got, want = io.StringIO(), io.StringIO()
    write_float_rows(got, leads, values)
    frozen_write_float_rows(want, leads, values)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e308, 1 / 3]),
                min_size=width,
                max_size=width,
            ),
            max_size=6,
        ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width))
    )
)
def test_write_float_rows_matches_one_list_per_line_on_any_matrix(values):
    leads = [(f"e{i}",) for i in range(len(values))]
    got, want = io.StringIO(), io.StringIO()
    write_float_rows(got, leads, values)
    frozen_write_float_rows(want, leads, values)
    assert got.getvalue() == want.getvalue()


# ---- feature CSV reader -----------------------------------------------------


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("blank_lines", [False, True])
def test_read_features_reads_every_line_ending(tmp_path, newline, blank_lines):
    header = "entity_id,label,a,b"
    records = ['"p\n1",1,0.5,0.0', "p2,0,-0.0,1e308", '"p,3",1,5e-324,2']
    lines = [header, *records]
    if blank_lines:
        lines = [header, "", records[0], "", "", *records[1:], ""]
    path = tmp_path / "features.csv"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    ids, names, values, labels = read_features(path)
    assert ids == ["p\n1", "p2", "p,3"] and names == ["a", "b"]
    assert labels.tolist() == [1, 0, 1]
    want = np.array([[0.5, 0.0], [-0.0, 1e308], [5e-324, 2.0]])
    assert values.shape == (3, 2) and values.tobytes() == want.tobytes()
