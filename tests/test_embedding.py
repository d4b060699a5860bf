import contextlib
import http.server
import json
import sqlite3
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabtext.embedding import (
    CachingBackend,
    EmbeddingConfig,
    HashingBackend,
    RemoteBackend,
    chunk_text,
    embed_text,
    make_backend,
)
from tabtext.errors import BackendError, ValidationError


class StubBackend:
    """Returns vectors derived deterministically from each text's hash."""

    def __init__(self, dim=8, max_chars=510):
        self.dim = dim
        self.max_chars = max_chars
        self.backend_id = f"stub-d{dim}"
        self.calls = 0

    def vector(self, text):
        rng = np.random.default_rng(abs(hash(text)) % 2**32)
        return rng.normal(size=self.dim)

    def embed_batch(self, texts):
        self.calls += 1
        return np.stack([self.vector(t) for t in texts])


def greedy_chunks(text, max_chars):
    """Reference: hard-split long tokens, then add pieces while they fit."""
    pieces = []
    for token in text.split():
        while len(token) > max_chars:
            pieces.append(token[:max_chars])
            token = token[max_chars:]
        if token:
            pieces.append(token)
    chunks, current = [], ""
    for piece in pieces:
        if current and len(current) + 1 + len(piece) <= max_chars:
            current += " " + piece
        else:
            if current:
                chunks.append(current)
            current = piece
    return chunks + [current] if current else chunks


class TestChunkText:
    def test_under_limit_identity(self):
        assert chunk_text("short sentence.", 510) == ["short sentence."]

    def test_greedy_whitespace_split(self):
        assert chunk_text("aa bb cc", 5) == ["aa bb", "cc"]

    def test_hard_split_long_token(self):
        text = "a" * 1200
        chunks = chunk_text(text, 510)
        assert [len(c) for c in chunks] == [510, 510, 180]
        assert "".join(chunks) == text

    def test_empty_and_whitespace(self):
        assert chunk_text("", 510) == []
        assert chunk_text("  \t \n ", 510) == []

    def test_whitespace_runs_collapse(self):
        assert chunk_text("a   b\t\tc", 100) == ["a b c"]

    def test_max_chars_one(self):
        assert chunk_text("ab c", 1) == ["a", "b", "c"]

    def test_invalid_max_chars(self):
        with pytest.raises(ValueError):
            chunk_text("x", 0)

    @settings(max_examples=300)
    @given(
        st.text(alphabet="ab \t\n", max_size=200),
        st.integers(min_value=1, max_value=20),
    )
    def test_property_chunks_bounded_and_reconstruct(self, text, max_chars):
        chunks = chunk_text(text, max_chars)
        assert all(1 <= len(c) <= max_chars for c in chunks)
        # reconstruction modulo collapsed whitespace (and hard splits)
        assert "".join(chunks).replace(" ", "") == "".join(text.split())
        if text.split() and all(len(t) <= max_chars for t in text.split()):
            assert " ".join(chunks) == " ".join(text.split())
        assert chunks == greedy_chunks(text, max_chars)


class TestEmbedText:
    def test_single_chunk_passthrough(self):
        backend = StubBackend()
        text = "short text"
        np.testing.assert_array_equal(
            embed_text(text, backend), backend.embed_batch([text])[0]
        )

    def test_mean_of_two_chunks(self):
        backend = StubBackend(max_chars=5)
        out = embed_text("aa bb cc", backend)
        expected = (backend.vector("aa bb") + backend.vector("cc")) / 2
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_empty_gives_zero_vector(self):
        backend = StubBackend()
        np.testing.assert_array_equal(embed_text("", backend), np.zeros(8))
        np.testing.assert_array_equal(embed_text("   ", backend), np.zeros(8))

    def test_repeat_calls_identical(self):
        backend = HashingBackend(dim=64)
        text = "age is 50; gender is female."
        np.testing.assert_array_equal(embed_text(text, backend), embed_text(text, backend))

    def test_batching_does_not_change_results(self):
        backend = HashingBackend(dim=64)
        texts = ["a b c", "d e f", "a b c d"]
        batch = backend.embed_batch(texts)
        for i, text in enumerate(texts):
            np.testing.assert_array_equal(batch[i], backend.embed_batch([text])[0])


class TestHashingBackend:
    def test_unit_norm_or_zero(self):
        backend = HashingBackend(dim=128)
        for text in ["hello world", "a", ""]:
            vec = backend.embed_batch([text])[0]
            norm = np.linalg.norm(vec)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-12

    def test_shared_tokens_raise_cosine(self):
        backend = HashingBackend(dim=256)
        a, b, c = backend.embed_batch(
            ["patient has septic shock", "patient has cardiac arrest", "qq ww ee rr"]
        )
        assert a @ b > a @ c

    def test_deterministic_across_instances(self):
        first = HashingBackend(dim=64).embed_batch(["age is 50"])
        second = HashingBackend(dim=64).embed_batch(["age is 50"])
        np.testing.assert_array_equal(first, second)

    def test_case_and_punctuation_folding(self):
        backend = HashingBackend(dim=64)
        a, b = backend.embed_batch(["Age is 50.", "age is 50"])
        np.testing.assert_array_equal(a, b)


class TestCachingBackend:
    def test_cache_transparent_and_hit(self, tmp_path):
        inner = StubBackend()
        cached = CachingBackend(inner, tmp_path / "cache")
        texts = ["one", "two", "one"]
        first = cached.embed_batch(texts)
        calls_after_first = inner.calls
        second = cached.embed_batch(texts)
        np.testing.assert_array_equal(first, second)
        assert inner.calls == calls_after_first  # all hits on the second pass
        np.testing.assert_array_equal(first, inner.embed_batch(texts))

    def test_cache_keyed_by_backend_id(self, tmp_path):
        a = CachingBackend(StubBackend(dim=8), tmp_path / "c")
        key_a = a._key("hello")
        b = CachingBackend(HashingBackend(dim=8), tmp_path / "c")
        assert key_a != b._key("hello")

    def test_page_cache_is_capped_at_256_kib(self, tmp_path):
        # sqlite's default of 2,000 KiB held 1.8 MB more after 828 stores.
        cached = CachingBackend(StubBackend(), tmp_path)
        assert cached._db.execute("PRAGMA cache_size").fetchone() == (-256,)

    def test_batch_above_sqlite_parameter_limit_is_looked_up(self, tmp_path):
        # One more key than this sqlite build binds in one statement, all hits.
        with contextlib.closing(sqlite3.connect(":memory:")) as db:
            limit = db.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        inner = StubBackend(dim=2)
        cached = CachingBackend(inner, tmp_path)
        warm = cached.embed_batch([f"t{i}" for i in range(100)])
        calls = inner.calls
        got = cached.embed_batch([f"t{i % 100}" for i in range(limit + 1)])
        assert inner.calls == calls
        np.testing.assert_array_equal(got, warm[np.arange(limit + 1) % 100])

    def test_lookup_in_slices_finds_every_stored_key(self, tmp_path):
        inner = StubBackend()
        cached = CachingBackend(inner, tmp_path)
        cached.MAX_VARIABLES = 3
        warm = [f"w{i}" for i in range(10)]
        cached.embed_batch(warm)
        texts = [warm[i] if i < 10 else f"n{i}" for i in np.random.default_rng(0).permutation(17)]
        misses = []

        def vector(text):
            misses.append(text)
            return StubBackend.vector(inner, text)

        inner.vector = vector
        np.testing.assert_array_equal(cached.embed_batch(texts), StubBackend().embed_batch(texts))
        assert sorted(misses) == [f"n{i}" for i in range(10, 17)]

    def test_repeated_missed_text_reaches_the_inner_backend_once(self, tmp_path):
        inner = StubBackend()
        received = []

        def vector(text):
            received.append(text)
            return StubBackend.vector(inner, text)

        inner.vector = vector
        cached = CachingBackend(inner, tmp_path)
        texts = ["a", "b"] * 500
        got = cached.embed_batch(texts)
        assert received == ["a", "b"]
        # Each position holds what embedding every text on its own gives.
        np.testing.assert_array_equal(got, StubBackend().embed_batch(texts))
        with contextlib.closing(sqlite3.connect(tmp_path / CachingBackend.FILE)) as db:
            assert db.execute("SELECT COUNT(*) FROM vectors").fetchone() == (2,)
        mixed = ["c", "a", "c", "b", "c"]
        np.testing.assert_array_equal(cached.embed_batch(mixed), StubBackend().embed_batch(mixed))
        assert received == ["a", "b", "c"]

    def test_switch_to_wal_that_is_locked_once_is_retried(self, tmp_path, monkeypatch):
        # sqlite fails one of two processes that switch a new file to WAL at
        # once with "database is locked", without calling the busy handler.
        failed = []

        class FirstSwitchIsLocked(sqlite3.Connection):
            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL" and not failed:
                    failed.append(sql)
                    raise sqlite3.OperationalError("database is locked")
                return super().execute(sql, *args)

        monkeypatch.setattr(sqlite3, "connect", partial(sqlite3.connect, factory=FirstSwitchIsLocked))
        cached = CachingBackend(StubBackend(), tmp_path)
        monkeypatch.undo()
        assert failed
        with contextlib.closing(sqlite3.connect(tmp_path / CachingBackend.FILE)) as db:
            assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert cached.embed_batch(["one"]).shape == (1, 8)

    @pytest.mark.parametrize(
        "damage", [lambda b: b[:-1], lambda b: b[:8], lambda b: b + b, lambda b: b""],
        ids=["one-byte-short", "one-value", "twice-as-long", "empty"],
    )
    def test_blob_of_wrong_length_is_fetched_again_and_overwritten(self, tmp_path, damage):
        inner = StubBackend()
        cached = CachingBackend(inner, tmp_path)
        expected = cached.embed_batch(["one", "two"])
        key = cached._key("one")
        with contextlib.closing(sqlite3.connect(tmp_path / CachingBackend.FILE)) as db, db:
            (blob,) = db.execute("SELECT vec FROM vectors WHERE key = ?", (key,)).fetchone()
            db.execute("UPDATE vectors SET vec = ? WHERE key = ?", (damage(blob), key))
        calls = inner.calls
        np.testing.assert_array_equal(cached.embed_batch(["one", "two"]), expected)
        assert inner.calls == calls + 1
        with contextlib.closing(sqlite3.connect(tmp_path / CachingBackend.FILE)) as db:
            (stored,) = db.execute("SELECT vec FROM vectors WHERE key = ?", (key,)).fetchone()
        assert stored == blob


class _Handler(http.server.BaseHTTPRequestHandler):
    dim = 4
    fail = False
    # "ok", "slow" (no reply within SLOW_S), "hangup" (the connection is
    # closed without a reply), "no_content" (HTTP 204), or a malformed reply:
    # "not_json", "no_embeddings", "no_dim", "strings" (non-numeric values),
    # "ragged" or "null" (a JSON null value).
    reply = "ok"
    SLOW_S = 0.5

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.reply == "slow":
            time.sleep(self.SLOW_S)
            return
        if self.reply == "hangup":
            self.close_connection = True
            return
        if self.reply == "no_content":
            self.send_response(204)
            self.end_headers()
            return
        if self.fail:
            self.send_response(500)
            self.end_headers()
            return
        reply = {
            "embeddings": [[float(len(t))] * self.dim for t in payload["texts"]],
            "dim": self.dim,
        }
        if self.reply == "no_embeddings":
            del reply["embeddings"]
        elif self.reply == "no_dim":
            del reply["dim"]
        elif self.reply == "strings":
            reply["embeddings"] = [["x"] * self.dim for _ in payload["texts"]]
        elif self.reply == "ragged":
            reply["embeddings"] = [[1.0] * (i + 1) for i in range(len(payload["texts"]))]
        elif self.reply == "null":
            reply["embeddings"][0][0] = None
        body = b"<html>busy</html>" if self.reply == "not_json" else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_Handler):
    """HTTP/1.1: the connection stays open until the client closes it, or
    until ``timeout`` seconds pass without a request."""

    protocol_version = "HTTP/1.1"
    timeout = 5


@contextlib.contextmanager
def serve(handler):
    """A one-thread server that handles one connection at a time."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    # A short poll interval lets shutdown() return without waiting 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/embed"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def embed_server():
    with serve(_Handler) as url:
        yield url


class TestRemoteBackend:
    def test_wire_format(self, embed_server):
        backend = RemoteBackend(embed_server, dim=4)
        out = backend.embed_batch(["ab", "abcd"])
        np.testing.assert_array_equal(out, [[2.0] * 4, [4.0] * 4])

    def test_dim_mismatch_is_backend_error(self, embed_server):
        backend = RemoteBackend(embed_server, dim=7)
        with pytest.raises(BackendError, match="dimension mismatch"):
            backend.embed_batch(["x"])

    def test_non_200_is_backend_error(self, embed_server):
        _Handler.fail = True
        try:
            with pytest.raises(BackendError, match="500"):
                RemoteBackend(embed_server, dim=4).embed_batch(["x"])
        finally:
            _Handler.fail = False

    @pytest.mark.parametrize(
        "reply, message",
        [
            ("not_json", "malformed"),
            ("no_embeddings", "malformed"),
            ("no_dim", "malformed"),
            ("strings", "non-numeric"),
            ("ragged", "malformed"),
            ("null", "non-numeric"),
            ("hangup", "unreachable"),
            ("no_content", "HTTP 204"),
        ],
    )
    def test_malformed_reply_is_backend_error(self, embed_server, reply, message):
        _Handler.reply = reply
        try:
            with pytest.raises(BackendError, match=message):
                RemoteBackend(embed_server, dim=4).embed_batch(["x", "yy"])
        finally:
            _Handler.reply = "ok"

    def test_reply_slower_than_timeout_is_backend_error(self, embed_server):
        _Handler.reply = "slow"
        try:
            backend = RemoteBackend(embed_server, dim=4, timeout=_Handler.SLOW_S / 5)
            with pytest.raises(BackendError, match="unreachable"):
                backend.embed_batch(["x"])
        finally:
            _Handler.reply = "ok"

    def test_connection_is_closed_after_each_call(self):
        # The server would wait on a connection left open for its next request
        # and serve no other client meanwhile.
        with serve(_KeepAliveHandler) as url:
            first = RemoteBackend(url, dim=4)
            np.testing.assert_array_equal(first.embed_batch(["ab"]), [[2.0] * 4])
            second = RemoteBackend(url, dim=4, timeout=1.0)
            np.testing.assert_array_equal(second.embed_batch(["abc"]), [[3.0] * 4])

    def test_unreachable_is_backend_error(self):
        backend = RemoteBackend("http://127.0.0.1:9/embed", dim=4, timeout=0.5)
        with pytest.raises(BackendError, match="unreachable"):
            backend.embed_batch(["x"])

    @pytest.mark.parametrize("url", ["http://[::1", "notaurl", "file:///dev/null"])
    def test_url_that_is_not_http_is_backend_error(self, url):
        with pytest.raises(BackendError, match="unreachable"):
            RemoteBackend(url, dim=4).embed_batch(["x"])


class TestMakeBackend:
    def test_hashing_with_cache(self, tmp_path):
        backend = make_backend(EmbeddingConfig(dim=16, cache=tmp_path / "c"))
        assert isinstance(backend, CachingBackend)
        assert backend.dim == 16

    def test_unknown_backend(self):
        for name in ("quantum", "local"):
            with pytest.raises(ValidationError, match=f"^unknown backend '{name}'$"):
                EmbeddingConfig(backend=name)

    def test_remote_requires_url(self):
        for url in (None, ""):
            with pytest.raises(ValidationError, match="^the remote backend requires a 'url'$"):
                EmbeddingConfig(backend="remote", url=url)
        assert isinstance(make_backend(EmbeddingConfig("remote", url="http://x")), RemoteBackend)
