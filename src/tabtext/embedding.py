"""Sentence embedding: chunking, backends, and the on-disk cache.

Backends are pluggable behind a small contract (``dim``, ``max_chars``,
``embed_batch``). Texts longer than ``max_chars`` characters are split at
whitespace boundaries and the chunk embeddings averaged element-wise.

The hashing backend is the deterministic in-repo backend: bag-of-tokens
feature hashing with a sign hash, L2-normalized. Shared tokens produce real
cosine-similarity structure without any model weights, which is what makes
offline end-to-end evaluation meaningful.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
import weakref
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Optional, Protocol, Sequence, Union

import numpy as np

from .errors import BackendError, ValidationError

DEFAULT_DIM = 768
DEFAULT_MAX_CHARS = 510
# The widest embedding a run may ask for, 16x a wide sentence encoder's: a
# feature matrix is entities x sources x dim floats.
MAX_DIM = 65536

# Tokens are the runs of [a-z0-9] in a lowercased text, split out of its UTF-8
# bytes with every other byte made a space: a character outside ASCII encodes
# to bytes >= 0x80 only, so it separates tokens as it does in the text.
_TOKEN_BYTES = frozenset(b"abcdefghijklmnopqrstuvwxyz0123456789")
_SEPARATE = bytes(c if c in _TOKEN_BYTES else ord(" ") for c in range(256))


@dataclass(frozen=True)
class EmbeddingConfig:
    """The ``embedding`` section: the backend, its width and chunk length,
    the service ``url`` of the remote backend, and an optional cache directory."""

    backend: str = "hashing"
    dim: int = DEFAULT_DIM
    max_chars: int = DEFAULT_MAX_CHARS
    url: Optional[str] = None
    cache: Optional[Path] = None

    def __post_init__(self):
        if self.backend not in ("hashing", "remote"):
            raise ValidationError(f"unknown backend '{self.backend}'")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValidationError(f"dim must be in [1, {MAX_DIM}], not {self.dim}")
        if self.max_chars < 1:
            raise ValidationError("max_chars must be positive")
        if not isinstance(self.url, (str, type(None))):
            raise ValidationError(f"'url' in embedding must be a string, not {self.url!r}")
        if self.url and not _is_http(self.url):
            raise ValidationError(f"url must be an http(s) URL, not {self.url!r}")
        if self.backend == "remote" and not self.url:
            raise ValidationError("the remote backend requires a 'url'")


def _is_http(url: str) -> bool:
    return url.split(":", 1)[0].lower() in ("http", "https")


def _tokens(text: str) -> list[bytes]:
    """The [a-z0-9]+ runs of the lowercased text, as UTF-8 bytes."""
    return text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATE).split()


def chunk_text(text: str, max_chars: int = DEFAULT_MAX_CHARS) -> list[str]:
    """Split text into whitespace-delimited chunks of at most max_chars.

    Splits greedily at whitespace (longest prefix that fits); a single token
    longer than the limit is hard-split at max_chars. Whitespace runs collapse
    to single spaces inside chunks. Empty or all-whitespace text gives [].
    """
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")
    pieces = text.split()
    if pieces and max(map(len, pieces)) > max_chars:
        pieces = [
            token[i : i + max_chars]
            for token in pieces
            for i in range(0, len(token), max_chars)
        ]
    # pieces[a:b] joined by single spaces is ends[b] - ends[a] - 1 characters long
    ends = list(accumulate((len(piece) + 1 for piece in pieces), initial=0))
    chunks: list[str] = []
    start = 0
    while start < len(pieces):
        stop = bisect_right(ends, ends[start] + max_chars + 1) - 1
        chunks.append(" ".join(pieces[start:stop]))
        start = stop
    return chunks


class EmbeddingBackend(Protocol):
    """Capability contract every backend satisfies."""

    backend_id: str
    dim: int
    max_chars: int

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed texts, returning an (n, dim) float64 array, order-aligned."""
        ...


class HashingBackend:
    """Deterministic bag-of-tokens feature-hashing embedder.

    Lowercase, split on all but ASCII letters and digits, hash each token to
    a bucket with a +/-1 sign from a second hash, sum counts, then
    L2-normalize (the zero vector stays zero). Pure and reentrant.
    """

    def __init__(self, dim: int = DEFAULT_DIM, max_chars: int = DEFAULT_MAX_CHARS):
        self.dim = dim
        self.max_chars = max_chars
        self.backend_id = f"hashing-d{dim}"
        self._token_cache: dict[bytes, tuple[int, float]] = {}

    def _bucket_sign(self, token: bytes) -> tuple[int, float]:
        """Hash a token not yet in the token cache, and cache it."""
        digest = hashlib.blake2b(token, digest_size=16).digest()
        hit = (int.from_bytes(digest[:8], "big") % self.dim, 1.0 if digest[8] & 1 else -1.0)
        self._token_cache[token] = hit
        return hit

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        cached = self._token_cache.get
        for i, text in enumerate(texts):
            counts: dict[int, float] = {}
            for token in _tokens(text):
                bucket, sign = cached(token) or self._bucket_sign(token)
                counts[bucket] = counts.get(bucket, 0.0) + sign
            # Each count and the sum of their squares is an exact small
            # integer, so this norm and each quotient are bit for bit those
            # of np.linalg.norm and an in-place division of the dense vector.
            norm = math.sqrt(sum([count * count for count in counts.values()]))
            if norm > 0:
                vec = out[i]
                for bucket, count in counts.items():
                    vec[bucket] = count / norm
        return out


class RemoteBackend:
    """HTTP embedding service: POST {"texts": [...]} -> {"embeddings", "dim"}."""

    def __init__(
        self,
        url: str,
        dim: int = DEFAULT_DIM,
        max_chars: int = DEFAULT_MAX_CHARS,
        timeout: float = 60.0,
    ):
        self.url = url
        self.dim = dim
        self.max_chars = max_chars
        self.timeout = timeout
        tag = hashlib.sha256(url.encode("utf-8")).hexdigest()[:8]
        self.backend_id = f"remote-{tag}-d{dim}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        # One fresh connection per call: urllib sends "Connection: close".
        import urllib.request
        from http.client import HTTPException

        # urllib would also open file:, ftp: and data: URLs.
        if not _is_http(self.url):
            raise BackendError(f"embedding service unreachable: {self.url!r} is not http(s)")
        data = json.dumps({"texts": list(texts)}).encode("utf-8")
        try:
            request = urllib.request.Request(self.url, data, {"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, body = exc.code, b""
            exc.close()
        except (OSError, HTTPException, ValueError) as exc:
            raise BackendError(f"embedding service unreachable: {exc}") from exc
        if status != 200:
            raise BackendError(f"embedding service returned HTTP {status}")
        try:
            payload = json.loads(body)
            dim = payload["dim"]
            raw = np.asarray(payload["embeddings"])
        except (ValueError, TypeError, KeyError) as exc:
            raise BackendError(f"malformed embedding service reply: {exc!r}") from exc
        if dim != self.dim:
            raise BackendError(f"dimension mismatch: expected {self.dim}, got {dim}")
        if raw.dtype.kind not in "iuf":
            raise BackendError("embedding service reply holds non-numeric embeddings")
        matrix = raw.astype(np.float64)
        if matrix.shape != (len(texts), self.dim):
            raise BackendError(f"bad embeddings shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise BackendError("embedding service reply holds non-finite embeddings")
        return matrix


class CachingBackend:
    """On-disk cache of vectors keyed by sha256 of (backend id, text).

    One sqlite3 file, ``embeddings.sqlite3``, per cache directory, in WAL mode
    so that concurrent processes can share it. A vector is stored as
    little-endian float64 bytes; a blob of another length is a miss and is
    overwritten. Only misses reach the inner backend, each distinct text once.
    """

    FILE = "embeddings.sqlite3"
    # Keys bound per lookup: sqlite's default cap on a statement's parameters
    # (since 3.32). One IN (...) over every key of a large batch breaks it.
    MAX_VARIABLES = 32766
    # sqlite's page cache in KiB, not its 2,000: keys are random sha256s and the OS
    # caches the file, so a larger cache only holds memory (a cache of 0 is slower).
    CACHE_KIB = 256

    def __init__(self, inner: EmbeddingBackend, cache_dir: Union[str, Path]):
        import sqlite3

        self.inner = inner
        self.backend_id = inner.backend_id
        self.dim = inner.dim
        self.max_chars = inner.max_chars
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / self.FILE
        self._errors = (sqlite3.Error, OSError)
        with self._io():
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(self.path)
            # The connection sits in a reference cycle; close it with this object.
            weakref.finalize(self, self._db.close)
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
            except sqlite3.OperationalError:  # another process is switching the new file
                time.sleep(0.1)
                self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(f"PRAGMA cache_size=-{self.CACHE_KIB}")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS vectors (key TEXT PRIMARY KEY, vec BLOB NOT NULL)"
            )

    @contextmanager
    def _io(self) -> Iterator[None]:
        try:
            yield
        except self._errors as exc:
            raise BackendError(f"embedding cache {self.path}: {exc}") from None

    def _key(self, text: str) -> str:
        return hashlib.sha256(f"{self.backend_id}\0{text}".encode("utf-8")).hexdigest()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        keys = [self._key(text) for text in texts]
        found: dict[str, bytes] = {}
        with self._io():
            for start in range(0, len(keys), self.MAX_VARIABLES):
                part = keys[start : start + self.MAX_VARIABLES]
                query = f"SELECT key, vec FROM vectors WHERE key IN ({','.join('?' * len(part))})"
                found.update(self._db.execute(query, part))
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        missed: dict[str, list[int]] = {}  # key -> positions of its text
        for i, key in enumerate(keys):
            blob = found.get(key)
            if blob is not None and len(blob) == 8 * self.dim:
                out[i] = np.frombuffer(blob, dtype="<f8")
            else:
                missed.setdefault(key, []).append(i)
        if missed:
            fresh = self.inner.embed_batch([texts[at[0]] for at in missed.values()])
            for at, row in zip(missed.values(), fresh):
                out[at] = row
            with self._io(), self._db:
                self._db.executemany(
                    "INSERT OR REPLACE INTO vectors VALUES (?, ?)",
                    [(key, row.astype("<f8").tobytes()) for key, row in zip(missed, fresh)],
                )
        return out


def embed_text(text: str, backend: EmbeddingBackend) -> np.ndarray:
    """Embed one text, chunking and averaging when it exceeds max_chars.

    Empty (or all-whitespace) text maps to the zero vector.
    """
    if not text.strip():
        return np.zeros(backend.dim, dtype=np.float64)
    if len(text) <= backend.max_chars:
        return backend.embed_batch([text])[0]
    chunks = chunk_text(text, backend.max_chars)
    return backend.embed_batch(chunks).mean(axis=0)


def make_backend(config: EmbeddingConfig) -> EmbeddingBackend:
    """The backend ``config`` names, behind a cache when it names one."""
    size = {"dim": config.dim, "max_chars": config.max_chars}
    if config.backend == "remote":
        backend: EmbeddingBackend = RemoteBackend(config.url, **size)
    else:
        backend = HashingBackend(**size)
    if config.cache is not None:
        backend = CachingBackend(backend, config.cache)
    return backend
