"""Fake embedding service for the remote benchmark workload.

Speaks the protocol ``tabtext.embedding.RemoteBackend`` expects:
``POST {"texts": [...]}`` returns ``{"embeddings": [[...], ...], "dim": d}``.
``GET /stats`` returns the counters the benchmark reads between operations:
POST requests, texts embedded, bytes in and out, error replies and the time
spent handling POSTs.

The embedding is a frozen copy of the feature-hashing algorithm of
``tabtext.embedding.HashingBackend`` as the benchmark was defined. It does not
import ``tabtext``, so the service's own cost stays fixed when the program's
hashing backend changes, and a remote run must reproduce a hashing-backend run
bit for bit (JSON floats round-trip exactly).

The server is single-threaded, speaks HTTP/1.1 and keeps connections alive,
as real services do. Run it as::

    python3 perfbench/fake_service.py --dim 768

It binds 127.0.0.1 on a free port, prints that port on one line of standard
output and serves until it is terminated.
"""
from __future__ import annotations

import argparse
import hashlib
import http.server
import json
import re
import sys
import time

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class FrozenHashing:
    """Bag-of-tokens feature hashing with a sign hash, L2-normalized."""

    def __init__(self, dim: int):
        self.dim = dim
        self._token_cache: dict[str, tuple[int, float]] = {}

    def _bucket_sign(self, token: str) -> tuple[int, float]:
        hit = self._token_cache.get(token)
        if hit is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
            hit = (int.from_bytes(digest[:8], "big") % self.dim, 1.0 if digest[8] & 1 else -1.0)
            self._token_cache[token] = hit
        return hit

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for i, text in enumerate(texts):
            vec = out[i]
            for token in _TOKEN_RE.findall(text.lower()):
                bucket, sign = self._bucket_sign(token)
                vec[bucket] += sign
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec /= norm
        return out


class Stats:
    def __init__(self):
        self.requests = 0
        self.texts = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors = 0
        self.busy_s = 0.0

    def as_dict(self) -> dict:
        return dict(vars(self))


def make_handler(embedder: FrozenHashing, stats: Stats):
    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # An idle keep-alive connection must not hold the single thread forever.
        timeout = 30

        def _reply(self, code: int, payload: dict) -> int:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return len(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stats.as_dict())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            start = time.perf_counter()
            stats.requests += 1
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            stats.bytes_in += length
            try:
                texts = json.loads(raw)["texts"]
                if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                    raise ValueError("texts must be a list of strings")
            except (ValueError, KeyError, TypeError) as exc:
                stats.errors += 1
                self._reply(400, {"error": str(exc)})
            else:
                matrix = embedder.embed(texts)
                stats.texts += len(texts)
                stats.bytes_out += self._reply(
                    200, {"embeddings": matrix.tolist(), "dim": embedder.dim}
                )
            stats.busy_s += time.perf_counter() - start

        def log_message(self, *args):
            pass

    return Handler


def make_server(dim: int) -> tuple[http.server.HTTPServer, Stats]:
    """A server on a free port of 127.0.0.1, and the counters it updates."""
    stats = Stats()
    server = http.server.HTTPServer(
        ("127.0.0.1", 0), make_handler(FrozenHashing(dim), stats)
    )
    return server, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=768)
    args = parser.parse_args(argv)
    server, _ = make_server(args.dim)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
