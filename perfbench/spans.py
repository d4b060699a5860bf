"""Spans around the calls into each tabtext layer, and the per-layer metrics.

The tracer wraps public functions where their caller looks them up (for
example ``tabtext.pipeline.embed_text``, which is the name
``build_tabtext_features`` calls), so the program itself is unchanged. Each
span records its name, start, end, parent span, operation id and one item
count (rows, texts, bytes). Spans stay in memory and are written out when the
benchmark ends.

A span's self time is its duration minus the part of it that its child spans
cover. Every traced operation runs inside one root span, so the self times of
all spans of an operation add up to the operation's traced wall time. Each
thread keeps its own stack of open spans: a span begun in another thread has
no parent and breaks that sum instead of taking a wrong parent, and a layer
run in another process records no span at all, which the benchmark's check
of expected spans reports.
"""
from __future__ import annotations

import gzip
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

NAME, START, END, PARENT, OP, ITEMS = range(6)


@dataclass(frozen=True)
class Probe:
    """One wrapped name: where it is looked up, and the span it records."""

    module: str
    attr: str
    span: str
    # Item count from (args, kwargs, result); None counts nothing.
    items: Optional[Callable] = None


def _first_len(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["texts"])


def _result_len(args, kwargs, result):
    return len(result)


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _active_cols(args, kwargs, result):
    return int((result.feature_scale > 0).sum())


def _text_len(args, kwargs, result):
    return len(args[0])


# Class methods are wrapped on the class, so every instance and every caller
# goes through the span. A name a later version of the program no longer has
# is skipped, and its metrics read 0.
PROBES = (
    Probe("tabtext.cli", "run_compare", "pipeline.run"),
    Probe("tabtext.cli", "run_grid", "pipeline.run"),
    Probe("tabtext.pipeline", "parse_table", "data_model.parse_table", _result_len),
    Probe("tabtext.pipeline", "serialize_row", "serializer.serialize_row"),
    Probe("tabtext.pipeline", "embed_text", "embedding.embed_text", _text_len),
    Probe("tabtext.pipeline", "build_tabtext_features", "pipeline.build_tabtext_features"),
    Probe("tabtext.pipeline", "aggregate_entity", "temporal.aggregate_entity"),
    Probe("tabtext.temporal", "aggregate_timed", "temporal.aggregate_timed"),
    Probe("tabtext.pipeline", "build_baseline_features", "baseline.build_baseline_features"),
    Probe("tabtext.baseline.FeatureMatrix", "to_csv", "baseline.to_csv", _csv_bytes),
    Probe("tabtext.embedding.HashingBackend", "embed_batch", "embedding.hashing", _first_len),
    Probe("tabtext.embedding.CachingBackend", "embed_batch", "embedding.cache", _first_len),
    Probe("tabtext.embedding.RemoteBackend", "embed_batch", "embedding.remote", _first_len),
    Probe("tabtext.pipeline", "run_ablation", "evaluation.run_ablation"),
    Probe("tabtext.pipeline", "evaluate_features", "evaluation.evaluate_features"),
    Probe("tabtext.evaluation", "evaluate_features", "evaluation.evaluate_features"),
    Probe("tabtext.evaluation", "split", "evaluation.split"),
    Probe("tabtext.evaluation", "fit_linear_classifier", "evaluation.fit_linear_classifier",
          _active_cols),
    Probe("tabtext.evaluation", "auroc", "evaluation.auroc"),
)


def _resolve(dotted: str):
    """Import 'pkg.module' or 'pkg.module.Class'; None when it is gone."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, name = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None


class Tracer:
    """Records spans from wrapped functions; ``restore`` unwraps them."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        # Per operation: distinct texts embedded, texts chunked, and active
        # and total feature columns over all classifier fits.
        self.counts: list[dict] = []
        # Open spans per thread, so that a span begun in a worker thread is
        # not made the parent of spans in another.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, items: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ITEMS] = items
        top = self._stack().pop()
        if top != index:
            raise RuntimeError(f"span {span[NAME]!r} ended while span {top} was open")

    def new_op(self) -> None:
        self.op += 1
        self.counts.append({"texts": set(), "chunked": 0, "active_cols": 0, "cols": 0})

    def install(self, probes=PROBES) -> list[str]:
        """Wrap every probe that resolves; return the names that did not."""
        missing = []
        for probe in probes:
            owner = _resolve(probe.module)
            original = getattr(owner, probe.attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{probe.module}.{probe.attr}")
                continue
            setattr(owner, probe.attr, self._wrap(original, probe))
            self._patched.append((owner, probe.attr, original))
        return missing

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, probe: Probe):
        tracer = self
        count = probe.items
        is_embed_text = probe.span == "embedding.embed_text"
        is_fit = probe.span == "evaluation.fit_linear_classifier"

        def traced(*args, **kwargs):
            index = tracer.begin(probe.span)
            items = 0
            try:
                result = fn(*args, **kwargs)
                items = count(args, kwargs, result) if count is not None else 0
            finally:
                tracer.end(index, items)
            if is_embed_text or is_fit:
                with tracer._lock:
                    counts = tracer.counts[tracer.op]
                    if is_embed_text:
                        text, backend = args[0], args[1]
                        counts["texts"].add(text)
                        counts["chunked"] += len(text) > backend.max_chars
                    else:
                        counts["active_cols"] += items
                        counts["cols"] += result.feature_scale.shape[0]
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV: name, start, end, parent, op, items."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\top\titems\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_tables(spans: list[list]) -> list[dict[str, dict[str, float]]]:
    """Per operation and span name: summed self time, wall time, calls, items."""
    tables: dict[int, dict] = defaultdict(
        lambda: defaultdict(lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "items": 0})
    )
    for span, own in zip(spans, self_times(spans)):
        row = tables[span[OP]][span[NAME]]
        row["self_s"] += own
        row["wall_s"] += span[END] - span[START]
        row["calls"] += 1
        row["items"] += span[ITEMS]
    return [dict(tables[op]) for op in sorted(tables)]


def cache_misses(spans: list[list]) -> list[int]:
    """Per operation: texts the cache passed on to its inner backend."""
    cache = {i for i, s in enumerate(spans) if s[NAME] == "embedding.cache"}
    misses: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] in cache:
            misses[span[OP]] += span[ITEMS]
    return [misses[op] for op in sorted({s[OP] for s in spans})]
