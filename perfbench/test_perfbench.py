"""Tests of the benchmark itself: span arithmetic, the fake service, smoke runs."""
from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import fake_service  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tabtext.embedding import HashingBackend, RemoteBackend  # noqa: E402


def span(name, start, end, parent, op=0, items=0):
    return [name, start, end, parent, op, items]


def test_self_time_subtracts_nested_children():
    trace = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    table = spans.layer_tables(trace)[0]
    assert sum(row["self_s"] for row in table.values()) == table["root"]["wall_s"]


def test_self_time_counts_overlap_and_overhang_once():
    trace = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 4.0, 0),
        span("y", 3.0, 6.0, 0),
        span("z", 8.0, 12.0, 0),
    ]
    assert spans.self_times(trace)[0] == 10.0 - 5.0 - 2.0


def test_layer_tables_and_cache_misses_are_per_operation():
    trace = [
        span("root", 0.0, 2.0, -1, op=0),
        span("embedding.cache", 0.0, 1.0, 0, op=0, items=10),
        span("embedding.remote", 0.2, 0.5, 1, op=0, items=3),
        span("root", 3.0, 4.0, -1, op=1),
        span("embedding.cache", 3.0, 3.5, 3, op=1, items=10),
    ]
    tables = spans.layer_tables(trace)
    assert [t["embedding.cache"]["items"] for t in tables] == [10, 10]
    assert spans.cache_misses(trace) == [3, 0]


@pytest.fixture()
def service():
    server, stats = fake_service.make_server(dim=64)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", stats
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_remote_backend_accepts_service_reply_bit_exactly(service):
    url, stats = service
    texts = ["Vitals: heart rate is 88; temp is missing.", "", "naïve café 42", "x " * 400]
    got = RemoteBackend(url, dim=64).embed_batch(texts)
    want = HashingBackend(dim=64).embed_batch(texts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (stats.requests, stats.texts, stats.errors) == (1, len(texts), 0)
    assert stats.busy_s > 0


def test_service_keeps_connection_alive_and_reports_stats(service):
    url, _ = service
    port = int(url.rsplit(":", 1)[1].strip("/"))
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        for _ in range(2):
            conn.request("POST", "/", body=json.dumps({"texts": ["a b"]}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.version == 11 and resp.status == 200
            resp.read()
        conn.request("POST", "/", body=b"not json")
        resp = conn.getresponse()
        assert resp.status == 400
        resp.read()
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    assert stats["requests"] == 3 and stats["texts"] == 2 and stats["errors"] == 1


def test_span_ended_out_of_order_is_refused():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError, match="outer"):
        tracer.end(outer)


def test_spans_of_another_thread_get_their_own_parents():
    tracer = spans.Tracer()
    root = tracer.begin("root")
    seen = []

    def worker():
        index = tracer.begin("worker")
        seen.append(tracer.spans[index][spans.PARENT])
        tracer.end(index)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(root)
    assert seen == [-1]


def test_benchmark_json_matches_run_py():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_keep_first_rows_caps_each_entity(tmp_path):
    path = tmp_path / "vitals.csv"
    path.write_text("id,hour\na,1\na,2\na,3\nb,1\nc,1\nc,2\n", encoding="utf-8")
    run.keep_first_rows(path, 2)
    assert path.read_text(encoding="utf-8") == "id,hour\na,1\na,2\nb,1\nc,1\nc,2\n"


def test_every_corpus_seed_has_a_recorded_fingerprint():
    recorded = json.loads(run.FINGERPRINTS.read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        assert sorted(recorded[name], key=int) == [str(s) for s in range(run.CORPUS_SEEDS)]


def bench(tmp_root: Path, workload: str, trace: int, entities: int) -> tuple[dict, dict]:
    """One run of run.py on a small corpus on which no operation fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--entities", str(entities)]
    res = subprocess.run(cmd, cwd=tmp_root, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-3000:]
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = next(l.split(": ", 1)[1] for l in lines if l.startswith("results: "))
    return result, json.loads((tmp_root / record_path).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the files the benchmark needs, as in a fresh checkout."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src" / "tabtext", root / "src" / "tabtext",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_smoke_run_end_to_end(checkout):
    result, record = bench(checkout, "compare-2k", trace=0, entities=150)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["fingerprint"] is not None
    assert not any((checkout / ".bench_work").iterdir())


def test_smoke_run_traced_remote(checkout):
    result, record = bench(checkout, "remote-ablate-40", trace=1, entities=16)
    assert result["correct"] and result["failed"] == 0, record["ops"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert record["checks"]["self_times_sum_to_wall"]
    assert record["missing_probes"] == []
    assert record["checks"]["expected_spans_recorded"], record["missing_spans"]
    assert m["remote_requests"] == m["remote_texts"] == m["embedding.cache.misses"] > 0
    assert m["embedding.cache.hits"] > 0 and m["service.busy_s"] > 0
    assert m["embedding.hashing.texts"] == 0 and m["evaluation.fit_linear_classifier.calls"] == 16
    assert (checkout / record["span_file"]).exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-2k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0 and res.stdout == ""
