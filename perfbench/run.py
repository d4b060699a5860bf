"""Benchmark of the tabtext CLI: seeded workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload remote-ablate-40 --seed 0 --seconds 50 --trace 0

Each operation runs the real CLI (``python -m tabtext.cli``) from ``src/`` in
a fresh interpreter, one at a time (a closed loop with one client). Set-up,
which is not timed, generates the corpus with ``tabtext gen-corpus`` and, for
the remote workload, starts the fake embedding service. The corpus seed is
``--seed`` modulo ``CORPUS_SEEDS``, and every operation's outputs are checked
against the fingerprint recorded for that corpus seed in
``perfbench/fingerprints.json``; the remote workload must also reproduce a
hashing-backend run of the same corpus exactly.

``--trace 0`` repeats cycles for ``--seconds``. A cycle is one fresh
``tabtext --help`` (the set-up every operation pays), one run of
``calibrate.py`` (fixed reference work) and one operation. It reports the
medians over the cycles: ``wall_rel`` is the operation's wall time divided
by the calibration's wall time in the same cycle, which cancels most of the
drift of the host's speed; ``setup_s`` and ``peak_rss_mb`` are measured as
they are. The raw wall time, ``wall_s``, is printed and stored but not gated,
because the host's drift is larger than any bound it could be given.

``--trace 1`` runs one untraced operation for reference and then traced
operations in this process, through ``tabtext.cli.main``, with spans around
each layer (see ``spans.py``); it reports the per-layer metrics and writes the
span file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else the
run measured, with the machine and noise record, goes to
``.bench_results/``. Exit code 2 means the program is not in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
FINGERPRINTS = HERE / "fingerprints.json"

# Pinned so that every commit measured runs its children the same way.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "2",
    "OMP_NUM_THREADS": "2",
    "MKL_NUM_THREADS": "2",
    "PYTHONHASHSEED": "0",
}
# Keeps a run with a hung operation under three minutes.
OP_TIMEOUT_S = 60.0
# Distinct corpora; fingerprints.json holds one fingerprint per workload for each.
CORPUS_SEEDS = 16
# Fresh imports sampled for cli.import_s in a traced run.
IMPORT_SAMPLES = 3
CALIBRATION_N = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    entities: int
    # Span names every operation of this workload must record.
    spans: tuple[str, ...]
    positive_rate: Optional[float] = None
    informative_missingness: bool = False
    remote: bool = False
    # Vitals rows kept per entity (its earliest); None keeps them all.
    max_vitals_rows: Optional[int] = None


_COMMON = ("cli.main", "pipeline.run", "data_model.parse_table", "serializer.serialize_row",
           "embedding.embed_text", "pipeline.build_tabtext_features",
           "temporal.aggregate_entity", "temporal.aggregate_timed",
           "evaluation.evaluate_features", "evaluation.split",
           "evaluation.fit_linear_classifier", "evaluation.auroc")
# Sized so that a 50 s run holds several operations, of which it takes the
# median; each operation still spends most of its time past start-up.
WORKLOADS = {
    w.name: w
    for w in (
        # Bulk work: each text is embedded once; parse, CSV output and memory.
        Workload("compare-2k", "compare", 2_000,
                 _COMMON + ("embedding.hashing", "baseline.build_baseline_features",
                            "baseline.to_csv")),
        # Repeated work and the embedding layer as I/O: 16 grid points re-embed
        # the same texts through the HTTP service and an empty disk cache, so
        # misses sit beside hits; 16 GD fits. The higher positive rate keeps
        # both classes in every split of so small a corpus. The generator
        # draws 1 to 10 vitals rows per entity, which on corpora of 24 and 48
        # entities moved the HTTP requests by 13-16 % (IQR) between seeds;
        # keeping each entity's first 3 makes every seed's work nearly the same.
        Workload("remote-ablate-40", "ablate", 40,
                 _COMMON + ("embedding.cache", "embedding.remote", "evaluation.run_ablation"),
                 positive_rate=0.3, informative_missingness=True, remote=True,
                 max_vitals_rows=3),
    )
}

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and stored with every trace-0 run, but not gated: the raw wall time
# drifts with the host, and the others are 0 on some workloads.
REPORTED = {
    "wall_s": "s",
    "calibration_s": "s",
    "failed_frac": "ratio",
    "remote_requests": "count/run",
    "remote_texts": "count/run",
    "cache_mb": "MB",
}
PER_LAYER = {
    "data_model.parse_table.self_s": "s",
    "data_model.parse_table.rows": "count",
    "serializer.serialize_row.self_s": "s",
    "serializer.serialize_row.calls": "count",
    "embedding.embed_text.self_s": "s",
    "embedding.embed_text.calls": "count",
    "embedding.embed_text.unique": "count",
    "embedding.embed_text.useful_ratio": "ratio",
    "embedding.embed_text.chunked": "count",
    "embedding.hashing.self_s": "s",
    "embedding.hashing.texts": "count",
    "embedding.hashing.texts_per_s": "1/s",
    "embedding.cache.self_s": "s",
    "embedding.cache.hits": "count",
    "embedding.cache.misses": "count",
    "embedding.cache.hit_ratio": "ratio",
    "embedding.remote.self_s": "s",
    "embedding.remote.calls": "count",
    "embedding.remote.overhead_s": "s",
    "service.busy_s": "s",
    "remote_requests": "count",
    "remote_texts": "count",
    "cache_mb": "MB",
    "temporal.aggregate_entity.self_s": "s",
    "temporal.aggregate_entity.calls": "count",
    "temporal.aggregate_timed.self_s": "s",
    "pipeline.build_tabtext_features.self_s": "s",
    "pipeline.build_tabtext_features.calls": "count",
    "pipeline.run.self_s": "s",
    "baseline.build_baseline_features.self_s": "s",
    "baseline.to_csv.self_s": "s",
    "baseline.to_csv.mb": "MB",
    "evaluation.evaluate_features.self_s": "s",
    "evaluation.fit_linear_classifier.self_s": "s",
    "evaluation.fit_linear_classifier.calls": "count",
    "evaluation.fit.active_col_frac": "ratio",
    "evaluation.auroc.self_s": "s",
    "evaluation.split.self_s": "s",
    "evaluation.grid_point_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_frac": "ratio",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Settings:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    # None for the workload's own size; a smaller corpus has no recorded fingerprint.
    entities: Optional[int] = None

    @property
    def corpus_seed(self) -> int:
        return self.seed % CORPUS_SEEDS

    @property
    def corpus_entities(self) -> int:
        return self.entities or self.workload.entities


@dataclass
class Op:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float
    # Wall time of calibrate.py in the same cycle; 0 for a traced operation.
    calibration_s: float = 0.0
    fingerprint: Optional[dict] = None
    ok: bool = False
    remote_requests: int = 0
    remote_texts: int = 0
    service_busy_s: float = 0.0
    cache_mb: float = 0.0
    traced: bool = False
    note: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], env: dict, log: Path) -> tuple[float, int, float, float]:
    """Run ``python args`` to completion; wall s, exit code, peak RSS MB, CPU s."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def cli(args: list[str], env: dict, log: Path) -> tuple[float, int, float, float]:
    return spawn(["-m", "tabtext.cli", *args], env, log)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def calibrate(loops: int = 5) -> float:
    """Median time of a fixed pure-Python loop in this process, for the record."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_N):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def disk_mb(path: Path) -> float:
    used = 0
    for base, _, files in os.walk(path):
        for name in files:
            used += os.lstat(os.path.join(base, name)).st_blocks * 512
    return used / 2**20


def fingerprint(workload: Workload, out: Path) -> dict:
    """What the operation's outputs must reproduce (no paths, no config hash)."""
    if workload.command == "compare":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return {
            "tabtext_auroc": manifest["results"]["tabtext_auroc"],
            "baseline_auroc": manifest["results"]["baseline_auroc"],
            "split_hash": manifest["split_hash"],
            "outputs": manifest["outputs"],
        }
    report = (out / "ablation_report.json").read_bytes()
    return {"ablation_report.json": hashlib.sha256(report).hexdigest()}


def keep_first_rows(path: Path, limit: int) -> None:
    """Keep each entity's first ``limit`` rows of a CSV whose first column is the entity."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    seen: dict[str, int] = {}
    kept = [header]
    for row in rows:
        entity = row.split(",", 1)[0]
        seen[entity] = seen.get(entity, 0) + 1
        if seen[entity] <= limit:
            kept.append(row)
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")


def write_config(corpus: Path, out: Path, path: Path, embedding: dict) -> Path:
    # JSON is YAML, so the program's config loader reads this file.
    doc = {
        "sources": [
            {"data": str(corpus / "demographics.csv"), "schema": str(corpus / "demographics.schema.yaml")},
            {"data": str(corpus / "vitals.csv"), "schema": str(corpus / "vitals.schema.yaml")},
        ],
        "labels": str(corpus / "labels.csv"),
        "embedding": {"dim": 768, **embedding},
        "output_dir": str(out),
    }
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


class Service:
    """The fake embedding service in its own process."""

    def __init__(self, env: dict, log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_service.py"), "--dim", "768"],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self.proc.stdout.readline().strip()
        if not line:
            self.close()
            raise RuntimeError("fake embedding service did not start")
        self.url = f"http://127.0.0.1:{int(line)}/"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    """One benchmark run: set-up, operations, checks and the result record."""

    def __init__(self, settings: Settings, work: Path):
        self.s = settings
        self.w = settings.workload
        self.work = work
        self.env = child_env()
        self.corpus = work / "corpus"
        self.service: Optional[Service] = None
        self.expected: Optional[dict] = None
        self.reference_rows: Optional[list] = None
        self.missing_probes: list[str] = []
        self.missing_spans: list[list[str]] = []
        self.checks: dict[str, bool] = {}
        self.ops: list[Op] = []
        self.helps: list[float] = []

    # -- set-up (not timed) -------------------------------------------------
    def setup(self) -> None:
        self.work.mkdir(parents=True)
        # Byte-compiles the program, so no timed run pays for it.
        cli(["--help"], self.env, self.work / "warmup.log")
        args = ["gen-corpus", "--out", str(self.corpus), "--seed", str(self.s.corpus_seed),
                "--n-entities", str(self.s.corpus_entities)]
        if self.w.positive_rate is not None:
            args += ["--positive-rate", str(self.w.positive_rate)]
        if self.w.informative_missingness:
            args.append("--informative-missingness")
        _, code, _, _ = cli(args, self.env, self.work / "gen.log")
        if code != 0:
            raise RuntimeError(f"gen-corpus failed: {(self.work / 'gen.log').read_text()}")
        if self.w.max_vitals_rows is not None:
            keep_first_rows(self.corpus / "vitals.csv", self.w.max_vitals_rows)
        if self.s.entities is None:
            # The benchmark's own sizes are always checked against a record.
            recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
            self.expected = recorded.get(self.w.name, {}).get(str(self.s.corpus_seed))
            self.checks["fingerprint_recorded"] = self.expected is not None
        if self.w.remote:
            self.service = Service(self.env, self.work / "service.log")
            self.remote_reference()

    def remote_reference(self) -> None:
        """A hashing-backend run of the same corpus, which the remote runs must equal."""
        out = self.work / "reference"
        config = write_config(self.corpus, out, self.work / "reference.json", {"backend": "hashing"})
        _, code, _, _ = cli([self.w.command, "--config", str(config)], self.env,
                            self.work / "reference.log")
        if code != 0:
            raise RuntimeError("hashing reference run failed")
        reference = fingerprint(self.w, out)
        self.reference_rows = json.loads((out / "ablation_report.json").read_text())["rows"]
        if self.expected is not None:
            self.checks["hashing_reference_matches_record"] = reference == self.expected
        self.expected = reference
        shutil.rmtree(out)

    # -- operations ---------------------------------------------------------
    def op_config(self, index: int) -> tuple[Path, Path, Optional[Path]]:
        out = self.work / f"op{index}"
        out.mkdir()
        embedding = {"backend": "hashing"}
        cache = None
        if self.w.remote:
            cache = self.work / f"cache{index}"
            embedding = {"backend": "remote", "url": self.service.url, "cache": str(cache)}
        return write_config(self.corpus, out, out / "config.json", embedding), out, cache

    def judge(self, op: Op, out: Path, before: Optional[dict], after: Optional[dict],
              cache: Optional[Path]) -> Op:
        """Check the operation's outputs and record its service counters."""
        if self.w.remote:
            op.remote_requests = after["requests"] - before["requests"]
            op.remote_texts = after["texts"] - before["texts"]
            op.service_busy_s = after["busy_s"] - before["busy_s"]
            op.cache_mb = disk_mb(cache)
            shutil.rmtree(cache, ignore_errors=True)
        log = out / "stderr.log"
        if op.exit_code != 0:
            tail = log.read_text(errors="replace")[-400:] if log.exists() else ""
            op.note = f"exit code {op.exit_code}: {tail}"
        elif self.w.remote and after["errors"] != before["errors"]:
            op.note = "the service answered with an error"
        else:
            try:
                op.fingerprint = fingerprint(self.w, out)
                if self.w.remote:
                    rows = json.loads((out / "ablation_report.json").read_text())["rows"]
                    if rows != self.reference_rows:
                        op.note = "remote rows differ from the hashing reference"
            except (OSError, ValueError, KeyError) as exc:
                op.note = f"unreadable outputs: {exc}"
            if self.expected is None:
                # Only a smoke run's smaller corpus gets here: its operations
                # must agree with each other.
                self.expected = op.fingerprint
            if not op.note and op.fingerprint != self.expected:
                op.note = "fingerprint mismatch"
        op.ok = not op.note
        shutil.rmtree(out)
        return op

    def untraced_op(self, calibration_s: float) -> Op:
        index = len(self.ops)
        config, out, cache = self.op_config(index)
        before = self.service.stats() if self.service else None
        wall, code, rss, cpu = cli([self.w.command, "--config", str(config)], self.env,
                                   out / "stderr.log")
        after = self.service.stats() if self.service else None
        op = self.judge(Op(wall, code, rss, cpu, calibration_s), out, before, after, cache)
        self.ops.append(op)
        return op

    def sample_setup(self) -> None:
        wall, code, _, _ = cli(["--help"], self.env, self.work / "help.log")
        if code != 0:
            raise RuntimeError("tabtext --help failed")
        self.helps.append(wall)

    def calibration(self) -> float:
        wall, code, _, _ = spawn([str(HERE / "calibrate.py")], self.env,
                                 self.work / "calibrate.log")
        if code != 0:
            raise RuntimeError("calibrate.py failed")
        return wall

    def measure(self) -> None:
        """Cycles of set-up sample, calibration and operation, while the time allows."""
        start = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            self.sample_setup()
            self.untraced_op(self.calibration())
            now = time.perf_counter()
            if now - start + (now - cycle) > self.s.seconds:
                break

    # -- traced run ----------------------------------------------------------
    def import_times(self) -> dict:
        code = ("import time; t = time.perf_counter(); import tabtext.cli; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_SAMPLES):
            res = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            samples.append(float(res.stdout))
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tabtext.cli"],
                             env=self.env, cwd=ROOT, capture_output=True, text=True, check=True)
        # Cumulative microseconds of the two top-level imports, and of scipy.stats.
        total_us = scipy_us = 0
        for line in res.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3:
                continue
            if fields[2].rstrip() in (" tabtext", " tabtext.cli"):
                total_us += int(fields[1])
            elif fields[2].strip() == "scipy.stats":
                scipy_us = int(fields[1])
        return {"cli.import_s": statistics.median(samples),
                "cli.import_scipy_frac": scipy_us / total_us if total_us else 0.0}

    def traced(self) -> list[dict]:
        """Untraced reference op, then traced in-process ops; per-layer metrics per op."""
        imports = self.import_times()
        self.sample_setup()
        reference = self.untraced_op(self.calibration())
        sys.path.insert(0, str(SRC))
        import tabtext.cli

        tracer = spans.Tracer()
        self.missing_probes = tracer.install()
        start = time.perf_counter()
        try:
            while True:
                cycle = time.perf_counter()
                tracer.new_op()
                config, out, cache = self.op_config(len(self.ops))
                before = self.service.stats() if self.service else None
                root = tracer.begin("cli.main")
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = tabtext.cli.main([self.w.command, "--config", str(config)])
                except Exception:
                    # A child process would have died with this traceback: exit 1.
                    traceback.print_exc()
                    code = 1
                finally:
                    tracer.end(root)
                after = self.service.stats() if self.service else None
                wall = tracer.spans[root][spans.END] - tracer.spans[root][spans.START]
                op = Op(wall, code, 0.0, 0.0, traced=True)
                self.ops.append(self.judge(op, out, before, after, cache))
                now = time.perf_counter()
                if now - start + (now - cycle) > self.s.seconds:
                    break
        finally:
            tracer.restore()
        tables = spans.layer_tables(tracer.spans)
        misses = spans.cache_misses(tracer.spans)
        self.checks["self_times_sum_to_wall"] = all(
            abs(sum(r["self_s"] for r in t.values()) - t["cli.main"]["wall_s"])
            <= 1e-6 * t["cli.main"]["wall_s"]
            for t in tables
        )
        # A probe that no longer fires would read 0 and look like a gain.
        self.missing_spans = [sorted(set(self.w.spans) - set(t)) for t in tables]
        self.checks["expected_spans_recorded"] = not any(self.missing_spans)
        RESULTS.mkdir(exist_ok=True)
        self.span_file = RESULTS / f"spans-{self.w.name}-seed{self.s.seed}-{os.getpid()}.tsv.gz"
        tracer.write(self.span_file)
        traced_ops = [op for op in self.ops if op.traced]
        return [
            layer_metrics(t, counts, miss, op, reference, imports)
            for t, counts, miss, op in zip(tables, tracer.counts, misses, traced_ops)
        ]


def layer_metrics(t: dict, counts: dict, misses: int, op: Op, reference: Op,
                  imports: dict) -> dict:
    """The per-layer metrics of one traced operation."""
    def get(name: str, key: str = "self_s") -> float:
        return t.get(name, {}).get(key, 0)

    m = {name: 0.0 for name in PER_LAYER}
    for name in ("data_model.parse_table", "serializer.serialize_row", "embedding.embed_text",
                 "embedding.hashing", "embedding.cache", "embedding.remote",
                 "temporal.aggregate_entity", "temporal.aggregate_timed",
                 "pipeline.build_tabtext_features", "pipeline.run",
                 "baseline.build_baseline_features", "baseline.to_csv",
                 "evaluation.evaluate_features", "evaluation.fit_linear_classifier",
                 "evaluation.auroc", "evaluation.split", "cli.main"):
        m[f"{name}.self_s"] = get(name)
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = get(name, "calls")
    m["data_model.parse_table.rows"] = get("data_model.parse_table", "items")
    calls = get("embedding.embed_text", "calls")
    unique = len(counts["texts"])
    m["embedding.embed_text.unique"] = unique
    m["embedding.embed_text.useful_ratio"] = unique / calls if calls else 0.0
    m["embedding.embed_text.chunked"] = counts["chunked"]
    texts = get("embedding.hashing", "items")
    m["embedding.hashing.texts"] = texts
    m["embedding.hashing.texts_per_s"] = texts / m["embedding.hashing.self_s"] if texts else 0.0
    looked_up = get("embedding.cache", "items")
    m["embedding.cache.misses"] = misses
    m["embedding.cache.hits"] = looked_up - misses
    m["embedding.cache.hit_ratio"] = (looked_up - misses) / looked_up if looked_up else 0.0
    m["embedding.remote.overhead_s"] = m["embedding.remote.self_s"] - op.service_busy_s
    m["service.busy_s"] = op.service_busy_s
    m["remote_requests"] = op.remote_requests
    m["remote_texts"] = op.remote_texts
    m["cache_mb"] = op.cache_mb
    m["baseline.to_csv.mb"] = get("baseline.to_csv", "items") / 2**20
    if counts["cols"]:
        m["evaluation.fit.active_col_frac"] = counts["active_cols"] / counts["cols"]
    points = get("evaluation.evaluate_features", "calls")
    if "evaluation.run_ablation" in t and points:
        m["evaluation.grid_point_s"] = get("evaluation.run_ablation", "wall_s") / points
    m.update(imports)
    m["cli.cpu_s"] = reference.cpu_s
    m["trace.wall_s"] = op.wall_s
    # The traced run skips interpreter start-up and imports; add the imports back.
    m["trace.overhead_frac"] = (op.wall_s + imports["cli.import_s"]) / reference.wall_s - 1
    return m


def environment() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "child_env": CHILD_ENV,
    }
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, 'blas': b.get('name'), "
             "'blas_version': b.get('version')}))")
    res = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True)
    if res.returncode == 0:
        record.update(json.loads(res.stdout))
    return record


def print_table(title: str, summary: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':<42} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, unit in units.items():
        q = summary[name]
        print(f"  {name:<42} {unit:<10} {q['median']:>12.6g} {q['q1']:>12.6g} "
              f"{q['q3']:>12.6g} {q['n']:>3}")


def run(settings: Settings) -> dict:
    work = WORK / f"{settings.workload.name}-seed{settings.seed}-{os.getpid()}"
    bench = Bench(settings, work)
    record: dict = {"workload": settings.workload.name, "seed": settings.seed,
                    "corpus_seed": settings.corpus_seed, "seconds": settings.seconds,
                    "trace": int(settings.trace), "entities": settings.corpus_entities,
                    "environment": environment()}
    start = time.perf_counter()
    try:
        bench.setup()
        record["setup_wall_s"] = time.perf_counter() - start
        record["calibration_before_s"] = calibrate()
        if settings.trace:
            layers = bench.traced()
        else:
            bench.measure()
        record["calibration_after_s"] = calibrate()
        record["run_wall_s"] = time.perf_counter() - start
    finally:
        if bench.service is not None:
            bench.service.close()
        shutil.rmtree(work, ignore_errors=True)
    record["environment"]["loadavg_after"] = os.getloadavg()

    ops = bench.ops
    failed = sum(not op.ok for op in ops)
    measured = [op for op in ops if op.ok] or ops
    untraced = [op for op in measured if not op.traced]
    summary = {
        "wall_rel": quartiles([op.wall_s / op.calibration_s for op in untraced]),
        "setup_s": quartiles(bench.helps),
        "peak_rss_mb": quartiles([op.peak_rss_mb for op in untraced]),
        "wall_s": quartiles([op.wall_s for op in untraced]),
        "calibration_s": quartiles([op.calibration_s for op in untraced]),
        "failed_frac": quartiles([failed / len(ops)]),
        "remote_requests": quartiles([op.remote_requests for op in measured]),
        "remote_texts": quartiles([op.remote_texts for op in measured]),
        "cache_mb": quartiles([op.cache_mb for op in measured]),
    }
    if settings.trace:
        summary.update({name: quartiles([m[name] for m in layers]) for name in PER_LAYER})
        record["missing_probes"] = bench.missing_probes
        record["missing_spans"] = bench.missing_spans
        record["span_file"] = str(bench.span_file.relative_to(ROOT))
    units = PER_LAYER if settings.trace else END_TO_END
    record.update({
        "correct": failed == 0 and all(bench.checks.values()),
        "attempted": len(ops),
        "failed": failed,
        "checks": bench.checks,
        "fingerprint": bench.expected,
        "ops": [vars(op) for op in ops],
        "setup_samples_s": bench.helps,
        "summary": summary,
        "metrics": {name: {"value": summary[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entities", type=int, default=None,
                        help="smaller corpus for the smoke tests; its operations are "
                             "checked against each other, not against a record")
    args = parser.parse_args(argv)
    # Termination unwinds like an error, so the service and children are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tabtext" / "cli.py").is_file():
        print(f"error: the tabtext program is not at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = run(Settings(workload, args.seed, args.seconds, bool(args.trace), args.entities))

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    title = (f"{workload.name} seed {args.seed} trace {args.trace}: "
             f"{record['attempted']} operations, {record['failed']} failed")
    shown = {**END_TO_END, **REPORTED, **(PER_LAYER if args.trace else {})}
    print_table(title, record["summary"], shown)
    for note in bench_notes(record):
        print(f"  {note}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def bench_notes(record: dict) -> list[str]:
    notes = [f"failed operation: {op['note']}" for op in record["ops"] if op["note"]]
    notes += [f"check failed: {name}" for name, ok in record["checks"].items() if not ok]
    return notes


if __name__ == "__main__":
    sys.exit(main())
