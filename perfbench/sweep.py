"""Run the benchmark over several seeds, interleaving workloads, and summarize.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 0-9
    python3 perfbench/sweep.py --seeds 0-15 --record   # also write fingerprints.json

Each (seed, workload) is one ``perfbench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``. Workloads are interleaved within every
seed, in an order that rotates with the seed, so that a slow spell of the
machine spreads over all of them. For every metric and workload the summary
gives the median, the quartiles and their distance as a share of the median
(``run.quartiles``), which is what each metric's ``bound`` in
``BENCHMARK.json`` is compared against. ``--record`` stores each run's output
fingerprint, per workload and corpus seed, in ``perfbench/fingerprints.json``;
do it only for a commit whose results are known to be right.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    fingerprints: dict[str, dict[str, dict]] = {w: {} for w in workloads}
    # Recording needs one operation per run, not a measurement.
    seconds = 0 if args.record else bench["run_seconds"]
    bad = 0
    for k, seed in enumerate(parse_seeds(args.seeds)):
        shift = k % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            record_path = next(l.split(": ", 1)[1] for l in lines if l.startswith("results: "))
            record = json.loads((ROOT / record_path).read_text(encoding="utf-8"))
            if record["failed"] == 0 and record["checks"].get("hashing_reference_matches_record", True):
                fingerprints[workload][str(record["corpus_seed"])] = record["fingerprint"]
            shown = {name: m["value"] for name, m in result["metrics"].items()}
            for name in run.REPORTED:
                shown.setdefault(name, record["summary"][name]["median"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{n}={v:.6g}" for n, v in shown.items()), flush=True)
            bad += not result["correct"]
            for name, value in shown.items():
                values[workload].setdefault(name, []).append(value)

    print(f"\n{'workload':<20} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'n':>3}")
    for workload in workloads:
        for name, series in values[workload].items():
            q = run.quartiles(series)
            spread = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
            bound = bounds.get(name, "")
            print(f"{workload:<20} {name:<40} {q['median']:>12.6g} {q['q1']:>12.6g} "
                  f"{q['q3']:>12.6g} {spread:>8.3f} {bound:>6} {q['n']:>3}")
    if args.record:
        path = HERE / "fingerprints.json"
        recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for workload, by_seed in fingerprints.items():
            recorded.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"fingerprints written to {path.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
