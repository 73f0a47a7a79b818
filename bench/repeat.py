"""Run one workload several times, one seed after another, and print the
median and quartiles of every end-to-end metric beside its bound.

    python3 bench/repeat.py --workload sweep --runs 10

Run i uses seed i and the ``run_seconds`` of BENCHMARK.json; each is
``bench/run.py`` in its own process, one at a time. The
spread column is (q3 - q1) / median, the figure to compare with the
bound; the runs' failed shares are listed so that a difference shows.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = []
    seconds = spec["run_seconds"]
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s")
    print(f"{'metric':16} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:16} {m['unit']:5} {med:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{(q3 - q1) / med:7.1%} {m['bound']:6.0%}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed shares: {shares}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
