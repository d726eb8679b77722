"""Write one performance record of the repository's benchmark.

Run from the repository root:

    python3 tools/bench_record.py --seed 23 --output BENCH_<n>.json

For each of the ``corpus``, ``channels`` and ``desk-large`` workloads this
runs ``perfbench/run.py`` twice at the given seed, once untraced (``--trace
0``: the end-to-end metrics) and once traced (``--trace 1``: the per-layer
metrics), reads the result files run.py writes under ``perfbench/out/``, and
writes one JSON record: the commit (``git rev-parse HEAD``, and whether the
working tree had changes), the seed, the run length (``run_seconds`` of
``BENCHMARK.json``), run.py's ``environment`` block, and per workload whether
``BENCHMARK.json`` gates it (``desk-large``, the README's larger inputs, is
recorded but not gated), whether every output checked correct, the calls
attempted and failed in both runs together, and both sets of metrics with
their units. Uses the standard library only; the benchmark itself runs in its
own processes.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("corpus", "channels", "desk-large")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run perfbench once and return the result file it wrote."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_record: {' '.join(cmd)} exited with code {proc.returncode}")
    path = os.path.join("perfbench", "out", f"result-{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", required=True, help="the record to write, e.g. BENCH_<n>.json")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        raise SystemExit("bench_record: run from the repository root")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    gated = {w["name"] for w in benchmark["workloads"]}

    record = {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
              "seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        untraced = run_benchmark(workload, args.seed, seconds, 0)
        traced = run_benchmark(workload, args.seed, seconds, 1)
        record.setdefault("environment", untraced["environment"])
        record["workloads"][workload] = {
            "gated": workload in gated,
            "correct": untraced["ok"] and traced["ok"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({name: {k: v["value"] for k, v in w["end_to_end"].items()}
                      for name, w in record["workloads"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
