"""Benchmark of `qcausal classify`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One caller classifies one input file at a time (a closed loop) through
``qcausal.cli.main`` in fresh worker processes (``worker.py``). The run then
checks every distinct output with ``checker.py``, which does not use qcausal,
writes a result file under ``perfbench/out/`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``inputs_per_s``,
``latency_p50_s``, ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` one
worker alternates untraced and traced rounds and the metrics are the per-layer
totals of the traced rounds, plus the tracing overhead against the untraced
ones. See README.md in this directory for the workloads and what each metric
should move.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in the workers

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Timed worker processes per untraced run: as many as whole rounds fit in the
# run (a corpus round takes about 1 s, desk-large 14 s, channels 55 s), so that
# no single process's memory layout decides a run's figures.
PROCESSES = {"corpus": 3, "desk-large": 2, "channels": 1}
# Rounds of each kind (untraced and traced) in a traced run: fixed, so that the
# per-layer counts repeat exactly for a seed.
TRACE_ROUNDS = {"corpus": 8, "desk-large": 1, "channels": 1}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"inputs_per_s": "1/s", "latency_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def start_worker(root: str, args, mode: str, index: int, deadline: float, **extra) -> dict:
    """Run one fresh worker to its end and return its result, with its set-up time."""
    out_dir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}")
    result_path = os.path.join(out_dir, f"worker-{mode}-{index}.json")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--inputs", os.path.join(out_dir, "inputs"),
           "--result", result_path]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker {index} did not finish before the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{mode} worker {index} exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def check_outputs(root: str, workers: list[dict]) -> tuple[bool, set[str], list[str]]:
    """Check every distinct output and failure; return (all correct, inputs checked
    correct, problems). A failed call other than the input's known fault is a problem."""
    import checker

    validator = checker.load_validator(
        os.path.join(root, "src", "qcausal", "fixtures", "report.schema.json"))
    manifest = workers[0]["manifest"]
    problems = []
    good = set()
    for item in manifest:
        inp = checker.Input(item["path"])
        texts = set()
        for w in workers:
            texts |= set(w["outputs"].get(item["name"], {}))
        errors = [e for text in sorted(texts)
                  for e in checker.check_report(inp, text, item["expect"], validator)]
        for w in workers:
            for key in w["failures"].get(item["name"], {}):
                code, stderr = json.loads(key)
                if not checker.expected_failure(item["expect"], code, stderr):
                    errors.append(f"failed unexpectedly (exit {code}): {stderr.strip()}")
        if errors:
            problems += [f"{item['name']}: {e}" for e in errors]
        else:
            good.add(item["name"])
    return not problems, good, problems


def correct_calls(workers: list[dict], good: set[str]) -> int:
    return sum(count for w in workers for name, seen in w["outputs"].items() if name in good
               for count in seen.values())


def call_times(worker: dict, traced: bool = False) -> tuple[list[float], list[float]]:
    """(raw, speed-scaled) seconds of the worker's timed calls, untraced or traced ones."""
    from reference import speed_factor

    raw, scaled = [], []
    for start, end, is_traced in worker["calls"]:
        if is_traced == traced:
            raw.append(end - start)
            scaled.append((end - start) * speed_factor(worker["samples"], (start + end) / 2))
    return raw, scaled


def setup_time(worker: dict) -> tuple[float, float]:
    """(raw, speed-scaled) set-up seconds, scaled by the samples taken right after set-up."""
    from reference import speed_factor

    first = worker["ready_samples"]
    return worker["setup_s"], worker["setup_s"] * speed_factor(first, first[0][0])


def end_to_end(workers: list[dict], setups: list[tuple[float, float]], good: set[str],
               scaled: bool) -> dict[str, float]:
    pick = 1 if scaled else 0
    times = [t for w in workers for t in call_times(w)[pick]]
    return {
        "inputs_per_s": correct_calls(workers, good) / sum(times),
        "latency_p50_s": statistics.median(times),
        "setup_s": statistics.median(s[pick] for s in setups),
        "peak_rss_mb": max(w["peak_rss_kb"] for w in workers) / 1024,
    }


def untraced_run(root: str, args, deadline: float) -> tuple[dict, list[dict]]:
    n = PROCESSES[args.workload]
    setup_only = [start_worker(root, args, "setup", k, deadline)
                  for k in range(max(0, SETUP_SAMPLES - n))]
    workers = [start_worker(root, args, "timed", k, deadline, budget=args.seconds / n)
               for k in range(n)]
    setups = [setup_time(w) for w in setup_only + workers]
    ok, good, problems = check_outputs(root, workers)
    metrics = end_to_end(workers, setups, good, scaled=True)
    summary = {"ok": ok, "problems": problems,
               "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
               "unscaled_metrics": end_to_end(workers, setups, good, scaled=False),
               "setup_samples": setups}
    return summary, workers


def traced_run(root: str, args, deadline: float) -> tuple[dict, list[dict]]:
    from tracing import layer_metrics

    worker = start_worker(root, args, "traced", 0, deadline, rounds=TRACE_ROUNDS[args.workload])
    ok, _, problems = check_outputs(root, [worker])
    untraced = sum(call_times(worker, traced=False)[1])
    traced = sum(call_times(worker, traced=True)[1])
    layers = layer_metrics(worker["spans"])
    layers["cli.import_s"] = worker["import_s"]
    layers["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else
                   "%" if k.endswith("_pct") else "count"} for k, v in layers.items()}
    trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-s{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "found"],
                   "spans": worker["spans"]}, fh)
    summary = {"ok": ok, "problems": problems, "metrics": metrics, "trace_file": trace_path,
               "untraced_scaled_s": untraced, "traced_scaled_s": traced}
    return summary, [worker]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcausal", "cli.py")):
        fail(f"no qcausal sources under {root}/src; run from the repository root")
    sys.path.insert(0, HERE)

    run = traced_run if args.trace else untraced_run
    summary, workers = run(root, args, deadline)
    for problem in summary["problems"]:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    attempted = sum(len(w["calls"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=attempted, failed=failed,
                  rounds=[w["rounds"] for w in workers], environment=workers[0]["environment"])
    result_path = os.path.join(HERE, "out", f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": summary["ok"], "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
