"""One benchmark process: set up, warm up, classify rounds of inputs, write a result.

``run.py`` starts each worker as a fresh interpreter from the repository root,
so its set-up time covers interpreter start, ``import qcausal`` and writing
the inputs, and its peak resident memory is its own. Modes:

* ``setup``: set up and warm up, then exit (a set-up time sample);
* ``timed``: then classify whole rounds of every input until the next round
  would overrun ``--budget`` seconds (at least one round);
* ``traced``: then run ``--rounds`` pairs of an untraced and a traced round.

Each call goes through ``qcausal.cli.main(["classify", path, "--json"])`` in
process, with its output captured. Outputs are kept once per distinct text
and checked by ``run.py`` after timing ends.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here or by qcausal

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SAMPLE_EVERY_S = 1.0
SPEED_SAMPLES_AFTER_SETUP = 3


def classify(cli, path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", path, "--json"])
    return code, out.getvalue(), err.getvalue()


class Recorder:
    """Timed calls, reference samples between them, and the distinct outputs of every input."""

    def __init__(self, sample) -> None:
        self.sample = sample
        self.calls: list[tuple[float, float, bool]] = []  # start, end, traced
        self.samples: list[tuple[float, float]] = []      # midpoint, duration over nominal
        self.failed = 0
        self.outputs: dict[str, dict[str, int]] = {}
        self.failures: dict[str, dict[str, int]] = {}

    def sample_speed(self, every: float = 0.0) -> None:
        """Time the reference computation, unless one was timed less than ``every`` s ago."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= every:
            self.samples.append(self.sample())

    def call(self, cli, item: dict, tracer=None) -> None:
        self.sample_speed(every=SAMPLE_EVERY_S)
        span = tracer.root("cli.main", len(self.calls)) if tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            code, out, err = classify(cli, item["path"])
            end = time.perf_counter()
        self.calls.append((start, end, tracer is not None))
        if code == 0:
            seen = self.outputs.setdefault(item["name"], {})
            seen[out] = seen.get(out, 0) + 1
        else:
            self.failed += 1
            key = json.dumps([code, err])
            seen = self.failures.setdefault(item["name"], {})
            seen[key] = seen.get(key, 0) + 1

    def run_round(self, cli, manifest: list[dict]) -> None:
        for item in manifest:
            self.call(cli, item)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import qcausal
    import qcausal.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(qcausal.__file__).startswith(src + os.sep):
        raise SystemExit(f"qcausal imported from {qcausal.__file__}, not from {src}")

    import reference
    import workloads

    fixtures = os.path.join(src, "qcausal", "fixtures")
    manifest = workloads.write_inputs(args.workload, args.seed, args.inputs, fixtures)
    warmup = next(item for item in manifest if item["name"] == workloads.WARMUP[args.workload])
    classify(cli, warmup["path"])
    ready = time.monotonic()
    kind = workloads.REFERENCE[args.workload]
    rec = Recorder(lambda: reference.sample(kind))
    for _ in range(SPEED_SAMPLES_AFTER_SETUP):
        rec.samples.append(rec.sample())
    result = {"ready": ready, "import_s": import_s, "manifest": manifest,
              "ready_samples": list(rec.samples)}

    if args.mode != "setup":
        rounds = 0
        if args.mode == "timed":
            begin = time.perf_counter()
            while True:
                rec.run_round(cli, manifest)
                rounds += 1
                elapsed = time.perf_counter() - begin
                if elapsed + elapsed / rounds > args.budget:
                    break
        else:
            from tracing import Tracer

            tracer = Tracer()
            for rounds in range(1, args.rounds + 1):
                rec.run_round(cli, manifest)
                tracer.install()
                for item in manifest:
                    rec.call(cli, item, tracer)
                tracer.uninstall()
            result["spans"] = tracer.spans
        rec.sample_speed()
        result.update(
            rounds=rounds,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            calls=rec.calls,
            failed=rec.failed,
            outputs=rec.outputs,
            failures=rec.failures,
            environment=environment(),
        )
    result["samples"] = rec.samples
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
