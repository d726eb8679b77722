"""Dump every ``classify --json`` result of the benchmark's inputs, to compare two trees.

Run from the repository root:

    python3 tools/report_dump.py --seeds 79 1 11 5 --output dump.json

For each seed and each of the ``corpus``, ``channels`` and ``desk-large``
workloads this builds the inputs that ``perfbench/workloads.py`` builds,
writes them to a temporary directory, and classifies each one through
``qcausal.cli.main(["classify", path, "--json"])`` in process, as the
benchmark's worker does. The output is one JSON object keyed
``workload/seed/name``, each value the exit code, stdout and stderr, so the
dumps of two trees (say, a commit and its parent) compare with ``cmp``.
qcausal is imported from this tree's ``src``; ``workloads`` is only imported,
and nothing is written under ``perfbench/``. Needs only the standard library
and qcausal.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, as in the benchmark's worker

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "channels", "desk-large")


def classify(cli, path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", path, "--json"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--output", required=True, help="the JSON dump to write")
    args = parser.parse_args()
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    import qcausal.cli as cli
    import workloads

    fixtures = os.path.join(SRC, "qcausal", "fixtures")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                directory = os.path.join(tmp, f"{workload}-{seed}")
                for item in workloads.write_inputs(workload, seed, directory, fixtures):
                    results[f"{workload}/{seed}/{item['name']}"] = classify(cli, item["path"])
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"report_dump: {len(results)} results written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
