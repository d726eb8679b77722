"""Command-line front end: classify inputs, run demos, build artifacts.

Exit codes: 0 on success (regardless of verdict), 2 on parse or argument
errors, 3 on invariant failures such as a non-trace-preserving channel.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .causality import B_TO_A, semicausal_test
from .channels import KrausChannel, channel_distance, measurement_channel
from .games import (
    CIRELSON_VALUE,
    and_box_channel,
    best_classical_value,
    chsh_success_quantum,
    ip_demo,
    optimal_quantum_strategy,
)
from .linalg import ATOL, HADAMARD, PAULI_X, PAULIS, basis_vector, proj
from .localizability import mismatch_basis, twisted_partition_basis
from .measurements import (
    OrthogonalBasis,
    bell_basis,
    completion_basis,
    conditional_basis,
    incomplete_bell_channel,
    semicausal_basis_test,
)
from .protocols import (
    BELL_LABELS,
    branch_weights,
    entanglement_swap_channel,
    sample_branch,
    semilocal_channel,
    swap_outcome,
    twisted_partition_protocol_kraus,
)
from .report import classify_basis, classify_channel
from .serialize import ParseError, dump_document, load_document
from .twirl import PauliString, bell_twirl, stabilizer_channel, werner_twirl

# The largest --tol: above it the pairwise and Choi criteria, or the subspace
# counts, stop agreeing on valid inputs, which then exit 3.
MAX_TOL = 1e-3

_NAMED_UNITARIES = {
    "identity": np.eye(2, dtype=complex),
    "hadamard": HADAMARD,
    "x": PAULI_X,
}


def _resolve_input(path: str) -> str:
    """Use the path as given, falling back to the bundled fixtures directory."""
    if os.path.exists(path):
        return path
    bundled = resources.files("qcausal") / "fixtures" / path
    if bundled.is_file():
        return str(bundled)
    return path


def _cmd_classify(args: argparse.Namespace) -> int:
    obj = load_document(_resolve_input(args.path))
    if isinstance(obj, OrthogonalBasis):
        report = classify_basis(obj, tol=args.tol)
    else:
        report = classify_channel(obj, tol=args.tol)
    doc = report.to_json()
    if args.json:
        print(json.dumps(doc))
        return 0
    print(f"input: {report.input_kind} on {report.dims.dim_a} x {report.dims.dim_b}")
    print(f"trace preserving: {report.tp} (deviation {report.tp_deviation:.2e})")
    for label, entry in (("B->A blocked", report.b_to_a_blocked),
                         ("A->B blocked", report.a_to_b_blocked)):
        line = f"{label}: {entry.verdict} [{entry.criterion}]"
        if entry.witness is not None and "separation" in entry.witness:
            line += f" witness separation {entry.witness['separation']:.3f}"
        print(line)
    print(f"causal: {report.causal}")
    if report.game_value is not None:
        print(f"game value: {report.game_value:.6f} (bound {CIRELSON_VALUE:.6f})")
    print(f"localizability: {report.localizability}")
    for cert in report.obstructions:
        print(f"  certificate: {cert['kind']} (residual {cert.get('residual', 0.0):.3e})")
    return 0


def _demo_chsh(args: argparse.Namespace) -> int:
    classical, _ = best_classical_value()
    quantum = chsh_success_quantum(optimal_quantum_strategy())
    print(f"classical maximum: {classical}")
    print(f"quantum value (stated observables): {quantum:.6f}")
    print(f"quantum bound: {CIRELSON_VALUE:.6f}")
    return 0


def _demo_ip(args: argparse.Namespace) -> int:
    if len(args.x) != len(args.y):
        print("error: x and y must have equal length", file=sys.stderr)
        return 2
    try:
        print(ip_demo(args.x, args.y, seed=args.seed))
    except ValueError as exc:  # a character other than 0 or 1, or an empty string
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _demo_semilocal(args: argparse.Namespace) -> int:
    obj = load_document(_resolve_input(args.basis))
    if not isinstance(obj, OrthogonalBasis):
        print("error: semilocal demo needs a basis file", file=sys.stderr)
        return 2
    verdict = semicausal_basis_test(obj, "A")
    if not verdict.semicausal:
        print("error: semilocal demo needs a basis that blocks B->A signaling; this one "
              f"fails the pairwise criterion on side A at pair {verdict.violating_pair}",
              file=sys.stderr)
        return 2
    protocol = semilocal_channel(obj)
    rho = proj(sum(obj.vectors) / np.sqrt(obj.size))
    rng = np.random.default_rng(args.seed)
    counts = collections.Counter(sample_branch(protocol, rho, rng) for _ in range(args.shots))
    print("outcome histogram (uniform superposition input):")
    weights = branch_weights(protocol, rho)
    for a in sorted(counts):
        print(f"  outcome {a}: {counts[a]} / {args.shots} (weight {weights[a]:.4f})")
    print(f"one-way: {semicausal_test(protocol, B_TO_A)}")
    return 0


def _demo_swap(args: argparse.Namespace) -> int:
    inputs = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}
    if args.input not in inputs:
        print("error: input must be one of 00, 01, 10, 11", file=sys.stderr)
        return 2
    i, j = inputs[args.input]
    protocol = entanglement_swap_channel()
    rho = proj(np.kron(basis_vector(2, i), basis_vector(2, j)))
    rng = np.random.default_rng(args.seed)
    branches = [sample_branch(protocol, rho, rng) for _ in range(args.shots)]
    counts = collections.Counter(BELL_LABELS[swap_outcome(k)[0]] for k in branches)
    print(f"input |{args.input}>, {args.shots} runs:")
    for label in sorted(counts):
        print(f"  {label}: {counts[label]}")
    print(f"last run correction record: {swap_outcome(branches[-1])[1]}")
    return 0


def _demo_twisted(args: argparse.Namespace) -> int:
    u_b = _NAMED_UNITARIES[args.u]
    basis = twisted_partition_basis(u_b)
    target = measurement_channel(basis)
    protocol = twisted_partition_protocol_kraus(u_b)
    dist = channel_distance(protocol, target)
    rho = proj(sum(basis.vectors[k] for k in (0, 5, 12)) / np.sqrt(3))
    row, rest = divmod(sample_branch(protocol, rho, np.random.default_rng(args.seed)), 8)
    column, pauli = divmod(rest, 4)
    print(f"twist: {args.u}")
    print(f"protocol channel == twisted basis channel: {dist < 1e-9} "
          f"(Choi distance {dist:.2e})")
    print(f"sampled run: row {row}, column {column}, Pauli {list(PAULIS)[pauli]}")
    print(f"one-way: {semicausal_test(protocol, B_TO_A)}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    handlers = {
        "chsh": _demo_chsh,
        "ip": _demo_ip,
        "semilocal": _demo_semilocal,
        "swap": _demo_swap,
        "twisted": _demo_twisted,
    }
    return handlers[args.name](args)


def _build_stabilizer(args: argparse.Namespace) -> KrausChannel:
    if not args.generators:
        raise ValueError("stabilizer build needs generator strings, e.g. +XX +ZZ")
    return stabilizer_channel([PauliString.parse(g) for g in args.generators])


_BUILDERS = {
    "twirl": lambda args: bell_twirl() if args.group == "pauli" else werner_twirl(),
    "stabilizer": _build_stabilizer,
    "twisted-basis": lambda args: twisted_partition_basis(_NAMED_UNITARIES[args.u]),
    "mismatch": lambda args: mismatch_basis(),
    "andbox": lambda args: and_box_channel(),
    "bell-basis": lambda args: bell_basis(),
    "sorkin": lambda args: incomplete_bell_channel(),
    "conditional-basis": lambda args: conditional_basis(),
    "completion-basis": lambda args: completion_basis(),
}


def _cmd_build(args: argparse.Namespace) -> int:
    try:
        obj = _BUILDERS[args.kind](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        dump_document(obj, args.output)
    except OSError as exc:  # a missing directory, or a directory given as the file
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and 0 < value <= MAX_TOL):
        raise argparse.ArgumentTypeError(f"must be a number in (0, {MAX_TOL:g}], got {text}")
    return value


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The full parser and its ``build`` sub-parser, built once per process."""
    parser = argparse.ArgumentParser(prog="qcausal",
                                     description="Classify bipartite quantum operations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a channel or basis JSON file")
    p_classify.add_argument("path", help="input file (bundled fixture names also work)")
    p_classify.add_argument("--json", action="store_true", help="machine-readable output")
    p_classify.add_argument("--tol", type=_tolerance, default=ATOL,
                            help=f"matrix comparison tolerance, a number in (0, {MAX_TOL:g}]")
    p_classify.set_defaults(func=_cmd_classify)

    p_demo = sub.add_parser("demo", help="run a bundled demonstration")
    p_demo.add_argument("name", choices=["chsh", "ip", "semilocal", "swap", "twisted"])
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--x", default="101", help="ip demo: first bitstring")
    p_demo.add_argument("--y", default="110", help="ip demo: second bitstring")
    p_demo.add_argument("--basis", default="bell_basis.json",
                        help="semilocal demo: basis file")
    p_demo.add_argument("--shots", type=_positive_int, default=200)
    p_demo.add_argument("--input", default="00", help="swap demo: product input")
    p_demo.add_argument("--u", default="hadamard", choices=sorted(_NAMED_UNITARIES),
                        help="twisted demo: twist unitary")
    p_demo.set_defaults(func=_cmd_demo)

    p_build = sub.add_parser("build", help="write a constructed channel/basis as JSON")
    p_build.add_argument("kind", choices=list(_BUILDERS))
    p_build.add_argument("generators", nargs="*",
                         help="stabilizer build: Pauli strings like +XX +ZZ")
    p_build.add_argument("--group", default="pauli", choices=["pauli", "tetrahedral"],
                         help="twirl build: which group")
    p_build.add_argument("--u", default="hadamard", choices=sorted(_NAMED_UNITARIES),
                         help="twisted-basis build: twist unitary")
    p_build.add_argument("-o", "--output", required=True)
    p_build.set_defaults(func=_cmd_build)
    return parser, p_build


def build_parser() -> argparse.ArgumentParser:
    return _parsers.__wrapped__()[0]  # a fresh parser, not the cached one


def _read_classify(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parse builds for ``classify PATH [--json] [--tol T]``.

    Flags may come in any order and repeat, the last ``--tol`` winning. Any
    other argv gives None: an option other than exactly ``--json`` or
    ``--tol``, a ``--tol`` value that is missing or fails ``_tolerance`` (as
    every value starting with a dash does), a second positional, or no path.
    """
    if not argv or argv[0] != "classify":
        return None
    path, as_json, tol = None, False, ATOL
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            as_json = True
        elif token == "--tol":
            try:
                tol = _tolerance(next(tokens))
            except (StopIteration, ValueError, argparse.ArgumentTypeError):
                return None
        elif token.startswith("-") or path is not None:
            return None
        else:
            path = token
    if path is None:
        return None
    return argparse.Namespace(command="classify", path=path, json=as_json, tol=tol,
                              func=_cmd_classify)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, for every argv it accepts.

    ``_read_classify`` reads the plain classify command lines, with the same
    output and exits. The build sub-parser alone reads a ``build`` command line,
    intermixed (argparse cannot with sub-parsers), so generators may follow the
    options, signed ones after ``--``. Every other argv goes to the full parse.
    """
    args = _read_classify(argv)
    if args is None and argv[:1] == ["build"]:
        return _parsers()[1].parse_intermixed_args(argv[1:], argparse.Namespace(command="build"))
    return _parsers()[0].parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
