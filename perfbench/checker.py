"""Checks a `qcausal classify --json` report against its input, without qcausal.

Only numpy and jsonschema are used. For every report the checker

* validates it against ``report.schema.json``;
* decides semicausality in each direction itself, exactly: by linearity a
  channel blocks signaling toward the receiver iff, for every matrix unit
  |p><q| on the receiver's side and |i><j| on the sender's side, tracing the
  sender out of E(|p><q| (x) |i><j|) gives delta_ij times a map of (p, q)
  alone. A fixed receiver state would be one (p, q) combination of these;
  all of them are checked, which costs little at these dimensions;
* replays every attached witness: a signaling verdict must carry one, and its
  replayed separation must exceed 1e-6 and match the reported value;
* replays eigenstate-closure certificates from their ``jointState`` and the
  two-qubit game value;
* checks the class that the way the input was built fixes (``expect``), and
  no more: either "localizable by construction" or "no obstruction found"
  passes on a grid, so a later change that proves more is not failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

CIRELSON = 0.5 + 0.5 / math.sqrt(2)
DECIDE_TOL = 1e-7     # largest deviation still read as "blocks signaling"
WITNESS_MIN = 1e-6    # smallest separation a signaling witness may show
REPLAY_TOL = 1e-8     # agreement between a replayed and a reported number


class Input:
    """A channel or basis file read into Kraus operators (rank-1 for a basis)."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.dims = (int(doc["dimA"]), int(doc["dimB"]))
        if "vectors" in doc:
            self.kind = "basis"
            self.vectors = [_matrix(v).reshape(-1) for v in doc["vectors"]]
            self.kraus = np.stack([np.outer(v, v.conj()) for v in self.vectors])
        else:
            self.kind = "channel"
            self.vectors = None
            self.kraus = np.stack([_matrix(k) for k in doc["kraus"]])

    def output(self, vec: np.ndarray) -> np.ndarray:
        """E(|v><v|) for a unit vector v."""
        images = self.kraus @ vec
        return np.einsum("ki,kj->ij", images, images.conj())

    def reduced(self, rho: np.ndarray, keep: str) -> np.ndarray:
        na, nb = self.dims
        t = rho.reshape(na, nb, na, nb)
        return np.einsum("ajbj->ab", t) if keep == "A" else np.einsum("iaib->ab", t)


def _matrix(doc: dict) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(doc["rows"]), int(doc["cols"]))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    diff = rho - sigma
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def signaling_deviation(inp: Input, receiver: str) -> float:
    """How far the channel is from blocking signaling toward ``receiver`` (0 when it blocks)."""
    na, nb = inp.dims
    t = inp.kraus.reshape(-1, na, nb, na, nb)
    if receiver == "A":
        out = np.einsum("kxypi,kzyqj->ijpqxz", t, t.conj(), optimize=True)
    else:
        out = np.einsum("kyxip,kyzjq->ijpqxz", t, t.conj(), optimize=True)
    expected = np.einsum("ij,pqxz->ijpqxz", np.eye(out.shape[0]), out[0, 0])
    return float(np.abs(out - expected).max())


def game_value(inp: Input) -> float:
    """Success probability of a XOR b = x AND y with inputs |xy> and computational readout."""
    p = 0.0
    for x in (0, 1):
        for y in (0, 1):
            out = inp.output(np.eye(4)[2 * x + y].astype(complex))
            p += sum(out[2 * a + b, 2 * a + b].real
                     for a in (0, 1) for b in (0, 1) if (a ^ b) == (x & y))
    return p / 4


def replay_witness(inp: Input, witness: dict, receiver: str) -> float:
    """Receiver's trace-distance separation produced by the witness's protocol."""
    na, nb = inp.dims
    if witness["kind"] == "basis-steering":
        u = _matrix(witness["senderUnitary"])
        vec = inp.vectors[witness["preparedIndex"]]
        full = np.kron(np.eye(na), u) if receiver == "A" else np.kron(u, np.eye(nb))
        plain, steered = vec, full @ vec
    elif witness["kind"] == "pure-product-search":
        phi = _matrix(witness["receiverState"]).reshape(-1)
        psi = _matrix(witness["senderState"]).reshape(-1)
        psi_alt = _matrix(witness["senderStateAlternative"]).reshape(-1)
        if receiver == "A":
            plain, steered = np.kron(phi, psi), np.kron(phi, psi_alt)
        else:
            plain, steered = np.kron(psi, phi), np.kron(psi_alt, phi)
    else:
        raise ValueError(f"witness kind {witness['kind']!r} is no replayable protocol")
    return _trace_distance(inp.reduced(inp.output(plain), receiver),
                           inp.reduced(inp.output(steered), receiver))


def closure_residual(inp: Input, cert: dict) -> float:
    joint = _matrix(cert["jointState"]).reshape(-1)
    joint = joint / np.linalg.norm(joint)
    return float(np.linalg.norm(inp.output(joint) - np.outer(joint, joint.conj())))


def check_report(inp: Input, text: str, expect: dict, validator) -> list[str]:
    """Every way the report is wrong for this input; an empty list means correct."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    errors = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if errors:
        return errors
    na, nb = inp.dims
    if report["input"] != {"kind": inp.kind, "dimA": na, "dimB": nb}:
        errors.append(f"input block {report['input']} does not describe the input")
    tp_dev = float(np.linalg.norm(np.einsum("kji,kjl->il", inp.kraus.conj(), inp.kraus)
                                  - np.eye(na * nb)))
    if not report["tracePreserving"]["verdict"] or \
            abs(report["tracePreserving"]["deviation"] - tp_dev) > REPLAY_TOL:
        errors.append(f"trace preservation misreported (deviation {tp_dev:.3e})")

    blocked = {}
    for key, receiver in (("BtoA", "A"), ("AtoB", "B")):
        entry = report["semicausal"][key]
        blocked[key] = signaling_deviation(inp, receiver) <= DECIDE_TOL
        if entry["verdict"] != blocked[key]:
            errors.append(f"{key}: reported {entry['verdict']}, exact check says {blocked[key]}")
        witness = entry.get("witness")
        if entry["verdict"]:
            if witness is not None:
                errors.append(f"{key}: blocking verdict carries a witness")
            continue
        if witness is None:
            errors.append(f"{key}: signaling verdict without a witness")
            continue
        try:
            separation = replay_witness(inp, witness, receiver)
        except (KeyError, IndexError, ValueError) as exc:
            errors.append(f"{key}: witness does not replay: {exc}")
            continue
        if separation <= WITNESS_MIN or abs(separation - witness.get("separation", -1)) > REPLAY_TOL:
            errors.append(f"{key}: witness replays to {separation:.9f}, "
                          f"reported {witness.get('separation')}")

    causal = blocked["BtoA"] and blocked["AtoB"]
    if report["causal"] != causal:
        errors.append(f"causal reported {report['causal']}, exact check says {causal}")
    if not causal and not report["localizability"].startswith("not localizable"):
        errors.append(f"signaling input reported as {report['localizability']!r}")

    kinds = [cert["kind"] for cert in report["obstructions"]]
    for cert in report["obstructions"]:
        if cert["kind"] == "EigenstateClosure":
            residual = closure_residual(inp, cert)
            if residual <= WITNESS_MIN or abs(residual - cert["residual"]) > REPLAY_TOL:
                errors.append(f"closure certificate replays to {residual:.3e}, "
                              f"reported {cert['residual']:.3e}")

    if (na, nb) == (2, 2):
        value = game_value(inp)
        if abs(report.get("gameValue", -1.0) - value) > REPLAY_TOL:
            errors.append(f"game value reported {report.get('gameValue')}, replayed {value}")
        if (value > CIRELSON + 1e-9) != ("GameValue" in kinds):
            errors.append(f"game value {value} against bound {CIRELSON}: certificate {kinds}")
        for cert in report["obstructions"]:
            if cert["kind"] == "GameValue" and (abs(cert.get("bound", -1.0) - CIRELSON) > 1e-12
                                                or abs(cert.get("value", -1.0) - value) > REPLAY_TOL):
                errors.append(f"game-value certificate {cert} does not replay")
    elif "gameValue" in report:
        errors.append("game value reported for an input that is not two-qubit")

    errors += _check_expectation(report, expect, kinds)
    return errors


def _check_expectation(report: dict, expect: dict, kinds: list[str]) -> list[str]:
    errors = []
    for key in ("BtoA", "AtoB"):
        if key in expect and report["semicausal"][key]["verdict"] != expect[key]:
            errors.append(f"{key}: the construction fixes {expect[key]}")
    if "localizability" in expect and \
            not any(report["localizability"].startswith(p) for p in expect["localizability"]):
        errors.append(f"localizability {report['localizability']!r}, "
                      f"the construction allows {expect['localizability']}")
    if "obstruction" in expect:
        wanted = [] if expect["obstruction"] is None else [expect["obstruction"]]
        if kinds != wanted:
            errors.append(f"obstructions {kinds}, the construction fixes {wanted}")
    if "gameValue" in expect and abs(report.get("gameValue", -1.0) - expect["gameValue"]) > 1e-9:
        errors.append(f"game value {report.get('gameValue')}, expected {expect['gameValue']}")
    return errors


def expected_failure(expect: dict, code: int, stderr: str) -> bool:
    """Whether a failed call is the known fault the input was chosen to show."""
    fails = expect.get("fails")
    return bool(fails) and code == fails["exit"] and fails["stderr"] in stderr


def load_validator(schema_path: str):
    import jsonschema

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)
