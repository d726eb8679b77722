"""Assembly of machine-checkable classification reports.

Every negative verdict carries a witness or certificate; every positive
verdict names the criterion that decided it. Localizability is only ever
reported as "obstructed" (with a certificate) or "by construction" (when
cell dephasing plus a matched twirl reproduces the channel exactly);
otherwise the report says that no obstruction was found, which is not a proof.

A basis is classified in its own frame: trace preservation is the residual
that admitted it (``measurements.measurement_validate``), and the Choi-marginal
cross-check of each side and the grid-twirl distance are read from its vectors
(``measurement_semicausal_test`` and ``measurement_distance``). The
measurement channel is built only where a step needs a channel: the 2x2 game
value, the probe-search witness and the closure certificate. A channel input
goes through ``validate``, ``semicausal_test`` and the probe search directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import localizability as loc
from .causality import (
    A_TO_B,
    B_TO_A,
    SEARCH_THRESHOLD,
    SignalWitness,
    semicausal_test,
    signaling_search,
)
from .channels import KrausChannel, measurement_channel, validate
from .games import CIRELSON_VALUE, channel_game_value
from .linalg import ATOL, BiDims
from .measurements import (
    BasisWitness,
    OrthogonalBasis,
    basis_signaling_witness,
    causal_structure,
    measurement_distance,
    measurement_semicausal_test,
    measurement_validate,
    semicausal_basis_test,
)
from .serialize import columns_to_json, matrix_to_json
from .twirl import grid_twirl_channel

PAIRWISE_CRITERION = "pairwise-reduced-states"
CHOI_CRITERION = "choi-marginal"
# Not --tol: it covers the rounding of a sum of probabilities, not operator equality.
GAME_VALUE_MARGIN = 1e-9


@dataclass
class VerdictEntry:
    verdict: bool
    criterion: str
    witness: dict | None = None

    def to_json(self) -> dict:
        doc = {"verdict": self.verdict, "criterion": self.criterion}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class ClassificationReport:
    input_kind: str
    dims: BiDims
    tp: bool
    tp_deviation: float
    b_to_a_blocked: VerdictEntry
    a_to_b_blocked: VerdictEntry
    obstructions: list[dict] = field(default_factory=list)
    localizability: str = "no obstruction found"
    game_value: float | None = None

    @property
    def causal(self) -> bool:
        return bool(self.b_to_a_blocked.verdict and self.a_to_b_blocked.verdict)

    def to_json(self) -> dict:
        doc = {
            "input": {"kind": self.input_kind,
                      "dimA": self.dims.dim_a, "dimB": self.dims.dim_b},
            "tracePreserving": {"verdict": self.tp, "deviation": self.tp_deviation},
            "semicausal": {
                "BtoA": self.b_to_a_blocked.to_json(),
                "AtoB": self.a_to_b_blocked.to_json(),
            },
            "causal": self.causal,
            "localizability": self.localizability,
            "obstructions": self.obstructions,
        }
        if self.game_value is not None:
            doc["gameValue"] = self.game_value
        return doc


def _serialize_basis_witness(w: BasisWitness) -> dict:
    return {
        "kind": "basis-steering",
        "side": w.side,
        "preparedIndex": w.b_index,
        "senderUnitary": matrix_to_json(w.unitary),
        "separation": w.separation,
    }


def _serialize_search_witness(w: SignalWitness) -> dict:
    receiver, sender, alternative = columns_to_json(w.phi, w.psi, w.psi_prime)
    return {
        "kind": "pure-product-search",
        "direction": w.direction,
        "receiverState": receiver,
        "senderState": sender,
        "senderStateAlternative": alternative,
        "separation": w.separation,
    }


def _serialize_certificate(cert: loc.ObstructionCertificate) -> dict:
    doc = {"kind": cert.kind, "residual": cert.residual}
    if cert.kind == loc.PROJECTIVE_GROUP:
        doc["pair"] = list(cert.evidence["pair"])
        doc["product"] = matrix_to_json(cert.evidence["product"])
    else:
        doc["jointState"] = matrix_to_json(cert.evidence["joint_state"].reshape(-1, 1))
    return doc


def _channel_witness(ch: KrausChannel, direction: str) -> dict:
    """The best IC-probe pair, or a note when none separates above the bar."""
    found = signaling_search(ch, direction)
    if found is not None:
        return _serialize_search_witness(found)
    return {"kind": "choi-marginal-deviation",
            "note": "exact criterion failed; no probe pair separates the receiver's "
                    f"outputs by more than {SEARCH_THRESHOLD:g}"}


def classify_basis(basis: OrthogonalBasis, tol: float = ATOL) -> ClassificationReport:
    """Full classification of a complete orthogonal measurement basis, in its frame."""
    channel = functools.cache(lambda: measurement_channel(basis))  # built once, if needed
    tp = measurement_validate(basis, tol)
    entries = []
    for side, direction in (("A", B_TO_A), ("B", A_TO_B)):
        verdict = semicausal_basis_test(basis, side, tol)
        choi_verdict = measurement_semicausal_test(basis, direction, tol)
        if verdict.semicausal != choi_verdict:
            raise ValueError(f"criteria disagree on side {side}; numerical failure")
        entry = VerdictEntry(verdict.semicausal, f"{PAIRWISE_CRITERION}+{CHOI_CRITERION}")
        if not verdict.semicausal:
            found = basis_signaling_witness(basis, side, tol)
            entry.witness = (_serialize_basis_witness(found) if found is not None
                             else _channel_witness(channel(), direction))
        entries.append(entry)

    report = ClassificationReport("basis", basis.dims, tp.tp, tp.deviation, *entries)
    if report.causal:
        _analyze_localizability(report, basis, tol)
    else:
        report.localizability = "not localizable (signaling certificate attached)"

    if basis.dims == BiDims(2, 2):
        _attach_game_value(report, channel())
    return report


def _analyze_localizability(report: ClassificationReport, basis: OrthogonalBasis,
                            tol: float) -> None:
    """Try the grid construction; only if it fails, look for an obstruction."""
    grid = causal_structure(basis, tol)
    if measurement_distance(grid_twirl_channel(basis, grid), basis) < tol * basis.dims.total:
        report.localizability = ("localizable by construction "
                                 "(cell dephasing + matched twirl)")
        return
    if grid.r_a == grid.r_b == 1:
        cert = loc.projective_group_test(loc.extract_unitaries(grid), tol)
        report.localizability = "no obstruction found (unitaries projectively closed)"
    else:
        cert = loc.closure_obstruction_search(basis, grid, tol)
        report.localizability = "no obstruction found"
    if cert is not None:
        report.obstructions.append(_serialize_certificate(cert))
        closure = "group" if cert.kind == loc.PROJECTIVE_GROUP else "eigenstate"
        report.localizability = f"not localizable ({closure}-closure certificate)"


def _attach_game_value(report: ClassificationReport, ch: KrausChannel) -> None:
    value = channel_game_value(ch)
    report.game_value = float(value)
    if value > CIRELSON_VALUE + GAME_VALUE_MARGIN:
        report.obstructions.append({
            "kind": "GameValue",
            "value": float(value),
            "bound": float(CIRELSON_VALUE),
            "residual": float(value - CIRELSON_VALUE),
        })
        report.localizability = "not localizable (game-value certificate)"


def classify_channel(ch: KrausChannel, tol: float = ATOL) -> ClassificationReport:
    """Full classification of a Kraus channel."""
    tp = validate(ch, tol)
    if not tp.tp:
        raise ValueError(f"channel is not trace preserving (deviation {tp.deviation:.3e})")

    entries = []
    for direction in (B_TO_A, A_TO_B):
        blocked = semicausal_test(ch, direction, tol)
        entry = VerdictEntry(blocked, CHOI_CRITERION)
        if not blocked:
            entry.witness = _channel_witness(ch, direction)
        entries.append(entry)

    report = ClassificationReport("channel", ch.dims, tp.tp, tp.deviation, *entries)
    if not report.causal:
        report.localizability = "not localizable (signaling certificate attached)"
    if ch.dims == BiDims(2, 2):
        _attach_game_value(report, ch)
    return report
