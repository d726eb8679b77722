"""Assembly of machine-checkable classification reports.

Every negative verdict carries a witness or certificate; every positive
verdict names the criterion that decided it. Localizability is only ever
reported as "obstructed" (with a certificate) or "by construction" (when a
known zero-communication recipe reproduces the channel exactly); otherwise
the report says that no obstruction was found, which is not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import localizability as loc
from .causality import (
    A_TO_B,
    B_TO_A,
    SEARCH_THRESHOLD,
    SignalWitness,
    semicausal_test,
    signaling_search,
)
from .channels import KrausChannel, choi, choi_distance, measurement_channel, validate
from .games import CIRELSON_VALUE, channel_game_value
from .linalg import BiDims, tensor_product
from .measurements import (
    BasisWitness,
    OrthogonalBasis,
    basis_signaling_witness,
    causal_structure,
    semicausal_basis_test,
)
from .serialize import matrix_to_json
from .twirl import ProjectiveUnitaryGroup, twirl_channel

PAIRWISE_CRITERION = "pairwise-reduced-states"
CHOI_CRITERION = "choi-marginal"
CONSTRUCTION = "construction"


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
    b_to_a_blocked: VerdictEntry | None = None
    a_to_b_blocked: VerdictEntry | None = None
    obstructions: list[dict] = field(default_factory=list)
    localizability: str = "no obstruction found"
    game_value: float | None = None

    @property
    def causal(self) -> bool:
        return bool(self.b_to_a_blocked and self.a_to_b_blocked
                    and self.b_to_a_blocked.verdict and self.a_to_b_blocked.verdict)

    def to_json(self) -> dict:
        doc = {
            "input": {"kind": self.input_kind,
                      "dimA": self.dims.dim_a, "dimB": self.dims.dim_b},
            "tracePreserving": {"verdict": self.tp, "deviation": self.tp_deviation},
            "semicausal": {
                "BtoA": self.b_to_a_blocked.to_json() if self.b_to_a_blocked else None,
                "AtoB": self.a_to_b_blocked.to_json() if self.a_to_b_blocked else None,
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
    return {
        "kind": "pure-product-search",
        "direction": w.direction,
        "receiverState": matrix_to_json(w.phi.reshape(-1, 1)),
        "senderState": matrix_to_json(w.psi.reshape(-1, 1)),
        "senderStateAlternative": matrix_to_json(w.psi_prime.reshape(-1, 1)),
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


def classify_basis(basis: OrthogonalBasis, tol: float = 1e-9) -> ClassificationReport:
    """Full classification of a complete orthogonal measurement basis."""
    ch = measurement_channel(basis)
    tp = validate(ch, tol)
    report = ClassificationReport("basis", basis.dims, tp.tp, tp.deviation)

    for side, direction, attr in (("A", B_TO_A, "b_to_a_blocked"),
                                  ("B", A_TO_B, "a_to_b_blocked")):
        verdict = semicausal_basis_test(basis, side, tol)
        choi_verdict = semicausal_test(ch, direction, tol)
        if verdict.semicausal != choi_verdict:
            raise ValueError(f"criteria disagree on side {side}; numerical failure")
        entry = VerdictEntry(verdict.semicausal, f"{PAIRWISE_CRITERION}+{CHOI_CRITERION}")
        if not verdict.semicausal:
            entry.witness = _serialize_basis_witness(basis_signaling_witness(basis, side))
        setattr(report, attr, entry)

    if report.causal:
        _analyze_localizability(report, basis, ch)
    else:
        report.localizability = "not localizable (signaling certificate attached)"

    if basis.dims == BiDims(2, 2):
        _attach_game_value(report, ch)
    return report


def _analyze_localizability(report: ClassificationReport, basis: OrthogonalBasis,
                            ch: KrausChannel) -> None:
    grid = causal_structure(basis)
    na, nb = basis.dims
    if grid.d == 1:
        if _product_dephasing_matches(basis, ch):
            report.localizability = "localizable by construction (local dephasings)"
            return
    if grid.d == na == nb:
        us = loc.extract_unitaries(basis)
        cert = loc.projective_group_test(us)
        if cert is not None:
            report.obstructions.append(_serialize_certificate(cert))
            report.localizability = "not localizable (group-closure certificate)"
            return
        if _matched_conjugate_twirl_matches(us):
            report.localizability = "localizable by construction (matched group twirl)"
            return
        report.localizability = "no obstruction found (unitaries projectively closed)"
        return
    cert = loc.closure_obstruction_search(basis)
    if cert is not None:
        report.obstructions.append(_serialize_certificate(cert))
        report.localizability = "not localizable (eigenstate-closure certificate)"
        return
    if basis.dims == BiDims(4, 4) and grid.d == 2 and _quadrant_protocol_matches(basis, ch):
        report.localizability = ("localizable by construction "
                                 "(cell dephasing + matched Pauli twirl)")
        return
    report.localizability = "no obstruction found"


def _product_dephasing_matches(basis: OrthogonalBasis, ch: KrausChannel) -> bool:
    from .measurements import semicausal_structure

    part_a = semicausal_structure(basis, "A")
    part_b = semicausal_structure(basis, "B")
    kraus = tuple(
        tensor_product(sa.projector, sb.projector)
        for sa in part_a.subspaces for sb in part_b.subspaces
    )
    candidate = KrausChannel(kraus, basis.dims)
    return choi_distance(choi(candidate), choi(ch)) < 1e-9 * ch.dim


def _matched_conjugate_twirl_matches(us: loc.MEBasisUnitaries) -> bool:
    """Does the twirl over {U_a (x) conj(U_a)} reproduce the aligned basis channel?

    Equality in the aligned frame transfers to the original basis by local
    conjugation, which preserves zero-communication implementability.
    """
    aligned = loc.me_basis_from_unitaries(us.unitaries)
    target = measurement_channel(aligned)
    elements = tuple(tensor_product(u, u.conj()) for u in us.unitaries)
    candidate = twirl_channel(ProjectiveUnitaryGroup(elements), aligned.dims)
    return choi_distance(choi(candidate), choi(target)) < 1e-9 * target.dim


def _quadrant_protocol_matches(basis: OrthogonalBasis, ch: KrausChannel) -> bool:
    from .protocols import twisted_partition_protocol_kraus

    candidate = twisted_partition_protocol_kraus(np.eye(2, dtype=complex))
    return choi_distance(choi(candidate), choi(ch)) < 1e-9 * ch.dim


def _attach_game_value(report: ClassificationReport, ch: KrausChannel) -> None:
    value = channel_game_value(ch)
    report.game_value = float(value)
    if value > CIRELSON_VALUE + 1e-9:
        report.obstructions.append({
            "kind": "GameValue",
            "value": float(value),
            "bound": float(CIRELSON_VALUE),
            "residual": float(value - CIRELSON_VALUE),
        })
        report.localizability = "not localizable (game-value certificate)"


def classify_channel(ch: KrausChannel, tol: float = 1e-9) -> ClassificationReport:
    """Full classification of a Kraus channel."""
    tp = validate(ch, tol)
    report = ClassificationReport("channel", ch.dims, tp.tp, tp.deviation)
    if not tp.tp:
        raise ValueError(f"channel is not trace preserving (deviation {tp.deviation:.3e})")

    for direction, attr in ((B_TO_A, "b_to_a_blocked"), (A_TO_B, "a_to_b_blocked")):
        blocked = semicausal_test(ch, direction, tol)
        entry = VerdictEntry(blocked, CHOI_CRITERION)
        if not blocked:
            found = signaling_search(ch, direction)
            if found is not None:
                entry.witness = _serialize_search_witness(found)
            else:
                entry.witness = {"kind": "choi-marginal-deviation",
                                 "note": "exact criterion failed; no probe pair "
                                         "separates the receiver's outputs by more "
                                         f"than {SEARCH_THRESHOLD:g}"}
        setattr(report, attr, entry)

    if not report.causal:
        report.localizability = "not localizable (signaling certificate attached)"
    if ch.dims == BiDims(2, 2):
        _attach_game_value(report, ch)
    return report
