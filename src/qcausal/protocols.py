"""Executable reconstructions of measurement and twirl protocols.

Every stochastic protocol also has a deterministic branch-weighted form that
propagates all branches with their weights, so protocol channels can be
compared against their targets exactly, without sampling noise. Traces record
who acted and what was communicated; one-way protocols must contain no
return payload.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .causality import A_TO_B, B_TO_A
from .channels import KrausChannel
from .linalg import (
    BiDims,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_matrix,
    as_vector,
    basis_vector,
    dag,
    frobenius,
    is_unitary,
    kron_all,
    normalize,
    proj,
    tensor_product,
)
from .measurements import (
    OrthogonalBasis,
    PartitionStructure,
    _frame_map_unitary,
    bell_states,
    semicausal_structure,
)


@dataclass(frozen=True)
class ProtocolStep:
    actor: str
    action: str
    comm_direction: str | None = None
    payload_kind: str = "none"


@dataclass
class ProtocolTrace:
    steps: list[ProtocolStep] = field(default_factory=list)

    def add(self, actor: str, action: str, comm_direction: str | None = None,
            payload_kind: str = "none") -> None:
        self.steps.append(ProtocolStep(actor, action, comm_direction, payload_kind))

    def one_way(self) -> bool:
        """True iff no step communicates from B back to A."""
        return all(s.comm_direction != B_TO_A for s in self.steps)

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps({
                "actor": s.actor,
                "action": s.action,
                "commDirection": s.comm_direction,
                "payloadKind": s.payload_kind,
            })
            for s in self.steps
        )


# ---------------------------------------------------------------------------
# One-way measurement protocol for bases passing the pairwise criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemilocalRun:
    outcome_index: int
    subspace_index: int
    final_state: np.ndarray
    trace: ProtocolTrace


def _branch_probabilities(basis: OrthogonalBasis, rho: np.ndarray,
                          structure: PartitionStructure) -> list[tuple[int, int, float]]:
    """Per-outcome probabilities computed through the two-stage protocol route:
    first the subspace projection weight, then the completion weight."""
    na, nb = basis.dims
    member_to_subspace = {idx: k for k, s in enumerate(structure.subspaces)
                          for idx in s.member_indices}
    out = []
    for a in range(basis.size):
        alpha = member_to_subspace[a]
        p_full = tensor_product(structure.subspaces[alpha].projector, np.eye(nb))
        p_alpha = np.trace(p_full @ rho @ p_full).real
        if p_alpha < 1e-15:
            out.append((a, alpha, 0.0))
            continue
        projected = p_full @ rho @ p_full / p_alpha
        p_cond = np.vdot(basis.vectors[a], projected @ basis.vectors[a]).real
        out.append((a, alpha, p_alpha * p_cond))
    return out


def semilocal_measurement_branches(basis: OrthogonalBasis,
                                   rho: np.ndarray) -> list[tuple[float, int, np.ndarray]]:
    """Deterministic branch-weighted mode: all outcomes with weights and final states."""
    structure = semicausal_structure(basis, "A")
    probs = _branch_probabilities(basis, rho, structure)
    return [(p, a, proj(basis.vectors[a])) for a, _, p in probs]


def semilocal_measurement_map(basis: OrthogonalBasis):
    """The protocol's branch-averaged action as a linear map (for Choi comparison).

    Weights are computed through the two-stage route (subspace projection,
    then completion), so equality with the direct measurement channel is a
    genuine protocol check.
    """
    structure = semicausal_structure(basis, "A")
    na, nb = basis.dims
    member_to_subspace = {idx: k for k, s in enumerate(structure.subspaces)
                          for idx in s.member_indices}
    projectors = [tensor_product(s.projector, np.eye(nb)) for s in structure.subspaces]

    def act(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=complex))
        for a in range(basis.size):
            p_full = projectors[member_to_subspace[a]]
            projected = p_full @ x @ p_full
            weight = np.vdot(basis.vectors[a], projected @ basis.vectors[a])
            out += weight * proj(basis.vectors[a])
        return out

    return act


def _replacement_rotation(basis: OrthogonalBasis, structure: PartitionStructure,
                          alpha: int, a: int) -> np.ndarray:
    """B-side unitary turning the stock entangled pair into basis state ``a``.

    The stock pair entangles the subspace eigenbasis with the first B levels;
    the rotation maps those levels onto the state's relative B frames.
    """
    na, nb = basis.dims
    sub = structure.subspaces[alpha]
    d = sub.dim
    eigvals, eigvecs = np.linalg.eigh(sub.projector)
    frame_a = [eigvecs[:, k] for k in np.nonzero(eigvals > 0.5)[0]]
    mat = basis.vectors[a].reshape(na, nb)
    sources = [basis_vector(nb, i) for i in range(d)]
    targets = [np.sqrt(d) * (mat.T @ frame_a[i].conj()) for i in range(d)]
    return _frame_map_unitary(sources, targets, nb)


def _stock_pair(basis: OrthogonalBasis, structure: PartitionStructure, alpha: int) -> np.ndarray:
    na, nb = basis.dims
    sub = structure.subspaces[alpha]
    eigvals, eigvecs = np.linalg.eigh(sub.projector)
    frame_a = [eigvecs[:, k] for k in np.nonzero(eigvals > 0.5)[0]]
    vec = np.zeros(na * nb, dtype=complex)
    for i, fa in enumerate(frame_a):
        vec += tensor_product(fa.reshape(-1, 1), basis_vector(nb, i).reshape(-1, 1)).reshape(-1)
    return vec / np.sqrt(sub.dim)


def run_semilocal_measurement(basis: OrthogonalBasis, rho: np.ndarray,
                              seed: int = 0) -> SemilocalRun:
    """One sampled run of the one-way measurement protocol.

    Alice projects onto her subspace partition, swaps the system into an
    ancilla register, and ships it to Bob together with half of a stock
    entangled pair; Bob completes the measurement on the register and rotates
    the shared pair into the measured basis state. Outcome ``a`` occurs with
    probability <a|rho|a> and the final state is |a><a|; the trace contains
    only A-to-B communication.
    """
    rho = as_matrix(rho)
    structure = semicausal_structure(basis, "A")
    probs = _branch_probabilities(basis, rho, structure)
    weights = np.array([p for _, _, p in probs])
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError("input state is not normalized")
    rng = np.random.default_rng(seed)
    a = int(np.searchsorted(np.cumsum(weights), rng.uniform() * total))
    a = min(a, basis.size - 1)
    alpha = probs[a][1]

    trace = ProtocolTrace()
    trace.add("Alice", f"partial projection onto subspace {alpha}")
    trace.add("Alice", "prepare stock entangled pair and swap system into register")
    trace.add("Alice", "send register and pair half", comm_direction=A_TO_B,
              payload_kind="quantum")
    trace.add("Bob", "swap received register; complete the measurement on it")
    rotation = _replacement_rotation(basis, structure, alpha, a)
    stock = _stock_pair(basis, structure, alpha)
    final_vec = tensor_product(np.eye(basis.dims.dim_a), rotation) @ stock
    trace.add("Bob", "rotate shared pair into the measured basis state")
    trace.add("Bob", "discard register and outcome record")
    final = proj(final_vec)
    target = proj(basis.vectors[a])
    if frobenius(final - target) > 1e-8:
        raise RuntimeError("replacement rotation failed to reproduce the basis state")
    if not trace.one_way():
        raise RuntimeError("one-way protocol produced a return payload")
    return SemilocalRun(a, alpha, final, trace)


def direct_measurement_sample(basis: OrthogonalBasis, rho: np.ndarray,
                              seed: int = 0) -> tuple[int, np.ndarray]:
    """Optimized equivalent of the protocol: sample a directly, emit |a><a|.

    Uses the same single uniform draw against the outcome distribution, so a
    fixed seed yields the same outcome as the full protocol run.
    """
    rho = as_matrix(rho)
    weights = np.array([np.vdot(v, rho @ v).real for v in basis.vectors])
    rng = np.random.default_rng(seed)
    a = int(np.searchsorted(np.cumsum(weights), rng.uniform() * weights.sum()))
    a = min(a, basis.size - 1)
    return a, proj(basis.vectors[a])


def sample_semilocal_outcomes(basis: OrthogonalBasis, rho: np.ndarray, n: int,
                              seed: int = 0) -> np.ndarray:
    """Draw n outcomes from the protocol's two-stage outcome distribution."""
    structure = semicausal_structure(basis, "A")
    weights = np.array([p for _, _, p in _branch_probabilities(basis, as_matrix(rho), structure)])
    rng = np.random.default_rng(seed)
    return rng.choice(basis.size, size=n, p=weights / weights.sum())


# ---------------------------------------------------------------------------
# Bell decoherence from local circuits on a shared entangled ancilla
# ---------------------------------------------------------------------------

def _cnot(n: int, control: int, target: int) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    mats0 = [I2] * n
    mats0[control] = p0
    mats1 = [I2] * n
    mats1[control] = p1
    mats1[target] = PAULI_X
    return kron_all(*mats0) + kron_all(*mats1)


@functools.cache
def _copy_circuit() -> np.ndarray:
    """The four local parity/phase-copy CNOTs on qubits (A, B, R, S, R', S')."""
    n = 6
    return _cnot(n, 5, 1) @ _cnot(n, 4, 0) @ _cnot(n, 1, 3) @ _cnot(n, 0, 2)


def bell_circuit_channel() -> KrausChannel:
    """The channel induced on a qubit pair by the two parity-copy circuits.

    Each party holds half of two stock Bell pairs. The first circuit copies
    the pair's parity bit onto one ancilla pair with two local CNOTs, the
    second copies the phase bit onto the other; tracing the ancillas out
    leaves exactly decoherence in the Bell basis.
    """
    phi = bell_states()[0]
    anc = kron_all(phi.reshape(-1, 1), phi.reshape(-1, 1)).reshape(-1)
    w = (_copy_circuit().reshape(4, 16, 4, 16) @ anc).reshape(4, 16, 4)
    kraus = tuple(w[:, k, :] for k in range(16))
    return KrausChannel(kraus, BiDims(2, 2))


# ---------------------------------------------------------------------------
# Bell measurement by swapping entanglement into collected ancillas
# ---------------------------------------------------------------------------

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class SwapResult:
    bell_outcome: str
    pauli_record: dict
    final_ab: np.ndarray
    trace: ProtocolTrace


def _bell_bit_values(index: int) -> tuple[int, int]:
    """(parity, phase) eigenvalues, each +-1, of the Bell state at ``index``."""
    parity = 1 if index < 2 else -1
    phase = 1 if index in (0, 2) else -1
    return parity, phase


def _bell_index(parity: int, phase: int) -> int:
    return {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}[(parity, phase)]


def entanglement_swap_demo(input_ab: np.ndarray, seed: int = 0) -> SwapResult:
    """Bell measurement on a product pair realized by measuring collected ancillas.

    Each party copies their qubit's parity onto a fresh |0> ancilla and its
    phase onto a fresh |+> ancilla with local CNOTs, and the ancillas are
    measured pairwise in the Bell basis (one ancilla from each party per
    pair). The first measurement yields the pair's true parity bit plus a
    random phase outcome; the second yields the phase bit flipped by that
    stray outcome, plus a random parity outcome. The two stray bits identify
    a known Pauli error on the leftover pair; undoing it leaves exactly the
    Bell projection of the input, with Born-rule statistics.
    """
    vec = normalize(as_vector(input_ab))
    if vec.shape != (4,):
        raise ValueError("input must be a two-qubit state vector")
    mat = vec.reshape(2, 2)
    if np.linalg.matrix_rank(mat, tol=1e-9) != 1:
        raise ValueError("input must be a product state")
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    state = kron_all(vec.reshape(-1, 1), basis_vector(2, 0).reshape(-1, 1),
                     basis_vector(2, 0).reshape(-1, 1), plus.reshape(-1, 1),
                     plus.reshape(-1, 1)).reshape(-1)
    trace = ProtocolTrace()
    trace.add("Alice", "copy parity onto ancilla R, phase onto ancilla R'")
    trace.add("Bob", "copy parity onto ancilla S, phase onto ancilla S'")
    state = _copy_circuit() @ state
    trace.add("Alice", "mail ancillas R, R' to the measurement lab", comm_direction=A_TO_B,
              payload_kind="quantum")
    trace.add("Bob", "hand ancillas S, S' to the measurement lab")

    rng = np.random.default_rng(seed)
    bells = bell_states()
    outcome_rs, state = _measure_bell_pair(state, (2, 3), bells, rng)
    outcome_rr, state = _measure_bell_pair(state, (4, 5), bells, rng)
    trace.add("Bob", f"Bell outcomes {BELL_LABELS[outcome_rs]} on RS, "
                     f"{BELL_LABELS[outcome_rr]} on R'S'")

    parity_rs, phase_rs = _bell_bit_values(outcome_rs)
    parity_rr, phase_rr = _bell_bit_values(outcome_rr)
    # projection outcome: true parity from RS, phase from R'S' undone by the
    # stray RS phase; the stray bits name the Pauli error on the leftover pair
    ab_parity = parity_rs
    ab_phase = phase_rs * phase_rr
    phase_flip = phase_rs == -1
    parity_flip = parity_rr == -1
    correction = np.eye(2, dtype=complex)
    if parity_flip:
        correction = PAULI_X @ correction
    if phase_flip:
        correction = PAULI_Z @ correction
    label = {(False, False): "I", (False, True): "X",
             (True, False): "Z", (True, True): "ZX"}[(phase_flip, parity_flip)]
    raw_ab = _contract_ancillas(state, bells[outcome_rs], bells[outcome_rr])
    final_ab = tensor_product(correction, np.eye(2, dtype=complex)) @ raw_ab
    return SwapResult(
        BELL_LABELS[_bell_index(ab_parity, ab_phase)],
        {"correction_on_a": label, "stray_phase_flip": phase_flip,
         "stray_parity_flip": parity_flip},
        proj(final_ab),
        trace,
    )


def _measure_bell_pair(state: np.ndarray, pair: tuple[int, int], bells,
                       rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Project two adjacent qubits onto the Bell basis, sampling the outcome."""
    q = pair[0]
    left = 2 ** q
    right = 2 ** (6 - q - 2)
    probs = []
    collapsed = []
    t = state.reshape(left, 4, right)
    for b in bells:
        amp = np.einsum("ijk,j->ik", t, b.conj())
        p = float(np.vdot(amp, amp).real)
        probs.append(p)
        collapsed.append(np.einsum("ik,j->ijk", amp, b).reshape(-1))
    probs_arr = np.array(probs)
    outcome = int(rng.choice(4, p=probs_arr / probs_arr.sum()))
    return outcome, collapsed[outcome] / np.sqrt(probs_arr[outcome])


def _contract_ancillas(state: np.ndarray, bell_rs: np.ndarray,
                       bell_rr: np.ndarray) -> np.ndarray:
    t = state.reshape(4, 4, 4)
    ab = np.einsum("ijk,j,k->i", t, bell_rs.conj(), bell_rr.conj())
    return normalize(ab)


# ---------------------------------------------------------------------------
# One-way classical protocol for the twisted quadrant basis
# ---------------------------------------------------------------------------

_PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)


def _quadrant_projectors() -> list[np.ndarray]:
    p = np.zeros((2, 4, 4), dtype=complex)
    p[0, :2, :2] = np.eye(2)
    p[1, 2:, 2:] = np.eye(2)
    return [p[0], p[1]]


def twisted_partition_protocol_kraus(u_b: np.ndarray) -> KrausChannel:
    """Branch-averaged channel of the one-way classical quadrant protocol.

    Branches: Alice's row projection, Bob's column projection, and the shared
    random Pauli; Bob conjugates his Pauli by the twist exactly on the
    twisted quadrant. One Kraus operator per branch.
    """
    u_b = as_matrix(u_b)
    if not is_unitary(u_b) or u_b.shape != (2, 2):
        raise ValueError("u_b must be a 2x2 unitary")
    blocks = _quadrant_projectors()
    kraus = []
    for alpha in range(2):
        for beta in range(2):
            for sigma in _PAULIS:
                a_op = kron_all(I2, sigma)
                bob_sigma = u_b @ sigma @ dag(u_b) if (alpha, beta) == (1, 1) else sigma
                b_op = kron_all(I2, bob_sigma)
                k = tensor_product(a_op, b_op) @ tensor_product(blocks[alpha], blocks[beta])
                kraus.append(k / 2)
    return KrausChannel(tuple(kraus), BiDims(4, 4))


@dataclass(frozen=True)
class TwistedRun:
    final_state: np.ndarray
    trace: ProtocolTrace
    row: int
    column: int


def run_twisted_partition_protocol(u_b: np.ndarray, rho: np.ndarray,
                                   seed: int = 0) -> TwistedRun:
    """One sampled run of the quadrant protocol with one classical bit A to B.

    Alice measures her row and sends the outcome with a shared randomness
    table; Bob measures his column, now knows the quadrant, and both apply
    the table's Pauli, Bob's conjugated by the twist on the twisted quadrant.
    """
    u_b = as_matrix(u_b)
    rho = as_matrix(rho)
    if rho.shape != (16, 16):
        raise ValueError("state must live on the 4x4 bipartite space")
    blocks = _quadrant_projectors()
    rng = np.random.default_rng(seed)
    trace = ProtocolTrace()

    probs_row = [np.trace(tensor_product(blocks[r], np.eye(4)) @ rho).real for r in range(2)]
    row = int(rng.choice(2, p=np.array(probs_row) / sum(probs_row)))
    p_row = tensor_product(blocks[row], np.eye(4))
    rho = p_row @ rho @ p_row / probs_row[row]
    trace.add("Alice", f"partial measurement: row {row}")
    trace.add("Alice", "send row bit and randomness table", comm_direction=A_TO_B,
              payload_kind="classical")

    probs_col = [np.trace(tensor_product(np.eye(4), blocks[c]) @ rho).real for c in range(2)]
    col = int(rng.choice(2, p=np.array(probs_col) / sum(probs_col)))
    p_col = tensor_product(np.eye(4), blocks[col])
    rho = p_col @ rho @ p_col / probs_col[col]
    trace.add("Bob", f"partial measurement: column {col}")

    sigma = _PAULIS[int(rng.integers(4))]
    bob_sigma = u_b @ sigma @ dag(u_b) if (row, col) == (1, 1) else sigma
    op = tensor_product(kron_all(I2, sigma), kron_all(I2, bob_sigma))
    rho = op @ rho @ dag(op)
    trace.add("Alice", "apply the table Pauli inside her row")
    trace.add("Bob", "apply the table Pauli, conjugated by the twist on the twisted quadrant")
    if not trace.one_way():
        raise RuntimeError("one-way protocol produced a return payload")
    return TwistedRun(rho, trace, row, col)
