"""Protocols as channels: each protocol's branches are one channel's Kraus operators.

A protocol implements its target superoperator iff its channel is at
``channel_distance`` zero from the target, so every protocol here is checked
by one exact distance, with no sampling. The one-way protocols are written in
factored form, with Alice's factor acting on A alone, so the form itself
shows which way communication goes. :func:`sample_branch` draws one branch of
a protocol run for the demonstrations.
"""

from __future__ import annotations

import functools

import numpy as np

from .channels import KrausChannel
from .linalg import (
    I2,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    BiDims,
    alignment_unitary,
    as_matrix,
    basis_vector,
    dag,
    is_unitary,
    tensor_product,
)
from .measurements import OrthogonalBasis, Subspace, _blocks, bell_states, semicausal_structure


def branch_weights(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """The probability ``tr(K rho K^dag)`` of each branch on the input ``rho``."""
    weights = np.einsum("kij,kij->k", ch.kraus @ as_matrix(rho), ch.kraus.conj()).real
    return np.clip(weights, 0.0, None)


def sample_branch(ch: KrausChannel, rho: np.ndarray, rng: np.random.Generator) -> int:
    """One Kraus index of ``ch``, drawn with weight ``tr(K rho K^dag)``."""
    weights = branch_weights(ch, rho)
    return int(rng.choice(len(weights), p=weights / weights.sum()))


# ---------------------------------------------------------------------------
# One-way measurement protocol for bases passing the pairwise criterion
# ---------------------------------------------------------------------------

def _stock_pair(subspace: Subspace, dims: BiDims) -> np.ndarray:
    """The pair ``sum_i |f_i>|i> / sqrt(d)`` over the eigenbasis ``f`` of the
    subspace, as an (A', P) matrix."""
    eigvals, eigvecs = np.linalg.eigh(subspace.projector)
    frame = eigvecs[:, eigvals > 0.5]
    pair = np.zeros(dims, dtype=complex)
    pair[:, :frame.shape[1]] = frame / np.sqrt(frame.shape[1])
    return pair


def semilocal_channel(basis: OrthogonalBasis) -> KrausChannel:
    """The one-way A-to-B protocol measuring a basis that blocks B-to-A signaling.

    Alice projects A onto the subspace alpha of the partition, moves the
    system into a register R and prepares the stock pair on A' (x) P:
    ``F_alpha = |Phi_alpha>_{A'P} (x) P_alpha^{A->R}``. She sends R and P to
    Bob, who measures R (x) B in the basis and rotates P into his output:
    ``G_a = V_a^{P->B} (x) <a|_{RB}``. Branch ``a`` (Kraus index ``a``) is
    ``K_a = (I_A' (x) G_a)(F_alpha (x) I_B)``; Alice's factor acts on A alone
    and depends only on alpha, so only A-to-B communication is used.
    """
    subspaces = semicausal_structure(basis, "A")
    na, nb = basis.dims
    alpha_of = {idx: k for k, s in enumerate(subspaces) for idx in s.member_indices}
    pairs = [_stock_pair(s, basis.dims) for s in subspaces]
    outcomes = range(basis.size)
    phi = np.stack([pairs[alpha_of[a]] for a in outcomes])  # (k, A', P)
    p = np.stack([subspaces[alpha_of[a]].projector for a in outcomes])  # (k, R, A)
    states = basis.vectors.reshape(-1, na, nb)
    # the stock pair and basis state a, as (A, B) matrices, have the same reduced
    # state on A, so the alignment unitary on the second index turns one into the other
    v = np.stack([alignment_unitary(phi[a].T, states[a].T) for a in outcomes])  # (k, B', P)
    bra = states.conj()  # (k, R, B)
    k = np.einsum("kxp,kra,kyp,krb->kxyab", phi, p, v, bra, optimize=True)
    return KrausChannel(k.reshape(basis.size, na * nb, na * nb), basis.dims)


# ---------------------------------------------------------------------------
# Bell decoherence and Bell measurement from local circuits on ancillas
# ---------------------------------------------------------------------------

def _cnot(n: int, control: int, target: int) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    mats0 = [I2] * n
    mats0[control] = p0
    mats1 = [I2] * n
    mats1[control] = p1
    mats1[target] = PAULI_X
    return tensor_product(*mats0) + tensor_product(*mats1)


@functools.cache
def _copy_circuit() -> np.ndarray:
    """The four local parity/phase-copy CNOTs on qubits (A, B, R, S, R', S')."""
    n = 6
    return _cnot(n, 5, 1) @ _cnot(n, 4, 0) @ _cnot(n, 1, 3) @ _cnot(n, 0, 2)


def _copy_isometry(ancillas: np.ndarray) -> np.ndarray:
    """The copy circuit on a fixed ancilla state, indexed (AB out, RS, R'S', AB in)."""
    return (_copy_circuit().reshape(64, 4, 16) @ ancillas).reshape(4, 4, 4, 4)


def bell_circuit_channel() -> KrausChannel:
    """The channel induced on a qubit pair by the two parity-copy circuits.

    Each party holds half of two stock Bell pairs. The first circuit copies
    the pair's parity bit onto one ancilla pair with two local CNOTs, the
    second copies the phase bit onto the other; tracing the ancillas out
    leaves exactly decoherence in the Bell basis.
    """
    phi = bell_states()[0]
    w = _copy_isometry(np.kron(phi, phi)).reshape(4, 16, 4)
    return KrausChannel(tuple(w[:, k, :] for k in range(16)), BiDims(2, 2))


BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def swap_outcome(branch: int) -> tuple[int, dict]:
    """Bell index and correction record of swap branch ``4 * o1 + o2``.

    Bell index ``2 * parity + phase`` in bits. Outcome o1 on RS carries the
    pair's parity and a stray phase bit; o2 on R'S' carries the phase flipped
    by that stray bit, plus a stray parity bit. The stray bits name the Pauli
    error on the leftover pair.
    """
    o1, o2 = divmod(branch, 4)
    phase_flip, parity_flip = bool(o1 % 2), bool(o2 // 2)
    label = {(False, False): "I", (False, True): "X",
             (True, False): "Z", (True, True): "ZX"}[(phase_flip, parity_flip)]
    record = {"correction_on_a": label, "stray_phase_flip": phase_flip,
              "stray_parity_flip": parity_flip}
    return 2 * (o1 // 2) + (o1 + o2) % 2, record


def entanglement_swap_channel() -> KrausChannel:
    """Bell measurement realized by measuring collected ancillas, one branch per outcome pair.

    Each party copies their qubit's parity onto a fresh |0> ancilla and its
    phase onto a fresh |+> ancilla with local CNOTs (W), and the ancillas are
    measured pairwise in the Bell basis, RS with outcome o1 and R'S' with o2.
    Branch ``4 * o1 + o2`` is ``(C (x) I) <b_o1|_{RS} <b_o2|_{R'S'} W`` with the
    Pauli correction C of :func:`swap_outcome`; it leaves the input's Bell
    projection, so the channel is the Bell measurement.
    """
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    w = _copy_isometry(tensor_product(basis_vector(2, 0), basis_vector(2, 0), plus, plus))
    bells = np.stack(bell_states()).conj()
    raw = np.einsum("xrsy,ir,js->ijxy", w, bells, bells, optimize=True).reshape(16, 4, 4)
    corrections = []
    for branch in range(16):
        record = swap_outcome(branch)[1]
        c = ((PAULI_Z if record["stray_phase_flip"] else I2)
             @ (PAULI_X if record["stray_parity_flip"] else I2))
        corrections.append(tensor_product(c, I2))
    return KrausChannel(np.stack(corrections) @ raw, BiDims(2, 2))


# ---------------------------------------------------------------------------
# One-way classical protocol for the twisted quadrant basis
# ---------------------------------------------------------------------------


def twisted_partition_protocol_kraus(u_b: np.ndarray) -> KrausChannel:
    """Branch-averaged channel of the one-way classical quadrant protocol.

    Alice measures her row and sends it to Bob, who measures his column; both
    apply the shared random Pauli, Bob's conjugated by the twist exactly on
    the twisted quadrant. Branch ``8 * row + 4 * column + pauli`` is one Kraus
    operator, with the Paulis in the order of ``linalg.PAULIS``.
    """
    u_b = as_matrix(u_b)
    if not is_unitary(u_b) or u_b.shape != (2, 2):
        raise ValueError("u_b must be a 2x2 unitary")
    quadrants = _blocks(4, 2)
    blocks = quadrants @ quadrants.transpose(0, 2, 1)  # each side's two block projectors
    kraus = []
    for alpha in range(2):
        for beta in range(2):
            for sigma in PAULIS.values():
                a_op = tensor_product(I2, sigma)
                bob_sigma = u_b @ sigma @ dag(u_b) if (alpha, beta) == (1, 1) else sigma
                b_op = tensor_product(I2, bob_sigma)
                k = tensor_product(a_op, b_op) @ tensor_product(blocks[alpha], blocks[beta])
                kraus.append(k / 2)
    return KrausChannel(tuple(kraus), BiDims(4, 4))
