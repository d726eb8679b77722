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
    PAULIS,
    BiDims,
    alignment_unitary,
    as_matrix,
    basis_vector,
    dag,
    is_unitary,
    tensor_product,
)
from .measurements import (
    _BELL_UNITARIES,
    OrthogonalBasis,
    Subspace,
    _blocks,
    bell_states,
    semicausal_structure,
)
from .twirl import cell_twirl_kraus


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
    label = ("I", "Z", "X", "ZX")[2 * parity_flip + phase_flip]  # Z^phase X^parity
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
    # Z^phase X^parity is the Bell cell's unitary 2 * parity + phase (swap_outcome's bits)
    o1, o2 = np.divmod(np.arange(16), 4)
    corrections = [tensor_product(c, I2) for c in _BELL_UNITARIES[2 * (o2 // 2) + o1 % 2]]
    return KrausChannel(np.stack(corrections) @ raw, BiDims(2, 2))


# ---------------------------------------------------------------------------
# One-way classical protocol for the twisted quadrant basis
# ---------------------------------------------------------------------------


def twisted_partition_protocol_kraus(u_b: np.ndarray) -> KrausChannel:
    """Branch-averaged channel of the one-way classical quadrant protocol.

    Alice measures her row and sends it to Bob, who measures his column; both
    apply the shared random Pauli, Bob's conjugated by the twist exactly on
    the twisted quadrant: the quadrant grid's cell twirl with Bob's Pauli group
    chosen by Alice's row, which is why she sends it. Branch
    ``8 * row + 4 * column + pauli`` is one Kraus operator, with the Paulis in
    the order of ``linalg.PAULIS``.
    """
    u_b = as_matrix(u_b)
    if not is_unitary(u_b) or u_b.shape != (2, 2):
        raise ValueError("u_b must be a 2x2 unitary")
    paulis = np.stack(list(PAULIS.values()))
    bob = np.broadcast_to(paulis[:, None, None], (4, 2, 2, 2, 2)).copy()  # (g, row, column)
    bob[:, 1, 1] = u_b @ paulis @ dag(u_b)
    quadrants = _blocks(4, 2)
    kraus = cell_twirl_kraus(quadrants, paulis, quadrants, bob)  # (pauli, row, column, ...)
    return KrausChannel(np.moveaxis(kraus, 0, 2).reshape(16, 16, 16), BiDims(4, 4))
