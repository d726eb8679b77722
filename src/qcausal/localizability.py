"""Necessary-condition tests for implementability without communication.

Two obstructions are implemented. The eigenstate-closure test: for a channel
implementable by spacelike-separated parties with shared entanglement, if
psi, (a (x) I) psi and (I (x) b) psi are all eigenstates (a, b invertible),
then (a (x) b) psi must be one too. The projective-group test: a maximally
entangled basis measurement implementable that way must have its defining
unitaries closed under multiplication up to phase.

Both are necessary conditions only: a certificate proves non-localizability,
absence of one proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel, apply_to_vector, measurement_channel
from .linalg import (
    ATOL,
    BiDims,
    alignment_unitary,
    as_matrix,
    as_vector,
    dag,
    frobenius,
    is_unitary,
    max_entangled,
    min_singular_value,
    normalize,
    proj,
    tensor_product,
)
from .measurements import OrthogonalBasis, bell_states, causal_structure

EIGENSTATE_CLOSURE = "EigenstateClosure"
PROJECTIVE_GROUP = "ProjectiveGroup"


class PreconditionError(ValueError):
    """A test premise failed; the test outcome carries no information."""


@dataclass(frozen=True)
class ObstructionCertificate:
    kind: str
    evidence: dict
    residual: float


@dataclass(frozen=True)
class MEBasisUnitaries:
    """Unitaries defining a maximally entangled basis, one per basis state in
    basis order, anchor-aligned so the anchor's element is the identity; they
    satisfy tr(U_a^dag U_b) = d delta_ab."""

    unitaries: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return self.unitaries[0].shape[0]


def is_eigenstate(ch: KrausChannel, psi: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the channel maps |psi><psi| to itself (unit vector input)."""
    vec = as_vector(psi)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ValueError("eigenstate check needs a unit vector")
    out = apply_to_vector(ch, vec)
    return frobenius(out - proj(vec)) < tol * ch.dim


def eigenstate_closure_test(ch: KrausChannel, psi: np.ndarray, a: np.ndarray,
                            b: np.ndarray, tol: float = ATOL) -> ObstructionCertificate | None:
    """Closure obstruction for a channel with eigenstate psi and local moves a, b.

    Premises (each failure reported distinctly): a and b invertible; psi,
    the normalized (a (x) I) psi and (I (x) b) psi all eigenstates. Returns a
    certificate iff the normalized (a (x) b) psi is NOT an eigenstate; no
    certificate means no conclusion.
    """
    na, nb = ch.dims
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != (na, na) or b.shape != (nb, nb):
        raise PreconditionError("local operators must match the local dimensions")
    if min_singular_value(a) <= 1e-9:
        raise PreconditionError("operator on side A is not invertible")
    if min_singular_value(b) <= 1e-9:
        raise PreconditionError("operator on side B is not invertible")
    vec = normalize(psi)
    if not is_eigenstate(ch, vec, tol):
        raise PreconditionError("psi is not an eigenstate")
    moved_a = normalize(tensor_product(a, np.eye(nb)) @ vec)
    if not is_eigenstate(ch, moved_a, tol):
        raise PreconditionError("(a x I) psi is not an eigenstate")
    moved_b = normalize(tensor_product(np.eye(na), b) @ vec)
    if not is_eigenstate(ch, moved_b, tol):
        raise PreconditionError("(I x b) psi is not an eigenstate")
    joint = normalize(tensor_product(a, b) @ vec)
    out = apply_to_vector(ch, joint)
    residual = frobenius(out - proj(joint))
    if residual < tol * ch.dim:
        return None
    return ObstructionCertificate(
        EIGENSTATE_CLOSURE,
        {"psi": vec, "a": a, "b": b, "joint_state": joint},
        float(residual),
    )


def generalized_pauli(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift and clock matrices: X|i> = |i+1 mod d>, Z|i> = w^i |i>, ZX = w XZ."""
    if d < 2:
        raise ValueError("d must be >= 2")
    x = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    return x, z


def me_basis_from_unitaries(unitaries: Sequence[np.ndarray]) -> OrthogonalBasis:
    """The maximally entangled basis {(U_a (x) I) |Phi+>} on d x d."""
    d = as_matrix(unitaries[0]).shape[0]
    phi = max_entangled(d, normalized=True)
    eye = np.eye(d, dtype=complex)
    vecs = tuple(tensor_product(as_matrix(u), eye) @ phi for u in unitaries)
    return OrthogonalBasis(vecs, BiDims(d, d))


def twisted_partition_basis(u_b: np.ndarray) -> OrthogonalBasis:
    """The 4x4 quadrant basis: Bell states in each 2x2 quadrant, with the
    lower-right quadrant's states rotated by (I (x) u_b) inside B's second block.

    For u_b a Pauli (up to phase) the rotated quadrant is the plain Bell set
    again; any other unitary leaves the basis causal but obstructs
    zero-communication implementation.
    """
    u_b = as_matrix(u_b)
    if u_b.shape != (2, 2) or not is_unitary(u_b):
        raise ValueError("u_b must be a 2x2 unitary")
    dims = BiDims(4, 4)
    vecs: list[np.ndarray] = []
    for row in (0, 2):
        for col in (0, 2):
            quadrant = [_embed_pair_state(s, row, col) for s in bell_states()]
            if (row, col) == (2, 2):
                rot = tensor_product(np.eye(4, dtype=complex),
                                     _block_embed(u_b, 1))
                quadrant = [rot @ v for v in quadrant]
            vecs.extend(quadrant)
    return OrthogonalBasis(tuple(vecs), dims)


def _embed_pair_state(state: np.ndarray, row: int, col: int) -> np.ndarray:
    """Embed a two-qubit state into the (row, col) quadrant of the 4x4 space."""
    v = np.zeros(16, dtype=complex)
    for i in range(2):
        for j in range(2):
            v[(row + i) * 4 + (col + j)] = state[i * 2 + j]
    return v


def _block_embed(u: np.ndarray, block: int) -> np.ndarray:
    """Embed a 2x2 operator into block 0 (indices 0,1) or 1 (indices 2,3) of C^4."""
    out = np.eye(4, dtype=complex)
    lo = 2 * block
    out[lo:lo + 2, lo:lo + 2] = u
    return out


def extract_unitaries(basis: OrthogonalBasis, tol: float = ATOL) -> MEBasisUnitaries:
    """Recover the defining unitaries of a maximally entangled d x d basis.

    The element with the largest overlap with the unnormalized reference pair
    state is the anchor; both local bases are re-aligned to its Schmidt frames
    so the anchor becomes the reference state and its unitary the identity.
    Each unitary is sqrt(d) times the reshaped, re-aligned vector, kept at its
    basis state's index.
    """
    na, nb = basis.dims
    if na != nb:
        raise ValueError("maximally entangled bases need equal local dimensions")
    d = na
    scale = max(1.0, d * d)
    rows = np.stack(basis.vectors)
    s = np.linalg.svd(rows.reshape(-1, d, d), compute_uv=False)
    entangled = np.all(np.abs(s - 1 / np.sqrt(d)) <= tol * scale, axis=1)
    if not entangled.all():
        raise ValueError(f"basis state {int(np.argmin(entangled))} is not maximally entangled")
    phi_un = max_entangled(d, normalized=False)
    anchor = int(np.argmax([abs(np.vdot(phi_un, v)) for v in basis.vectors]))
    w_a, _, vh = np.linalg.svd(basis.vectors[anchor].reshape(d, d))
    frame = tensor_product(dag(w_a), vh.conj())
    stack = np.stack([np.sqrt(d) * (frame @ v).reshape(d, d) for v in basis.vectors])
    unitary = np.linalg.norm(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d),
                             axis=(1, 2)) < 1e-8 * d
    if not unitary.all():
        raise ValueError(f"extracted operator {int(np.argmin(unitary))} is not unitary")
    if frobenius(_gram(stack) - d * np.eye(d * d)) > 1e-7 * d * d:
        raise ValueError("extracted unitaries violate the trace-orthogonality condition")
    return MEBasisUnitaries(tuple(stack))


def _gram(stack: np.ndarray) -> np.ndarray:
    """The table tr(U_i^dag U_j) of a (n, d, d) stack of operators."""
    return np.einsum("iab,jab->ij", stack.conj(), stack)


def projective_group_test(us: MEBasisUnitaries,
                          tol: float = ATOL) -> ObstructionCertificate | None:
    """Check closure of the basis unitaries under multiplication up to phase.

    Proportionality is decided by |tr(W^dag U V)| = d, taken for every W and
    every ordered pair (U, V) as one (n, n * n) table. Returns the first pair
    (in row-major index order) whose product matches no member; such a pair
    certifies that the basis measurement cannot be implemented without
    communication. Requires trace-orthogonality and an identity member.
    """
    stack = np.stack(us.unitaries)
    n, d = len(stack), us.d
    if frobenius(_gram(stack) - d * np.eye(n)) > 1e-7 * d * n:
        raise PreconditionError("unitaries violate the trace-orthogonality condition")
    if not np.any(np.abs(np.trace(stack, axis1=1, axis2=2)) > d - 1e-7):
        raise PreconditionError("no member is proportional to the identity")
    products = (stack[:, None] @ stack[None, :]).reshape(n * n, d * d)
    best = np.abs(stack.reshape(n, d * d).conj() @ products.T).max(axis=0)
    failing = np.flatnonzero(best < d - tol * d)
    if failing.size == 0:
        return None
    i, j = divmod(int(failing[0]), n)
    product = us.unitaries[i] @ us.unitaries[j]
    # the reported residual repeats the per-pair traces, so it does not depend on
    # how the table above was summed
    best_ij = max(abs(np.trace(dag(w) @ product)) for w in us.unitaries)
    return ObstructionCertificate(
        PROJECTIVE_GROUP,
        {"pair": (i, j), "product": product},
        float(d - best_ij),
    )


def mismatch_basis() -> OrthogonalBasis:
    """A 4x4 maximally entangled basis whose unitaries are NOT projectively closed.

    Rows one to three are shift-and-clock products; the fourth row replaces the
    clock factors with the diagonal sign matrices diag(1,1,-1,-1) and
    diag(1,-1,1,-1), keeping orthogonality but breaking group closure.
    """
    return me_basis_from_unitaries(mismatch_unitaries())


def mismatch_unitaries() -> list[np.ndarray]:
    x, z = generalized_pauli(4)
    z_tilde = np.diag([1, 1, -1, -1]).astype(complex)
    z2 = z @ z
    x3 = x @ x @ x
    rows = [
        [np.eye(4, dtype=complex), z, z2, z @ z2],
        [x, x @ z, x @ z2, x @ z @ z2],
        [x @ x, x @ x @ z, x @ x @ z2, x @ x @ z @ z2],
        [x3, x3 @ z_tilde, x3 @ z2, x3 @ z_tilde @ z2],
    ]
    return [u for row in rows for u in row]


def closure_obstruction_search(basis: OrthogonalBasis,
                               tol: float = ATOL) -> ObstructionCertificate | None:
    """Search a fully causal basis for an eigenstate-closure obstruction.

    Probes are built from the causal grid: shifting one basis state of a cell
    to the neighboring cell in its row or column is a local invertible move
    between eigenstates, so closure requires the diagonal shift to land on an
    eigenstate too. Returns the first certificate found, or nothing.
    """
    grid = causal_structure(basis, tol)
    if grid.r_a < 2 or grid.r_b < 2:
        return None
    ch = measurement_channel(basis)
    for alpha2 in range(1, grid.r_a):
        for beta2 in range(1, grid.r_b):
            for u_idx in grid.cells[0][0]:
                for a_idx in grid.cells[alpha2][0]:
                    for b_idx in grid.cells[0][beta2]:
                        move_a = _cell_shift(basis, u_idx, a_idx, "A")
                        move_b = _cell_shift(basis, u_idx, b_idx, "B")
                        cert = eigenstate_closure_test(ch, basis.vectors[u_idx],
                                                       move_a, move_b, tol)
                        if cert is not None:
                            return cert
    return None


def _cell_shift(basis: OrthogonalBasis, src_idx: int, dst_idx: int, side: str) -> np.ndarray:
    """A local unitary mapping basis state src to dst, acting on ``side`` only.

    Both states share the other side's cell, so they have the same reduced
    state there and a local unitary on ``side`` maps one onto the other; the
    alignment unitary on ``side``'s index is that map on the source's support.
    """
    src, dst = (basis.vectors[k].reshape(basis.dims) for k in (src_idx, dst_idx))
    if side == "B":
        src, dst = src.T, dst.T
    return alignment_unitary(src, dst)
