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
    frobenius_norms,
    is_unitary,
    min_singular_value,
    normalize,
    proj,
    tensor_product,
)
from .measurements import _BELL_UNITARIES, CausalGrid, OrthogonalBasis, _blocks, cell_states

EIGENSTATE_CLOSURE = "EigenstateClosure"
PROJECTIVE_GROUP = "ProjectiveGroup"
# Not --tol: a premise on the argument, and every caller in the package normalizes first.
UNIT_NORM_TOL = 1e-9
# Not --tol: a premise of the obstruction, and the closure search hands in unitaries only.
INVERTIBLE_CUTOFF = 1e-9
# Not --tol: checks the grid's own frames, per d; bases accepted at a larger --tol can fail it.
UNITARY_TOL = 1e-8
# Not --tol: premises of the group test, set loose so that rounding never trips them.
GROUP_PREMISE_TOL = 1e-7


class PreconditionError(ValueError):
    """A test premise failed; the test outcome carries no information."""


@dataclass(frozen=True)
class ObstructionCertificate:
    kind: str
    evidence: dict
    residual: float


def is_eigenstate(ch: KrausChannel, psi: np.ndarray, tol: float = ATOL) -> bool:
    """True iff the channel maps |psi><psi| to itself (unit vector input)."""
    vec = as_vector(psi)
    if abs(np.linalg.norm(vec) - 1.0) > UNIT_NORM_TOL:
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
    if min_singular_value(a) <= INVERTIBLE_CUTOFF:
        raise PreconditionError("operator on side A is not invertible")
    if min_singular_value(b) <= INVERTIBLE_CUTOFF:
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
    """The maximally entangled basis {(U_a (x) I) |Phi+>} on d x d: one cell
    with identity frames."""
    stack = np.stack([as_matrix(u) for u in unitaries])
    eye = np.eye(stack.shape[-1])
    return OrthogonalBasis(cell_states(eye, stack, eye), BiDims(*eye.shape))


def twisted_partition_basis(u_b: np.ndarray) -> OrthogonalBasis:
    """The 4x4 quadrant basis: a Bell cell in each 2x2 quadrant, with the
    lower-right quadrant's states rotated by (I (x) u_b) inside B's second block.

    For u_b a Pauli (up to phase) the rotated quadrant is the plain Bell set
    again; any other unitary leaves the basis causal but obstructs
    zero-communication implementation.
    """
    u_b = as_matrix(u_b)
    if u_b.shape != (2, 2) or not is_unitary(u_b):
        raise ValueError("u_b must be a 2x2 unitary")
    # (I (x) u_b) vec(M) = vec(M u_b^T), so the twist right-multiplies the cell unitaries
    cells = np.stack([_BELL_UNITARIES] * 3 + [_BELL_UNITARIES @ u_b.T]).reshape(2, 2, 4, 2, 2)
    quadrants = _blocks(4, 2)
    states = cell_states(quadrants[:, None, None], cells, quadrants[None, :, None])
    return OrthogonalBasis(states.reshape(16, 16), BiDims(4, 4))


def extract_unitaries(grid: CausalGrid) -> np.ndarray:
    """The defining unitaries of a maximally entangled d x d basis.

    They are the cell unitaries of its one-cell causal grid
    (:func:`causal_structure`), a read-only (n, d, d) stack in basis order,
    the anchor's the identity. Their trace-orthogonality is the premise that
    :func:`projective_group_test` checks.
    """
    if grid.r_a != 1 or grid.r_b != 1:
        raise ValueError(f"basis is not maximally entangled ({grid.r_a} x {grid.r_b} "
                         f"cells of dimension {grid.d})")
    stack, d = grid.unitaries, grid.d
    deviations = frobenius_norms(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d), (1, 2))
    unitary = deviations < UNITARY_TOL * d
    if not unitary.all():
        raise ValueError(f"extracted operator {int(np.argmin(unitary))} is not unitary")
    return stack


def projective_group_test(stack: np.ndarray,
                          tol: float = ATOL) -> ObstructionCertificate | None:
    """Check closure of the basis unitaries under multiplication up to phase.

    Proportionality is decided by |tr(W^dag U V)| = d, taken for every W and
    every ordered pair (U, V) as one (n, n * n) table. Returns the first pair
    (in row-major index order) whose product matches no member; such a pair
    certifies that the basis measurement cannot be implemented without
    communication. ``stack`` is (n, d, d); requires trace-orthogonality and an
    identity member.
    """
    n, d = len(stack), stack.shape[1]
    gram = np.einsum("iab,jab->ij", stack.conj(), stack)  # tr(U_i^dag U_j)
    if not frobenius(gram - d * np.eye(n)) <= GROUP_PREMISE_TOL * d * n:  # fails on NaN too
        raise PreconditionError("unitaries violate the trace-orthogonality condition")
    if not np.any(np.abs(np.trace(stack, axis1=1, axis2=2)) > d - GROUP_PREMISE_TOL):
        raise PreconditionError("no member is proportional to the identity")
    products = (stack[:, None] @ stack[None, :]).reshape(n * n, d * d)
    best = np.abs(stack.reshape(n, d * d).conj() @ products.T).max(axis=0)
    failing = np.flatnonzero(best < d - tol * d)
    if failing.size == 0:
        return None
    i, j = divmod(int(failing[0]), n)
    product = stack[i] @ stack[j]
    # the reported residual repeats the per-pair traces, so it does not depend on
    # how the table above was summed
    best_ij = max(abs(np.trace(dag(w) @ product)) for w in stack)
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


def closure_obstruction_search(basis: OrthogonalBasis, grid: CausalGrid,
                               tol: float = ATOL) -> ObstructionCertificate | None:
    """Search a fully causal basis, with its grid, for an eigenstate-closure obstruction.

    Moving a state u of cell (0, 0) onto a state a of cell (alpha, 0) is a
    local unitary on A, and onto a state b of cell (0, beta) one on B, so
    closure needs the joint move to land on an eigenstate too. In the grid's
    cell unitaries that joint state is J = W_a W_u^dag W_b in cell
    (alpha, beta); the measurement leaves it sqrt(1 - sum_c p_c**2) from its
    projector, p_c = |tr(W_c^dag J) / d|**2 over the cell's members. Every
    cell is scored, the anchor's too; each triple at or above the bar, in
    (alpha, beta, u, a, b) order, goes with its moves to the premise-checking
    :func:`eigenstate_closure_test`, and a failed premise skips the triple.
    """
    ch, states, cells = None, basis.vectors.reshape(-1, *basis.dims), np.asarray(grid.cells)
    w = grid.unitaries[cells]  # (r_a, r_b, d**2, d, d)
    joint = np.einsum("Aaij,ukj,Bbkl->ABuabil", w[:, 0], w[0, 0].conj(), w[0], optimize=True)
    overlaps = np.einsum("ABcij,ABuabij->ABuabc", w.conj(), joint, optimize=True) / grid.d
    # 1 - sum p**2 = sum_{c != m} p_c (1 + p_m - p_c) as sum p = 1; the
    # right side, with the peak p_m sorted last, cancels nothing
    p = np.sort(np.abs(overlaps) ** 2, axis=-1)
    residual = np.sqrt((p[..., :-1] * (1 + p[..., -1:] - p[..., :-1])).sum(axis=-1))
    for alpha, beta, u, a, b in np.argwhere(residual >= tol * basis.dims.total):  # row-major
        u, a, b = cells[0, 0, u], cells[alpha, 0, a], cells[0, beta, b]
        if ch is None:
            ch = measurement_channel(basis)
        try:
            cert = eigenstate_closure_test(
                ch, basis.vectors[u], alignment_unitary(states[u], states[a]),
                alignment_unitary(states[u].T, states[b].T), tol)
        except PreconditionError:
            continue
        if cert is not None:
            return cert
    return None
