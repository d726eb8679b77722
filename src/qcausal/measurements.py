"""Structure theory of complete orthogonal measurements.

A complete orthonormal basis of a bipartite space defines a measurement
superoperator. Whether that operation can carry a signal is decided by the
pairwise structure of the reduced basis projectors: the measurement blocks
signaling *toward* a side iff every pair of that side's reduced states is
either identical or orthogonal. Passing bases decompose the side's space
into subspaces carrying maximally entangled basis states; fully causal bases
refine this into a grid of equal-dimensional cells.

Scope note: only complete (rank-1) measurements get the structure theory.
Incomplete measurements appear as explicit channels (e.g. the two-outcome
Bell projection); it is known that every signaling incomplete measurement
admits a signaling completion with the same signal states, but that general
construction is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_to_vector, measurement_channel
from .linalg import (
    ATOL,
    SUPPORT_CUTOFF,
    BiDims,
    as_vector,
    dag,
    frobenius,
    haar_unitary,
    mat_close,
    partial_trace,
    proj,
    schmidt_coefficients,
    schmidt_vectors,
    tensor_product,
    trace_distance,
)

WITNESS_THRESHOLD = 1e-6


@dataclass(frozen=True)
class OrthogonalBasis:
    """An ordered orthonormal basis of a bipartite space."""

    vectors: tuple[np.ndarray, ...]
    dims: BiDims

    def __post_init__(self):
        vecs = tuple(as_vector(v) for v in self.vectors)
        n = self.dims.total
        if len(vecs) != n:
            raise ValueError(f"basis has {len(vecs)} vectors, expected {n}")
        for v in vecs:
            if v.shape != (n,):
                raise ValueError(f"basis vector length {v.shape[0]} != {n}")
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        dev = frobenius(gram - np.eye(n))
        if dev > ATOL * n:
            raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.2e})")
        object.__setattr__(self, "vectors", vecs)

    @property
    def size(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        """Unitary whose columns are the basis vectors."""
        return np.stack(self.vectors, axis=1)


@dataclass(frozen=True)
class Subspace:
    projector: np.ndarray
    dim: int
    member_indices: tuple[int, ...]


@dataclass(frozen=True)
class PartitionStructure:
    side: str
    subspaces: tuple[Subspace, ...]


@dataclass(frozen=True)
class CausalGrid:
    d: int
    r_a: int
    r_b: int
    cells: tuple[tuple[tuple[int, ...], ...], ...]  # cells[alpha][beta] -> basis indices


@dataclass(frozen=True)
class BasisVerdict:
    semicausal: bool
    violating_pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class BasisWitness:
    """A concrete signaling protocol extracted from a failing basis.

    Preparing basis state ``b_index`` and letting the sender apply ``unitary``
    (or not) changes the receiver's reduced output state by ``separation``
    in trace distance. For ``side == "A"`` the receiver is A and the unitary
    acts on B; mirrored for ``side == "B"``.
    """

    side: str
    b_index: int
    unitary: np.ndarray
    separation: float


def _other(side: str) -> str:
    if side == "A":
        return "B"
    if side == "B":
        return "A"
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def reduced_states(basis: OrthogonalBasis, side: str) -> list[np.ndarray]:
    """Reduced projectors on ``side``: trace each |a><a| over the other factor.

    Each has unit trace, and they sum to (dim of the other side) * identity,
    so scaled by that dimension they form a POVM.
    """
    other = _other(side)
    return [partial_trace(proj(v), basis.dims, other) for v in basis.vectors]


def semicausal_basis_test(basis: OrthogonalBasis, side: str, tol: float = ATOL) -> BasisVerdict:
    """Pairwise identical-or-orthogonal test on the reduced states of ``side``.

    Passing on side A means the measurement lets no signal reach A (the other
    party cannot signal); the first violating pair is reported otherwise.
    """
    sigmas = reduced_states(basis, side)
    scale = max(1.0, basis.dims.total)
    for a in range(len(sigmas)):
        for b in range(a + 1, len(sigmas)):
            identical = frobenius(sigmas[a] - sigmas[b]) < tol * scale
            orthogonal = frobenius(sigmas[a] @ sigmas[b]) < tol * scale
            if not (identical or orthogonal):
                return BasisVerdict(False, (a, b))
    return BasisVerdict(True)


def _group_by_equality(sigmas: list[np.ndarray], tol: float) -> list[list[int]]:
    groups: list[list[int]] = []
    for idx, sig in enumerate(sigmas):
        for g in groups:
            if mat_close(sig, sigmas[g[0]], tol):
                g.append(idx)
                break
        else:
            groups.append([idx])
    return groups


def _support_projector(sigma: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> tuple[np.ndarray, int]:
    w, v = np.linalg.eigh((sigma + dag(sigma)) / 2)
    keep = w > cutoff
    vecs = v[:, keep]
    return vecs @ dag(vecs), int(keep.sum())


def semicausal_structure(basis: OrthogonalBasis, side: str = "A",
                         tol: float = ATOL) -> PartitionStructure:
    """Partition ``side`` into subspaces, grouping basis states by reduced-state support.

    Requires the pairwise test to pass on ``side``. Verifies that each group's
    reduced state is the normalized subspace projector, that the group holds
    (other dim) * (subspace dim) members, and that every member is maximally
    entangled between the subspace and the other factor.
    """
    verdict = semicausal_basis_test(basis, side, tol)
    if not verdict.semicausal:
        raise ValueError(f"basis fails the pairwise criterion on side {side} "
                         f"at pair {verdict.violating_pair}")
    n_side = basis.dims.dim_a if side == "A" else basis.dims.dim_b
    n_other = basis.dims.total // n_side
    sigmas = reduced_states(basis, side)
    scale = max(1.0, basis.dims.total)
    subspaces = []
    for g in _group_by_equality(sigmas, tol * scale):
        p, dim = _support_projector(sigmas[g[0]])
        if not mat_close(sigmas[g[0]], p / dim, tol * scale):
            raise ValueError("reduced state is not a normalized subspace projector")
        if len(g) != n_other * dim:
            raise ValueError(f"subspace of dimension {dim} holds {len(g)} states, "
                             f"expected {n_other * dim}")
        expected = np.where(np.arange(min(basis.dims)) < dim, 1 / np.sqrt(dim), 0.0)
        for idx in g:
            coeffs = schmidt_coefficients(basis.vectors[idx], basis.dims)
            if np.any(np.abs(coeffs - expected) > tol * scale):
                raise ValueError(f"basis state {idx} is not maximally entangled "
                                 f"over its {dim}-dimensional subspace")
        subspaces.append(Subspace(p, dim, tuple(g)))
    total = sum(s.projector for s in subspaces)
    if not mat_close(total, np.eye(n_side), tol * scale):
        raise ValueError("subspace projectors do not resolve the identity")
    return PartitionStructure(side, tuple(subspaces))


def causal_structure(basis: OrthogonalBasis, tol: float = ATOL) -> CausalGrid:
    """Grid structure of a basis passing the pairwise criterion on both sides.

    All subspaces on both sides share one cell dimension d; d must divide both
    local dimensions, and each (row, column) cell holds d**2 basis states that
    are maximally entangled across it. Inconsistent cell dimensions signal a
    numerical failure, not a legal basis.
    """
    part_a = semicausal_structure(basis, "A", tol)
    part_b = semicausal_structure(basis, "B", tol)
    cell_dims = {s.dim for s in part_a.subspaces} | {s.dim for s in part_b.subspaces}
    if len(cell_dims) != 1:
        raise ValueError(f"inconsistent cell dimensions {sorted(cell_dims)}")
    d = cell_dims.pop()
    r_a, r_b = len(part_a.subspaces), len(part_b.subspaces)
    if r_a * d != basis.dims.dim_a or r_b * d != basis.dims.dim_b:
        raise ValueError("cell dimension does not divide the local dimensions")
    by_a = {idx: alpha for alpha, s in enumerate(part_a.subspaces) for idx in s.member_indices}
    by_b = {idx: beta for beta, s in enumerate(part_b.subspaces) for idx in s.member_indices}
    cells = [[[] for _ in range(r_b)] for _ in range(r_a)]
    for idx in range(basis.size):
        cells[by_a[idx]][by_b[idx]].append(idx)
    for row in cells:
        for members in row:
            if len(members) != d * d:
                raise ValueError(f"cell holds {len(members)} states, expected {d * d}")
    return CausalGrid(d, r_a, r_b, tuple(tuple(tuple(m) for m in row) for row in cells))


def _witness_unitary(basis: OrthogonalBasis, b_idx: int, a_idx: int, side: str) -> np.ndarray:
    """Unitary for the sender that steers |b> toward |a>.

    It maps the sender-side Schmidt frame of |b> onto that of |a|, pairing the
    frames so the strongest receiver-side overlap comes first and fixing phases
    so all matched overlaps add constructively.
    """
    dims = basis.dims
    _, a_recv, a_send = _split_schmidt(basis.vectors[a_idx], dims, side)
    _, b_recv, b_send = _split_schmidt(basis.vectors[b_idx], dims, side)
    overlaps = np.array([[np.vdot(ar, br) for br in b_recv] for ar in a_recv])
    order = np.dstack(np.unravel_index(np.argsort(-np.abs(overlaps), axis=None), overlaps.shape))[0]
    pairs: list[tuple[int, int]] = []
    used_a: set[int] = set()
    used_b: set[int] = set()
    for i, j in order:
        if i in used_a or j in used_b:
            continue
        pairs.append((int(i), int(j)))
        used_a.add(int(i))
        used_b.add(int(j))
    n_send = dims.dim_b if side == "A" else dims.dim_a
    sources = []
    targets = []
    for i, j in pairs:
        phase = 1.0 + 0j
        if abs(overlaps[i, j]) > 1e-12:
            phase = overlaps[i, j] / abs(overlaps[i, j])
        sources.append(b_send[j])
        targets.append(a_send[i] * np.conj(phase))
    return _frame_map_unitary(sources, targets, n_send)


def _split_schmidt(vec, dims: BiDims, side: str):
    """Schmidt data ordered as (coeffs, receiver-side frame, sender-side frame)."""
    coeffs, a_vecs, b_vecs = schmidt_vectors(vec, dims)
    if side == "A":
        return coeffs, a_vecs, b_vecs
    return coeffs, b_vecs, a_vecs


def _frame_map_unitary(sources: list[np.ndarray], targets: list[np.ndarray], n: int) -> np.ndarray:
    """A unitary sending each source frame vector to its target, completed arbitrarily."""
    src = _complete_frame(sources, n)
    tgt = _complete_frame(targets, n)
    return tgt @ dag(src)


def _complete_frame(vecs: list[np.ndarray], n: int) -> np.ndarray:
    if not vecs:
        return np.eye(n, dtype=complex)
    frame = np.stack(vecs, axis=1)
    q, _ = np.linalg.qr(np.concatenate([frame, np.eye(n, dtype=complex)], axis=1))
    out = np.concatenate([frame, q[:, frame.shape[1]:n]], axis=1) if frame.shape[1] < n else frame
    return out


def basis_signaling_witness(basis: OrthogonalBasis, side: str,
                            tol: float = ATOL) -> BasisWitness | None:
    """Constructive signaling witness for a basis failing the pairwise test on ``side``.

    Among the reduced states whose overlap class holds two or more distinct
    operators, the one of maximal Hilbert-Schmidt norm is extremal in its
    class, so steering it toward an overlapping, distinct partner must move
    the receiver's output. The sender unitary aligns the two states' Schmidt
    frames; the reported separation is the trace distance between the
    receiver's reduced outputs with and without it. Returns None when no
    such pair separates the outputs by more than WITNESS_THRESHOLD, as for
    a basis within a hair of a causal one.
    """
    verdict = semicausal_basis_test(basis, side, tol)
    if verdict.semicausal:
        raise ValueError(f"basis passes the pairwise criterion on side {side}; no witness exists")
    sigmas = reduced_states(basis, side)
    scale = max(1.0, basis.dims.total)
    n = len(sigmas)
    overlap = [[frobenius(sigmas[a] @ sigmas[b]) > tol * scale for b in range(n)] for a in range(n)]
    distinct = [[not mat_close(sigmas[a], sigmas[b], tol * scale) for b in range(n)] for a in range(n)]
    candidates = [
        b for b in range(n)
        if any(overlap[b][a] and distinct[b][a] for a in range(n))
    ]
    candidates.sort(key=lambda b: (-frobenius(sigmas[b]), b))
    ch = measurement_channel(basis)
    for b_idx in candidates:
        for a_idx in range(n):
            if not (overlap[b_idx][a_idx] and distinct[b_idx][a_idx]):
                continue
            u = _witness_unitary(basis, b_idx, a_idx, side)
            sep = _witness_separation(ch, basis, b_idx, u, side)
            if sep > WITNESS_THRESHOLD:
                return BasisWitness(side, b_idx, u, sep)
    return None


def _witness_separation(ch: KrausChannel, basis: OrthogonalBasis, b_idx: int,
                        u: np.ndarray, side: str) -> float:
    na, nb = basis.dims
    if side == "A":
        full = tensor_product(np.eye(na, dtype=complex), u)
    else:
        full = tensor_product(u, np.eye(nb, dtype=complex))
    vec = basis.vectors[b_idx]
    other = _other(side)
    out_plain = partial_trace(apply_to_vector(ch, vec), basis.dims, other)
    out_steered = partial_trace(apply_to_vector(ch, full @ vec), basis.dims, other)
    return trace_distance(out_plain, out_steered)


# ---------------------------------------------------------------------------
# Structured basis constructions
# ---------------------------------------------------------------------------

def bell_states() -> list[np.ndarray]:
    """The two-qubit Bell basis ordered [phi+, phi-, psi+, psi-]."""
    s = 1 / np.sqrt(2)
    return [
        np.array([s, 0, 0, s], dtype=complex),
        np.array([s, 0, 0, -s], dtype=complex),
        np.array([0, s, s, 0], dtype=complex),
        np.array([0, s, -s, 0], dtype=complex),
    ]


def bell_basis() -> OrthogonalBasis:
    return OrthogonalBasis(tuple(bell_states()), BiDims(2, 2))


def product_basis(dims: BiDims) -> OrthogonalBasis:
    """Computational product basis |i>_A (x) |j>_B."""
    eye = np.eye(dims.total, dtype=complex)
    return OrthogonalBasis(tuple(eye[:, k] for k in range(dims.total)), dims)


def conditional_basis() -> OrthogonalBasis:
    """The 2x2 basis {|0>|0>, |0>|1>, |1>|+>, |1>|->}.

    B's measurement direction depends on A's subspace: one-way structure, so
    A can signal B but not conversely.
    """
    s = 1 / np.sqrt(2)
    vecs = (
        np.array([1, 0, 0, 0], dtype=complex),
        np.array([0, 1, 0, 0], dtype=complex),
        np.array([0, 0, s, s], dtype=complex),
        np.array([0, 0, s, -s], dtype=complex),
    )
    return OrthogonalBasis(vecs, BiDims(2, 2))


def completion_basis() -> OrthogonalBasis:
    """The 2x2 basis {phi+, phi-, |01>, |10>}: a signaling completion of a
    two-outcome Bell projection."""
    s = 1 / np.sqrt(2)
    vecs = (
        np.array([s, 0, 0, s], dtype=complex),
        np.array([s, 0, 0, -s], dtype=complex),
        np.array([0, 1, 0, 0], dtype=complex),
        np.array([0, 0, 1, 0], dtype=complex),
    )
    return OrthogonalBasis(vecs, BiDims(2, 2))


def incomplete_bell_channel() -> KrausChannel:
    """The two-outcome measurement {P, I - P} with P the maximal Bell projector.

    The textbook example of an incomplete orthogonal measurement that signals
    in both directions, even though a suitable completion (the full Bell
    measurement) is causal.
    """
    p = proj(bell_states()[0])
    return KrausChannel((p, np.eye(4, dtype=complex) - p), BiDims(2, 2))


def rotate_basis(basis: OrthogonalBasis, u_a: np.ndarray, u_b: np.ndarray) -> OrthogonalBasis:
    """Apply a product unitary to every basis vector (preserves all structure)."""
    full = tensor_product(u_a, u_b)
    return OrthogonalBasis(tuple(full @ v for v in basis.vectors), basis.dims)


def semicausal_partition_basis(dims: BiDims, part_dims: tuple[int, ...],
                               rng: np.random.Generator | None = None) -> OrthogonalBasis:
    """A basis passing the pairwise criterion on side A with prescribed subspace dims.

    For each subspace of dimension d, the d * dim_b member states are
    shift-and-phase maximally entangled states of the subspace with B.
    Optionally conjugated by a random product unitary.
    """
    if sum(part_dims) != dims.dim_a:
        raise ValueError("subspace dimensions must sum to dim_a")
    if any(d < 1 or d > dims.dim_b for d in part_dims):
        raise ValueError("each subspace dimension must lie in [1, dim_b]")
    nb = dims.dim_b
    vecs = []
    offset = 0
    for d in part_dims:
        for s in range(nb):
            for m in range(d):
                v = np.zeros(dims.total, dtype=complex)
                for i in range(d):
                    amp = np.exp(2j * np.pi * m * i / d) / np.sqrt(d)
                    v[(offset + i) * nb + (s + i) % nb] = amp
                vecs.append(v)
        offset += d
    basis = OrthogonalBasis(tuple(vecs), dims)
    if rng is not None:
        basis = rotate_basis(basis, haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))
    return basis


def causal_grid_basis(dims: BiDims, d: int,
                      rng: np.random.Generator | None = None) -> OrthogonalBasis:
    """A fully causal basis with r_a x r_b cells of dimension d.

    Each cell holds the d**2 shift-and-phase maximally entangled states of
    one A-subspace with one B-subspace.
    """
    if dims.dim_a % d or dims.dim_b % d:
        raise ValueError("cell dimension must divide both local dimensions")
    nb = dims.dim_b
    vecs = []
    for alpha in range(dims.dim_a // d):
        for beta in range(dims.dim_b // d):
            for shift in range(d):
                for m in range(d):
                    v = np.zeros(dims.total, dtype=complex)
                    for i in range(d):
                        amp = np.exp(2j * np.pi * m * i / d) / np.sqrt(d)
                        v[(alpha * d + i) * nb + beta * d + (i + shift) % d] = amp
                    vecs.append(v)
    basis = OrthogonalBasis(tuple(vecs), dims)
    if rng is not None:
        basis = rotate_basis(basis, haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))
    return basis


def haar_basis(dims: BiDims, rng: np.random.Generator) -> OrthogonalBasis:
    """Haar-random orthonormal basis (generically signaling in both directions)."""
    u = haar_unitary(dims.total, rng)
    return OrthogonalBasis(tuple(u[:, k] for k in range(dims.total)), dims)
