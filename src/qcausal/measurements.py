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

from dataclasses import dataclass, field

import numpy as np

from .causality import SEARCH_THRESHOLD
from .channels import KrausChannel
from .linalg import (
    ATOL,
    SUPPORT_CUTOFF,
    BiDims,
    _all_finite,
    alignment_unitary,
    as_vector,
    dag,
    frobenius,
    haar_unitary,
    mat_close,
    proj,
    tensor_product,
    trace_distance,
)


@dataclass(frozen=True)
class OrthogonalBasis:
    """An ordered orthonormal basis of a bipartite space.

    The vectors are copied once into a read-only (n, n) array whose row k is
    vector k; ``vectors`` holds views of its rows. Tables derived from them
    (reduced states, pair norms, Schmidt coefficients) are computed on first
    use and kept with the instance.
    """

    vectors: tuple[np.ndarray, ...]
    dims: BiDims
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = [as_vector(v, check_finite=False) for v in self.vectors]
        n = self.dims.total
        self.dims.check(n)  # rejects non-positive local dimensions
        if len(vecs) != n:
            raise ValueError(f"basis has {len(vecs)} vectors, expected {n}")
        for v in vecs:
            if v.shape != (n,):
                raise ValueError(f"basis vector length {v.shape[0]} != {n}")
        rows = np.stack(vecs)
        if not _all_finite(rows):
            raise ValueError("vector has non-finite entries")
        rows.flags.writeable = False
        dev = frobenius(rows.conj() @ rows.T - np.eye(n))
        if dev > ATOL * n:
            raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.2e})")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "vectors", tuple(rows))
        object.__setattr__(self, "_cache", {})

    @property
    def size(self) -> int:
        return len(self.vectors)


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


@dataclass(frozen=True)
class _PairTables:
    """One side's reduced states and the Frobenius norms of their pairwise
    differences ``diff[a, b] = ||s_a - s_b||`` and products
    ``prod[a, b] = ||s_a s_b||``. No tolerance enters: callers compare."""

    sigmas: np.ndarray
    diff: np.ndarray
    prod: np.ndarray


def _pair_tables(basis: OrthogonalBasis, side: str) -> _PairTables:
    """The side's pair tables, built once per basis in one pass over all pairs."""
    other = _other(side)
    tables = basis._cache.get(side)
    if tables is None:
        na, nb = basis.dims
        rows = basis._rows
        # the elementwise outer products, then np.trace over the other factor:
        # bit for bit the per-vector partial_trace(proj(v)), on which the
        # witness order's ties are broken
        t = (rows[:, :, None] * rows.conj()[:, None, :]).reshape(-1, na, nb, na, nb)
        sigmas = np.trace(t, axis1=2, axis2=4) if other == "B" else np.trace(t, axis1=1, axis2=3)
        sigmas.flags.writeable = False
        # differences taken directly: expanding ||a||^2 + ||b||^2 - 2 Re<a, b>
        # cancels to noise near the tol * n bar and flips near-ties
        diff = np.linalg.norm(sigmas[:, None] - sigmas[None, :], axis=(2, 3))
        prod = np.linalg.norm(sigmas[:, None] @ sigmas[None, :], axis=(2, 3))
        tables = basis._cache[side] = _PairTables(sigmas, diff, prod)
    return tables


def reduced_states(basis: OrthogonalBasis, side: str) -> list[np.ndarray]:
    """Reduced projectors on ``side``: trace each |a><a| over the other factor.

    Each has unit trace, and they sum to (dim of the other side) * identity,
    so scaled by that dimension they form a POVM. The arrays are read-only
    views of the basis's cached tables.
    """
    return list(_pair_tables(basis, side).sigmas)


def _bar(basis: OrthogonalBasis, tol: float) -> float:
    return tol * max(1.0, basis.dims.total)


def semicausal_basis_test(basis: OrthogonalBasis, side: str, tol: float = ATOL) -> BasisVerdict:
    """Pairwise identical-or-orthogonal test on the reduced states of ``side``.

    Passing on side A means the measurement lets no signal reach A (the other
    party cannot signal); the first violating pair (in row-major order) is
    reported otherwise.
    """
    t = _pair_tables(basis, side)
    bar = _bar(basis, tol)
    violating = np.argwhere(np.triu(~((t.diff < bar) | (t.prod < bar)), 1))
    if len(violating):
        a, b = violating[0]
        return BasisVerdict(False, (int(a), int(b)))
    return BasisVerdict(True)


def _group_by_equality(close: list[list[bool]]) -> list[list[int]]:
    """Group indices by the first earlier group leader they are ``close`` to."""
    groups: list[list[int]] = []
    for idx, row in enumerate(close):
        for g in groups:
            if row[g[0]]:
                g.append(idx)
                break
        else:
            groups.append([idx])
    return groups


def _schmidt_coefficients(basis: OrthogonalBasis) -> np.ndarray:
    """Descending Schmidt coefficients of every basis vector, one batched SVD."""
    coeffs = basis._cache.get("schmidt_coefficients")
    if coeffs is None:
        coeffs = np.linalg.svd(basis._rows.reshape(-1, *basis.dims), compute_uv=False)
        basis._cache["schmidt_coefficients"] = coeffs
    return coeffs


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
    t = _pair_tables(basis, side)
    bar = _bar(basis, tol)
    coeffs = _schmidt_coefficients(basis)
    subspaces = []
    for g in _group_by_equality((t.diff < bar).tolist()):
        sigma = t.sigmas[g[0]]
        p, dim = _support_projector(sigma)
        if not mat_close(sigma, p / dim, bar):
            raise ValueError("reduced state is not a normalized subspace projector")
        if len(g) != n_other * dim:
            raise ValueError(f"subspace of dimension {dim} holds {len(g)} states, "
                             f"expected {n_other * dim}")
        expected = np.where(np.arange(min(basis.dims)) < dim, 1 / np.sqrt(dim), 0.0)
        off = np.nonzero(np.any(np.abs(coeffs[g] - expected) > bar, axis=1))[0]
        if len(off):
            raise ValueError(f"basis state {g[off[0]]} is not maximally entangled "
                             f"over its {dim}-dimensional subspace")
        subspaces.append(Subspace(p, dim, tuple(g)))
    total = sum(s.projector for s in subspaces)
    if not mat_close(total, np.eye(n_side), bar):
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


def basis_signaling_witness(basis: OrthogonalBasis, side: str,
                            tol: float = ATOL) -> BasisWitness | None:
    """Constructive signaling witness for a basis failing the pairwise test on ``side``.

    Among the reduced states whose overlap class holds two or more distinct
    operators, the one of maximal Hilbert-Schmidt norm is extremal in its
    class, so steering it toward an overlapping, distinct partner must move
    the receiver's output. The sender unitary steers |b> as close to |a> as a
    local move can (:func:`alignment_unitary` on the sender's index); the
    reported separation is the trace distance between the receiver's reduced
    outputs with and without it. Returns None when no such pair separates the
    outputs by more than SEARCH_THRESHOLD, as for a basis within a hair of a
    causal one.
    """
    verdict = semicausal_basis_test(basis, side, tol)
    if verdict.semicausal:
        raise ValueError(f"basis passes the pairwise criterion on side {side}; no witness exists")
    t = _pair_tables(basis, side)
    bar = _bar(basis, tol)
    steerable = (t.prod > bar) & ~(t.diff < bar)  # overlapping and distinct
    candidates = [int(b) for b in np.nonzero(steerable.any(axis=1))[0]]
    candidates.sort(key=lambda b: (-frobenius(t.sigmas[b]), b))
    # every basis state as a matrix whose row index is the sender's
    states = basis._rows.reshape(-1, *basis.dims)
    if side == "A":
        states = np.ascontiguousarray(states.transpose(0, 2, 1))
    bras = states.reshape(basis.size, -1).conj()
    for b_idx in candidates:
        plain = _receiver_output(bras, t.sigmas, states[b_idx])
        for a_idx in np.nonzero(steerable[b_idx])[0]:
            u = alignment_unitary(states[b_idx], states[a_idx])
            sep = trace_distance(plain, _receiver_output(bras, t.sigmas, u @ states[b_idx]))
            if sep > SEARCH_THRESHOLD:
                return BasisWitness(side, b_idx, u, sep)
    return None


def _receiver_output(bras: np.ndarray, sigmas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The receiver's reduced output when the measurement acts on the pure input
    ``w``: sum_c |<c|w>|^2 sigma_c, read off the reduced-state table. ``bras``
    holds the conjugated basis states flattened in the same layout as ``w``."""
    weights = np.abs(bras @ w.reshape(-1)) ** 2
    return np.tensordot(weights, sigmas, axes=1)


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
