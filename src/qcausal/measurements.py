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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .causality import A_TO_B, B_TO_A, SEARCH_THRESHOLD
from .channels import KrausChannel, TPReport
from .linalg import (
    ATOL,
    I2,
    PAULI_X,
    PAULI_Z,
    SUPPORT_CUTOFF,
    BiDims,
    _arange,
    _identity,
    _trace_distance,
    _upper_pairs,
    alignment_unitary,
    as_vector,
    dag,
    frobenius,
    frobenius_norms,
    haar_unitary,
    proj,
    tensor_product,
)


@dataclass(frozen=True)
class OrthogonalBasis:
    """An ordered orthonormal basis of a bipartite space.

    The vectors, given as a sequence or one (n, n) array whose row k is vector
    k, are copied once into the read-only (n, n) array that ``vectors`` then
    holds. Tables derived from them (projectors, reduced states, pair norms,
    Schmidt coefficients) are computed on first use and kept with the instance.
    """

    vectors: np.ndarray
    dims: BiDims
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dims.total
        self.dims.check(n)  # rejects non-positive local dimensions
        if isinstance(self.vectors, np.ndarray) and self.vectors.shape == (n, n):
            rows = self.vectors.astype(complex)  # a stack, as decoded: one copy
        else:
            vecs = [as_vector(v) for v in self.vectors]
            if len(vecs) != n:
                raise ValueError(f"basis has {len(vecs)} vectors, expected {n}")
            for v in vecs:
                if v.shape != (n,):
                    raise ValueError(f"basis vector length {v.shape[0]} != {n}")
            rows = np.stack(vecs)
        rows.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            dev = frobenius(rows.conj() @ rows.T - _identity(n))
        if not dev <= ATOL * n:  # a non-finite or overflowing entry makes dev inf or NaN
            raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.2e})")
        object.__setattr__(self, "vectors", rows)
        object.__setattr__(self, "_cache", {})

    @property
    def size(self) -> int:
        return len(self.vectors)

    def projectors(self) -> np.ndarray:
        """The projectors |k><k| as one read-only (n, n, n) array, built once."""
        if "projectors" not in self._cache:
            rows = self.vectors
            stack = self._cache["projectors"] = rows[:, :, None] * rows.conj()[:, None, :]
            stack.flags.writeable = False
        return self._cache["projectors"]


@dataclass(frozen=True)
class Subspace:
    projector: np.ndarray
    dim: int
    member_indices: tuple[int, ...]


@dataclass(frozen=True)
class CausalGrid:
    """The cells of a causal basis, with matched frames: state k of cell
    (alpha, beta), as an (A, B) matrix, is ``rows[alpha] @ unitaries[k] @
    cols[beta].T / sqrt(d)``."""

    d: int
    r_a: int
    r_b: int
    cells: tuple[tuple[tuple[int, ...], ...], ...]  # cells[alpha][beta] -> basis indices
    rows: np.ndarray = field(compare=False, repr=False)  # (r_a, dim_a, d)
    cols: np.ndarray = field(compare=False, repr=False)  # (r_b, dim_b, d)
    unitaries: np.ndarray = field(compare=False, repr=False)  # (n, d, d), basis order


def cell_states(rows: np.ndarray, unitaries: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The states ``rows @ unitaries[k] @ cols.T / sqrt(d)`` of a cell, the
    :class:`CausalGrid` formula, one flattened (A, B) vector per unitary.

    ``rows`` is (dim_a, d), ``unitaries`` (k, d, d) and ``cols`` (dim_b, d);
    leading axes broadcast, so one call builds the states of many cells.
    """
    states = rows @ unitaries @ np.swapaxes(cols, -1, -2) / np.sqrt(unitaries.shape[-1])
    return states.reshape(*states.shape[:-2], -1)


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
    ``prod[a, b] = ||s_a s_b||``. No tolerance enters the tables; the side's
    pairwise verdict at a bar is decided once and kept in ``verdicts``."""

    sigmas: np.ndarray
    diff: np.ndarray
    prod: np.ndarray
    verdicts: dict = field(default_factory=dict, compare=False)

    def verdict(self, bar: float) -> BasisVerdict:
        found = self.verdicts.get(bar)
        if found is None:
            found = self.verdicts[bar] = _pairwise_verdict(self, bar)
        return found


def _pairwise_verdict(t: _PairTables, bar: float) -> BasisVerdict:
    """Every pair identical or orthogonal within ``bar``, else the first pair
    in row-major order that is neither."""
    n = len(t.diff)
    violating = (~((t.diff < bar) | (t.prod < bar)) & _upper_pairs(n)).reshape(-1)
    first = int(violating.argmax())
    if violating[first]:
        return BasisVerdict(False, divmod(first, n))
    return BasisVerdict(True)


def _pair_tables(basis: OrthogonalBasis, side: str) -> _PairTables:
    """The side's pair tables, built once per basis in one pass over all pairs."""
    other = _other(side)
    tables = basis._cache.get(side)
    if tables is None:
        na, nb = basis.dims
        # the elementwise outer products, then np.trace over the other factor:
        # bit for bit the per-vector partial_trace(proj(v)), on which the
        # witness order's ties are broken
        t = basis.projectors().reshape(-1, na, nb, na, nb)
        sigmas = np.trace(t, axis1=2, axis2=4) if other == "B" else np.trace(t, axis1=1, axis2=3)
        sigmas.flags.writeable = False
        # differences taken directly: expanding ||a||^2 + ||b||^2 - 2 Re<a, b>
        # cancels to noise near the tol * n bar and flips near-ties
        diff = frobenius_norms(sigmas[:, None] - sigmas[None, :], (2, 3))
        # every product s_a s_b from one gemm, laid out (a, i, b, j); its last
        # bits differ from per-pair products, but no pair of the tested bases
        # sits close enough to the bar for a decision to move
        n, ns = sigmas.shape[:2]
        prod = sigmas.reshape(n * ns, ns) @ sigmas.transpose(1, 0, 2).reshape(ns, n * ns)
        prod = frobenius_norms(prod.reshape(n, ns, n, ns), (1, 3))
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
    reported otherwise. Decided once per side and tolerance, then kept.
    """
    return _pair_tables(basis, side).verdict(_bar(basis, tol))


def measurement_validate(basis: OrthogonalBasis, tol: float = ATOL) -> TPReport:
    """``validate(measurement_channel(basis))`` from the vectors: with w_k = ||b_k||^2,
    ``sum_k P_k^dag P_k`` is ``B diag(w) B^dag`` for the matrix B whose columns are the b_k."""
    rows, conj = basis.vectors, basis.vectors.conj()  # finite and near unit norm by the Gram test
    w = (rows * conj).real.sum(axis=1)
    deviation = frobenius((rows.T * w) @ conj - _identity(len(rows)))
    return TPReport(bool(deviation < tol), deviation)


def measurement_marginal_residual(basis: OrthogonalBasis, direction: str) -> float:
    """The residual of ``semicausal_test(measurement_channel(basis))``, from the vectors.

    For the receiver A, with P_k = |b_k><b_k| and s_k = Tr_B P_k, the marginal is
    sum_k conj(P_k) (x) s_k and its expected form sum_k (s_k^T (x) I_B/d_B) (x) s_k,
    so the residual is the norm of one (n, d_A^2)^T @ (n, n^2) product of the s_k
    with the stacked D_k = conj(P_k) - s_k^T (x) I_B/d_B. The s_k^T are the side's
    pair-table states conjugated (each s_k is Hermitian); s_k^T stands in for s_k,
    which only permutes the product's entries. The receiver B mirrors it with the
    factors swapped.
    """
    na, nb = basis.dims
    d = basis.projectors().conj().reshape(-1, na, nb, na, nb)  # a fresh copy, changed in place
    if direction == B_TO_A:
        s_t = _pair_tables(basis, "A").sigmas.conj()  # (k, A, A)
        d[:, :, _arange(nb), :, _arange(nb)] -= s_t / nb
    elif direction == A_TO_B:
        s_t = _pair_tables(basis, "B").sigmas.conj()  # (k, B, B)
        d[:, _arange(na), :, _arange(na)] -= s_t / na
    else:
        raise ValueError(f"direction must be {B_TO_A!r} or {A_TO_B!r}, got {direction!r}")
    m = s_t.reshape(len(d), -1).T @ d.reshape(len(d), -1)
    return math.sqrt(np.vdot(m, m).real)


def measurement_semicausal_test(basis: OrthogonalBasis, direction: str, tol: float = ATOL) -> bool:
    """``semicausal_test(measurement_channel(basis), direction, tol)`` from the vectors:
    :func:`measurement_marginal_residual` at the bar ``tol * n * d_receiver``."""
    d_recv = basis.dims.dim_a if direction == B_TO_A else basis.dims.dim_b
    return measurement_marginal_residual(basis, direction) < tol * basis.dims.total * d_recv


def measurement_distance(ch: KrausChannel, basis: OrthogonalBasis) -> float:
    """``channel_distance(ch, measurement_channel(basis))``, read in the basis's frame.

    In the frame U = B^-1 (the b_k as columns of B), U b_k = e_k exactly, so the
    measurement's Choi state is sum_k |kk><kk| and ch's Kraus operators become
    K'_j = U K_j U^dag. With a (n, J) their diagonals and O (J, n^2) the rest,
    the squared distance is ||a a^dag - I||^2 + 2 ||a conj(O)||^2 + ||conj(O) O^T||^2:
    norms of products and of one entrywise difference, no difference of large
    squared norms. U is the inverse, not B^dag: the basis is orthonormal only
    within the Gram bar, and B^dag would put an error of that size into the
    picture, where the inverse's error stays relative to the distance.
    """
    if ch.dims != basis.dims:
        raise ValueError("channel and basis have different dims")
    n = ch.dim
    u = np.linalg.inv(basis.vectors.T)
    right = (ch.kraus.reshape(-1, n) @ dag(u)).reshape(-1, n, n)  # every K_j U^dag at once
    off = (u @ right).reshape(len(right), -1)  # row j: K'_j, its diagonal zeroed below
    a = off[:, ::n + 1].T.copy()
    off[:, ::n + 1] = 0
    conj = off.conj()
    sq = [np.vdot(t, t).real for t in (a @ dag(a) - _identity(n), a @ conj, conj @ off.T)]
    return math.sqrt(sq[0] + 2 * sq[1] + sq[2])


def _schmidt(basis: OrthogonalBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Schmidt decomposition ``(u, s, vh)`` of every basis state, one batched SVD."""
    if "schmidt" not in basis._cache:
        basis._cache["schmidt"] = np.linalg.svd(basis.vectors.reshape(-1, *basis.dims))
    return basis._cache["schmidt"]


def _structure(basis: OrthogonalBasis, sides: tuple[str, ...], tol: float):
    """:func:`semicausal_structure` of ``sides`` in one pass: each side's groups and
    projectors (leaders' Schmidt frames cut at SUPPORT_CUTOFF), each state's group per
    side (numbered on across sides) and each group's dim. Sides are checked in turn:
    pairwise verdict, then each group's residual, member count and flatness, identity."""
    bar = _bar(basis, tol)
    tables = [_pair_tables(basis, side) for side in sides]
    grouped, labels = [], []  # each state joins the first earlier leader it is close to
    for t in tables:
        groups, start = [], sum(map(len, grouped))
        for idx, row in enumerate((t.diff < bar).tolist()):
            for k, g in enumerate(groups, start):
                if row[g[0]]:
                    g.append(idx)
                    labels.append(k)
                    break
            else:
                labels.append(start + len(groups))
                groups.append([idx])
        grouped.append(groups)
    u, coeffs, vh = _schmidt(basis)
    leaders = [g[0] for groups in grouped for g in groups]
    dims = (coeffs.take(leaders, 0) ** 2 > SUPPORT_CUTOFF).sum(axis=1)
    # every state's Schmidt coefficients against 1/sqrt(dim) on its group's dim, per side
    flat = np.where(_arange(coeffs.shape[1]) < dims[:, None], 1 / np.sqrt(dims[:, None]), 0.0)
    skewed = np.abs(coeffs - flat.take(labels, 0).reshape(len(sides), *coeffs.shape)) > bar
    projectors, dim_list, flat_everywhere = [], dims.tolist(), not skewed.any()
    for i, (side, t, groups) in enumerate(zip(sides, tables, grouped)):
        start = sum(map(len, grouped[:i]))
        lead, dim = leaders[start:start + len(groups)], dims[start:start + len(groups), None, None]
        frames = u.take(lead, 0) if side == "A" else vh.take(lead, 0).transpose(0, 2, 1)
        frames = frames * (_arange(frames.shape[2]) < dim)  # the kept columns
        p = frames @ frames.conj().transpose(0, 2, 1)
        residuals = frobenius_norms(t.sigmas.take(lead, 0) - p / dim, (1, 2)).tolist()
        verdict, n_other = t.verdict(bar), basis.dims[side == "A"]
        if not verdict.semicausal:
            raise ValueError(f"basis fails the pairwise criterion on side {side} "
                             f"at pair {verdict.violating_pair}")
        for g, dim, residual in zip(groups, dim_list[start:], residuals):
            member = None if flat_everywhere else next((k for k in g if skewed[i, k].any()), None)
            if not residual < bar:
                raise ValueError("reduced state is not a normalized subspace projector")
            if len(g) != n_other * dim:
                raise ValueError(f"subspace of dimension {dim} holds {len(g)} states, "
                                 f"expected {n_other * dim}")
            if member is not None:
                raise ValueError(f"basis state {member} is not maximally entangled "
                                 f"over its {dim}-dimensional subspace")
        if not frobenius(p.sum(axis=0) - _identity(p.shape[1])) < bar:
            raise ValueError("subspace projectors do not resolve the identity")
        projectors.append(p)
    return grouped, labels, dim_list, projectors


def semicausal_structure(basis: OrthogonalBasis, side: str = "A",
                         tol: float = ATOL) -> tuple[Subspace, ...]:
    """Partition ``side`` into subspaces, grouping basis states by reduced-state support.

    Requires the pairwise test to pass on ``side``. Verifies that each group's
    reduced state is the normalized subspace projector, that the group holds
    (other dim) * (subspace dim) members, and that every member is maximally
    entangled between the subspace and the other factor. The groups are checked
    in order, and the first one that fails a check is reported.
    """
    (groups,), _, dims, (projectors,) = _structure(basis, (side,), tol)
    return tuple(Subspace(p, dim, tuple(g)) for p, dim, g in zip(projectors, dims, groups))


def causal_structure(basis: OrthogonalBasis, tol: float = ATOL) -> CausalGrid:
    """Grid structure of a basis passing the pairwise criterion on both sides.

    All subspaces on both sides share one cell dimension d; d must divide both
    local dimensions, and each (row, column) cell holds d**2 basis states that
    are maximally entangled across it. Inconsistent cell dimensions signal a
    numerical failure, not a legal basis. Side A's structure is checked first.

    Frames: F_0 and E_0 are the Schmidt frames of the anchor, the member of
    cell (0, 0) with the largest |tr| of its (A, B) matrix. Row alpha takes
    the A frame F_alpha that the first state of cell (alpha, 0) pairs with
    E_0, column beta the B frame E_beta that the first state of cell
    (0, beta) pairs with F_0, and state k the unitary
    W_k = sqrt(d) F_alpha^dag M_k conj(E_beta).
    """
    (groups_a, groups_b), labels, dims, _ = _structure(basis, ("A", "B"), tol)
    cell_dims = set(dims)
    if len(cell_dims) != 1:
        raise ValueError(f"inconsistent cell dimensions {sorted(cell_dims)}")
    d = cell_dims.pop()
    r_a, r_b = len(groups_a), len(groups_b)
    if r_a * d != basis.dims.dim_a or r_b * d != basis.dims.dim_b:
        raise ValueError("cell dimension does not divide the local dimensions")
    # each state's cell, row-major (B's groups are numbered on from r_a); members ascending
    cell_of = [a * r_b + b - r_a for a, b in zip(labels[:basis.size], labels[basis.size:])]
    cells = [[] for _ in range(r_a * r_b)]
    for k, cell in enumerate(cell_of):
        cells[cell].append(k)
    for members in cells:
        if len(members) != d * d:
            raise ValueError(f"cell holds {len(members)} states, expected {d * d}")
    states = basis.vectors.reshape(-1, *basis.dims)
    # a one-state cell is its own anchor
    anchor = cells[0][np.abs(states.take(cells[0], 0).trace(0, 1, 2)).argmax() if d > 1 else 0]
    u, _, vh = _schmidt(basis)
    f0, e0 = u[anchor, :, :d], vh[anchor, :d].T
    root_d = np.sqrt(d)
    firsts = root_d * states.take([members[0] for members in cells], 0)  # each cell's first
    rows = np.concatenate([f0[None], firsts[r_b::r_b] @ e0.conj()])
    cols = np.concatenate([e0[None], firsts[1:r_b].transpose(0, 2, 1) @ f0.conj()])
    # kron(F_alpha^dag, E_beta^dag) per cell, one matrix-vector product per state:
    # a one-cell grid then gives the per-vector extraction's unitaries bit for bit
    f_dag, e_dag = (t.conj().transpose(0, 2, 1) for t in (rows, cols))
    frames = (f_dag[:, None, :, None, :, None]
              * e_dag[None, :, None, :, None, :]).reshape(r_a * r_b, d * d, -1)
    unitaries = root_d * (frames.take(cell_of, 0) @ basis.vectors[..., None]).reshape(-1, d, d)
    for table in (rows, cols, unitaries):
        table.flags.writeable = False  # every localizability step reads the same grid
    return CausalGrid(d, r_a, r_b, tuple(tuple(map(tuple, cells[a * r_b:(a + 1) * r_b]))
                                         for a in range(r_a)), rows, cols, unitaries)


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
    t = _pair_tables(basis, side)
    bar = _bar(basis, tol)
    if t.verdict(bar).semicausal:
        raise ValueError(f"basis passes the pairwise criterion on side {side}; no witness exists")
    steerable, candidates = _witness_candidates(t, bar)
    # every basis state as a matrix whose row index is the sender's
    states = basis.vectors.reshape(-1, *basis.dims)
    if side == "A":
        states = np.ascontiguousarray(states.transpose(0, 2, 1))
    bras = states.reshape(basis.size, -1).conj()
    for b_idx in candidates.tolist():
        plain = _receiver_output(bras, t.sigmas, states[b_idx])
        for a_idx in np.nonzero(steerable[b_idx])[0]:
            u = alignment_unitary(states[b_idx], states[a_idx])
            sep = _trace_distance(plain, _receiver_output(bras, t.sigmas, u @ states[b_idx]))
            if sep > SEARCH_THRESHOLD:
                return BasisWitness(side, b_idx, u, sep)
    return None


def _witness_candidates(t: _PairTables, bar: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) mask of overlapping and distinct pairs, and the indices with a
    partner in it by descending norm of their reduced state, ascending on ties."""
    steerable = (t.prod > bar) & ~(t.diff < bar)
    candidates = np.flatnonzero(steerable.any(axis=1))
    return steerable, candidates[np.lexsort((candidates, -_frobenius_norms(t.sigmas[candidates])))]


def _receiver_output(bras: np.ndarray, sigmas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The receiver's reduced output when the measurement acts on the pure input
    ``w``: sum_c |<c|w>|^2 sigma_c, read off the reduced-state table. ``bras``
    holds the conjugated basis states flattened in the same layout as ``w``."""
    weights = np.abs(bras @ w.reshape(-1)) ** 2
    return (weights @ sigmas.reshape(len(sigmas), -1)).reshape(sigmas.shape[1:])


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``[frobenius(m) for m in stack]`` bit for bit, which ``frobenius_norms`` is not: the
    same strided dot products of the real and imaginary parts, as two batched products."""
    flat = stack.reshape(len(stack), 1, stack.shape[1] * stack.shape[2])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(-1)


# ---------------------------------------------------------------------------
# Structured basis constructions
# ---------------------------------------------------------------------------

# The Bell cell's unitaries: Z flips the phase, X the parity.
_BELL_UNITARIES = np.stack([I2, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X])
_BELL_UNITARIES.flags.writeable = False


def bell_states() -> list[np.ndarray]:
    """The two-qubit Bell basis ordered [phi+, phi-, psi+, psi-]."""
    return list(cell_states(I2, _BELL_UNITARIES, I2))


def bell_basis() -> OrthogonalBasis:
    return OrthogonalBasis(tuple(bell_states()), BiDims(2, 2))


def product_basis(dims: BiDims) -> OrthogonalBasis:
    """Computational product basis |i>_A (x) |j>_B: the grid of one-dimensional cells."""
    return causal_grid_basis(dims, 1)


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


@functools.cache
def _phase_unitaries(d: int) -> np.ndarray:
    """The d**2 shift-and-phase unitaries W[i, (i + s) % d] = exp(2 pi i m i / d),
    as a read-only (d * d, d, d) stack in (s, m) order; the first d have no shift."""
    # one scalar np.exp per phase: the vectorised np.exp differs in the last bits
    # (1.5e-15 at d = 6), as would powers of generalized_pauli, and the generated
    # bases are inputs whose bytes must not move
    phases = np.array([[np.exp(2j * np.pi * m * i / d) for i in range(d)] for m in range(d)])
    i = np.arange(d)
    unitaries = np.zeros((d, d, d, d), dtype=complex)
    for s in range(d):
        unitaries[s][:, i, (i + s) % d] = phases
    unitaries.flags.writeable = False
    return unitaries.reshape(d * d, d, d)


def _blocks(n: int, d: int) -> np.ndarray:
    """The n // d consecutive d-dimensional coordinate blocks of C^n, as (n, d) isometries."""
    return np.eye(n).reshape(n, n // d, d).transpose(1, 0, 2)


def semicausal_partition_basis(dims: BiDims, part_dims: tuple[int, ...],
                               rng: np.random.Generator | None = None) -> OrthogonalBasis:
    """A basis passing the pairwise criterion on side A with prescribed subspace dims.

    A subspace of dimension d is a block of A's coordinates. For each shift s
    it meets B through the isometry onto B's coordinates (s + i) % dim_b,
    i < d, and that cell holds the d phase states: d * dim_b states in all.
    Optionally conjugated by a random product unitary.
    """
    if sum(part_dims) != dims.dim_a:
        raise ValueError("subspace dimensions must sum to dim_a")
    if any(d < 1 or d > dims.dim_b for d in part_dims):
        raise ValueError("each subspace dimension must lie in [1, dim_b]")
    eye_a, nb = np.eye(dims.dim_a), dims.dim_b
    # column i of shift s is |(s + i) % dim_b>: (shift, dim_b, dim_b)
    cols = np.eye(nb)[:, (np.arange(nb)[:, None] + np.arange(nb)) % nb].transpose(1, 0, 2)
    offsets = np.cumsum((0,) + part_dims)
    states = [cell_states(eye_a[:, o:o + d], _phase_unitaries(d)[:d], cols[:, None, :, :d])
              for o, d in zip(offsets, part_dims)]
    basis = OrthogonalBasis(np.concatenate(states, axis=None).reshape(-1, dims.total), dims)
    if rng is not None:
        basis = rotate_basis(basis, haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))
    return basis


def causal_grid_basis(dims: BiDims, d: int,
                      rng: np.random.Generator | None = None) -> OrthogonalBasis:
    """A fully causal basis with r_a x r_b cells of dimension d.

    Each cell holds the d**2 shift-and-phase maximally entangled states of
    one block of A's coordinates with one block of B's.
    """
    if d < 1:
        raise ValueError("cell dimension must be at least 1")
    if dims.dim_a % d or dims.dim_b % d:
        raise ValueError("cell dimension must divide both local dimensions")
    states = cell_states(_blocks(dims.dim_a, d)[:, None, None], _phase_unitaries(d),
                         _blocks(dims.dim_b, d)[None, :, None])
    basis = OrthogonalBasis(states.reshape(-1, dims.total), dims)
    if rng is not None:
        basis = rotate_basis(basis, haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))
    return basis


def haar_basis(dims: BiDims, rng: np.random.Generator) -> OrthogonalBasis:
    """Haar-random orthonormal basis (generically signaling in both directions)."""
    u = haar_unitary(dims.total, rng)
    return OrthogonalBasis(u.T, dims)
