"""Builders for channels that are localizable by construction.

Averaging a state over a finite unitary group kills the coherence between
inequivalent irreducible sectors and randomizes within each irreducible
block. When every group element is a tensor product across the bipartition,
the parties can implement the average with shared randomness alone, so these
channels are localizable by construction. Stabilizer measurements are the
abelian special case: the twirl over the generated group equals projection
onto the joint eigenspaces of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel
from .linalg import (
    ATOL,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    BiDims,
    as_matrix,
    fix_phase,
    frobenius,
    is_unitary,
    mat_close,
    tensor_product,
)
from .measurements import CausalGrid, OrthogonalBasis


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli letters, e.g. "+XXI"."""

    letters: str
    sign: int = 1

    def __post_init__(self):
        if not self.letters or any(c not in PAULIS for c in self.letters):
            raise ValueError(f"letters must be over I, X, Y, Z; got {self.letters!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        text = text.strip()
        if text.startswith(("+", "-")):
            return cls(text[1:], 1 if text[0] == "+" else -1)
        return cls(text)

    def __str__(self) -> str:
        return ("+" if self.sign == 1 else "-") + self.letters

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def to_matrix(self) -> np.ndarray:
        return self.sign * tensor_product(*(PAULIS[c] for c in self.letters))

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise ValueError("strings act on different qubit counts")
        anti = sum(1 for a, b in zip(self.letters, other.letters)
                   if a != "I" and b != "I" and a != b)
        return anti % 2 == 0


def close_group(generators: Sequence[np.ndarray], max_order: int = 256) -> np.ndarray:
    """Breadth-first closure of the generators under products, modulo phase.

    Returns one phase-fixed representative per class as a read-only
    (order, n, n) stack, the identity first. Raises if a generator is not
    unitary or the closure exceeds ``max_order``.
    """
    gens = []
    for g in generators:
        mat = as_matrix(g)
        if not is_unitary(mat):
            raise ValueError("generators must be unitary")
        gens.append(fix_phase(mat)[0])
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generators must share one dimension")

    elements = [fix_phase(np.eye(dim, dtype=complex))[0]]
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                candidate = fix_phase(g @ e)[0]
                if not any(mat_close(candidate, known, ATOL * dim) for known in elements):
                    elements.append(candidate)
                    new_frontier.append(candidate)
                    if len(elements) > max_order:
                        raise ValueError(f"group order exceeds max_order={max_order}")
        frontier = new_frontier
    group = np.stack(elements)
    group.flags.writeable = False
    return group


def twirl_channel(group: np.ndarray, dims: BiDims) -> KrausChannel:
    """The group-average channel rho -> (1/|G|) sum_g U(g) rho U(g)^dag over an
    (order, n, n) stack of unitaries."""
    if group.shape[-1] != dims.total:
        raise ValueError(f"group dimension {group.shape[-1]} != {dims.total}")
    return KrausChannel(group * (1 / np.sqrt(len(group))), dims)


def cell_twirl_kraus(rows: np.ndarray, a: np.ndarray, cols: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """kron(F_alpha a_g F_alpha^dag, E_beta b_g E_beta^dag) / d for every cell (alpha, beta),
    element for element as np.kron takes it, indexed (g, alpha, beta, A, B, A', B'). The
    frames are F = ``rows`` (r_a, dim_a, d) and E = ``cols`` (r_b, dim_b, d); ``a`` is
    (g, d, d) and ``b`` (g, 1 or r_a, 1 or r_b, d, d), so B's operator may depend on the cell."""
    fa = rows @ a[:, None] @ rows.conj().transpose(0, 2, 1)  # (g, alpha, A, A)
    eb = cols @ b @ cols.conj().transpose(0, 2, 1)  # (g, alpha, beta, B, B)
    return fa[:, :, None, :, None, :, None] * eb[..., None, :, None, :] / rows.shape[-1]


def grid_twirl_channel(basis: OrthogonalBasis, grid: CausalGrid) -> KrausChannel:
    """Dephasing into the cells of a causal grid, then one matched twirl of every cell.

    The group is the unitaries V_g of cell (0, 0) in the grid's matched frames
    F_alpha (rows) and E_beta (columns). The Kraus operator
    (F_alpha V_g F_alpha^dag) (x) (E_beta conj(V_g) E_beta^dag) / d has an
    A factor fixed by (g, alpha) and a B factor fixed by (g, beta), so shared
    randomness and local operations implement the channel. Whether it equals
    the basis measurement is for the caller to decide by Choi equality.
    """
    group = grid.unitaries[list(grid.cells[0][0])]
    kraus = cell_twirl_kraus(grid.rows, group, grid.cols, group.conj()[:, None, None])
    return KrausChannel(kraus.reshape(-1, basis.dims.total, basis.dims.total), basis.dims)


def _stabilizer_dims(generators: Sequence[PauliString], dims: BiDims | None) -> BiDims:
    """Check that the generators are commuting Pauli strings on n qubits, at most n
    of them, and that ``dims`` covers the n qubits; return ``dims``, by default the
    first qubit split off."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n_qubits
    if any(g.n_qubits != n for g in generators):
        raise ValueError("generators act on different qubit counts")
    for i, g in enumerate(generators):
        for h in generators[i + 1:]:
            if not g.commutes_with(h):
                raise ValueError(f"generators {g} and {h} do not commute")
    if len(generators) > n:
        raise ValueError("generators are dependent")
    if dims is None:
        dims = BiDims(2, 2 ** (n - 1))
    if dims.total != 2 ** n:
        raise ValueError(f"bipartition {dims} does not cover {n} qubits")
    return dims


def stabilizer_channel(generators: Sequence[PauliString],
                       dims: BiDims | None = None) -> KrausChannel:
    """Projection onto the joint eigenspaces of commuting, independent generators.

    The Kraus list holds one eigenprojector per sign pattern. Equals the twirl
    over the generated group (:func:`stabilizer_twirl`, compared by Choi
    equality). Default bipartition splits off the first qubit.

    k independent generators split the 2**n dimensions into 2**k joint
    eigenspaces, none of them empty, so k <= n. The generators are dependent
    iff a product of some of them is +-I, which empties every sign pattern
    that contradicts that product: fewer than 2**k projectors are nonzero.
    """
    dims = _stabilizer_dims(generators, dims)
    mats = [g.to_matrix() for g in generators]
    kraus = []
    for pattern in range(2 ** len(mats)):
        p = np.eye(dims.total, dtype=complex)
        for k, mat in enumerate(mats):
            sign = 1.0 if (pattern >> k) & 1 == 0 else -1.0
            p = p @ (np.eye(dims.total) + sign * mat) / 2
        if frobenius(p) > ATOL:
            kraus.append(p)
    if len(kraus) < 2 ** len(mats):
        raise ValueError("generators are dependent")
    return KrausChannel(tuple(kraus), dims)


def stabilizer_twirl(generators: Sequence[PauliString],
                     dims: BiDims | None = None) -> KrausChannel:
    """The same operation built the other way: twirl over the generated group.

    Modulo phase the k generators generate 2**k elements iff they are independent.
    """
    dims = _stabilizer_dims(generators, dims)
    group = close_group([g.to_matrix() for g in generators], max_order=2 ** len(generators))
    if len(group) < 2 ** len(generators):
        raise ValueError("generators are dependent")
    return twirl_channel(group, dims)


def tetrahedral_group() -> np.ndarray:
    """The 12-element rotation group of the tetrahedron, lifted to single-qubit unitaries.

    Generated by a half-turn about z and the axis-cycling composition of two
    quarter turns; correctness is certified downstream by the output form of
    the two-qubit twirl, not by matching a canonical matrix list.
    """
    half_turn_z = _rotation(PAULI_Z, np.pi)
    axis_cycle = _rotation(PAULI_Z, np.pi / 2) @ _rotation(PAULI_X, np.pi / 2)
    group = close_group([half_turn_z, axis_cycle], max_order=24)
    if len(group) != 12:
        raise RuntimeError(f"tetrahedral closure produced order {len(group)}")
    return group


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * axis


def pauli_twirl_group() -> np.ndarray:
    """The two-qubit group {I(x)I, X(x)X, Y(x)Y, Z(x)Z} modulo phase."""
    return close_group([tensor_product(PAULI_X, PAULI_X), tensor_product(PAULI_Z, PAULI_Z)],
                       max_order=4)


def bell_twirl() -> KrausChannel:
    """Decoherence in the Bell basis via the matched two-sided Pauli twirl."""
    return twirl_channel(pauli_twirl_group(), BiDims(2, 2))


def werner_twirl() -> KrausChannel:
    """Two-qubit twirl over matched tetrahedral rotations g (x) g.

    Any input is driven to the Werner form: the singlet weight is preserved and
    the three triplet Bell weights are equalized.
    """
    return twirl_channel(np.stack([tensor_product(u, u) for u in tetrahedral_group()]),
                         BiDims(2, 2))

