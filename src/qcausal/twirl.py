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
    dag,
    fix_phase,
    frobenius,
    is_unitary,
    mat_close,
    tensor_product,
)
from .measurements import CausalGrid, OrthogonalBasis


@dataclass(frozen=True)
class ProjectiveUnitaryGroup:
    """A finite group of unitaries, one canonical representative per phase class."""

    elements: tuple[np.ndarray, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


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
        if text[:1] in "+-":
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


def _canonical(u: np.ndarray) -> np.ndarray:
    fixed, _ = fix_phase(u)
    return fixed


def close_group(generators: Sequence[np.ndarray], max_order: int = 256) -> ProjectiveUnitaryGroup:
    """Breadth-first closure of the generators under products, modulo phase.

    Raises if a generator is not unitary or the closure exceeds ``max_order``.
    """
    gens = []
    for g in generators:
        mat = as_matrix(g)
        if not is_unitary(mat):
            raise ValueError("generators must be unitary")
        gens.append(_canonical(mat))
    dim = gens[0].shape[0]
    if any(g.shape != (dim, dim) for g in gens):
        raise ValueError("generators must share one dimension")

    elements = [_canonical(np.eye(dim, dtype=complex))]
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                candidate = _canonical(g @ e)
                if not any(mat_close(candidate, known, ATOL * dim) for known in elements):
                    elements.append(candidate)
                    new_frontier.append(candidate)
                    if len(elements) > max_order:
                        raise ValueError(f"group order exceeds max_order={max_order}")
        frontier = new_frontier
    return ProjectiveUnitaryGroup(tuple(elements))


def twirl_channel(group: ProjectiveUnitaryGroup, dims: BiDims) -> KrausChannel:
    """The group-average channel rho -> (1/|G|) sum_g U(g) rho U(g)^dag."""
    if group.dim != dims.total:
        raise ValueError(f"group dimension {group.dim} != {dims.total}")
    scale = 1 / np.sqrt(group.order)
    return KrausChannel(tuple(scale * u for u in group.elements), dims)


def grid_twirl_channel(basis: OrthogonalBasis, grid: CausalGrid) -> KrausChannel:
    """Dephasing into the cells of a causal grid, then one matched twirl of every cell.

    F_0, E_0 are the Schmidt frames of the first state of cell (0, 0), and its
    states M_g give the group V_g = sqrt(d) F_0^dag M_g conj(E_0). Row alpha
    uses the A frame F_alpha that the first state of cell (alpha, 0) pairs with
    E_0, column beta the B frame E_beta that the first state of cell (0, beta)
    pairs with F_0. The Kraus operator (F_alpha V_g F_alpha^dag) (x)
    (E_beta conj(V_g) E_beta^dag) / d has an A factor fixed by (g, alpha) and a
    B factor fixed by (g, beta), so shared randomness and local operations
    implement the channel. Whether it equals the basis measurement is for the
    caller to decide by Choi equality.
    """
    na, nb = basis.dims
    d = grid.d
    states = [v.reshape(na, nb) for v in basis.vectors]
    u, _, vh = np.linalg.svd(states[grid.cells[0][0][0]])
    f0, e0 = u[:, :d], vh[:d].T
    group = [np.sqrt(d) * dag(f0) @ states[idx] @ e0.conj() for idx in grid.cells[0][0]]
    rows = [np.sqrt(d) * states[row[0][0]] @ e0.conj() for row in grid.cells]
    cols = [np.sqrt(d) * states[cell[0]].T @ f0.conj() for cell in grid.cells[0]]
    kraus = tuple(tensor_product(f @ v @ dag(f), e @ v.conj() @ dag(e)) / d
                  for v in group for f in rows for e in cols)
    return KrausChannel(kraus, basis.dims)


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
    dim = 2 ** n
    mats = [g.to_matrix() for g in generators]
    kraus = []
    for pattern in range(2 ** len(mats)):
        p = np.eye(dim, dtype=complex)
        for k, mat in enumerate(mats):
            sign = 1.0 if (pattern >> k) & 1 == 0 else -1.0
            p = p @ (np.eye(dim) + sign * mat) / 2
        if frobenius(p) > ATOL:
            kraus.append(p)
    if len(kraus) < 2 ** len(mats):
        raise ValueError("generators are dependent")
    if dims is None:
        dims = BiDims(2, 2 ** (n - 1))
    if dims.total != dim:
        raise ValueError(f"bipartition {dims} does not cover {n} qubits")
    return KrausChannel(tuple(kraus), dims)


def stabilizer_twirl(generators: Sequence[PauliString],
                     dims: BiDims | None = None) -> KrausChannel:
    """The same operation built the other way: twirl over the generated group."""
    n = generators[0].n_qubits
    if dims is None:
        dims = BiDims(2, 2 ** (n - 1))
    group = close_group([g.to_matrix() for g in generators], max_order=2 ** len(generators))
    return twirl_channel(group, dims)


def tetrahedral_group() -> ProjectiveUnitaryGroup:
    """The 12-element rotation group of the tetrahedron, lifted to single-qubit unitaries.

    Generated by a half-turn about z and the axis-cycling composition of two
    quarter turns; correctness is certified downstream by the output form of
    the two-qubit twirl, not by matching a canonical matrix list.
    """
    half_turn_z = _rotation(PAULI_Z, np.pi)
    axis_cycle = _rotation(PAULI_Z, np.pi / 2) @ _rotation(PAULI_X, np.pi / 2)
    group = close_group([half_turn_z, axis_cycle], max_order=24)
    if group.order != 12:
        raise RuntimeError(f"tetrahedral closure produced order {group.order}")
    return group


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * axis


def pauli_twirl_group() -> ProjectiveUnitaryGroup:
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
    single = tetrahedral_group()
    elements = tuple(tensor_product(u, u) for u in single.elements)
    return twirl_channel(ProjectiveUnitaryGroup(elements), BiDims(2, 2))

