"""The cell formula behind every structured basis.

``cell_states`` writes state k of a cell as ``rows @ W_k @ cols.T / sqrt(d)``,
the formula ``causal_structure`` reads back. The round trip checks that the
formula rebuilds every causal basis from its grid; the oracles are the
generators' former hand-indexed loops, and the generated vectors must match
them byte for byte, since stored inputs are built from these generators.
"""

import itertools

import numpy as np
import pytest

from qcausal.linalg import HADAMARD, PAULI_X, BiDims, haar_unitary, tensor_product
from qcausal.localizability import (
    generalized_pauli,
    me_basis_from_unitaries,
    mismatch_unitaries,
    twisted_partition_basis,
)
from qcausal.measurements import (
    bell_states,
    causal_grid_basis,
    causal_structure,
    cell_states,
    product_basis,
    rotate_basis,
    semicausal_basis_test,
    semicausal_partition_basis,
)


def _rebuild_error(basis) -> float:
    """Largest deviation of a basis state from the formula applied to its grid."""
    grid = causal_structure(basis)
    worst = 0.0
    for alpha, beta in itertools.product(range(grid.r_a), range(grid.r_b)):
        members = list(grid.cells[alpha][beta])
        rebuilt = cell_states(grid.rows[alpha], grid.unitaries[members], grid.cols[beta])
        worst = max(worst, float(np.abs(rebuilt - basis.vectors[members]).max()))
    return worst


@pytest.mark.parametrize("seed", [1, 11])
def test_formula_rebuilds_every_causal_corpus_basis(corpus_of_seed, seed):
    causal = [(label, basis) for label, basis in corpus_of_seed(seed)
              if semicausal_basis_test(basis, "A").semicausal
              and semicausal_basis_test(basis, "B").semicausal]
    assert len(causal) >= 15
    for label, basis in causal:
        assert _rebuild_error(basis) < 1e-12, label


def test_formula_rebuilds_rotated_grids_and_twisted_cells(twisted_cell_basis):
    rng = np.random.default_rng(8)
    cases = [causal_grid_basis(BiDims(8, 8), d, rng) for d in (1, 2, 4, 8)]
    cases += [twisted_cell_basis(6, 3, haar_unitary(3, rng)),
              rotate_basis(twisted_cell_basis(4, 2, haar_unitary(2, rng)),
                           haar_unitary(4, rng), haar_unitary(4, rng))]
    for basis in cases:
        assert _rebuild_error(basis) < 1e-12


def test_cell_states_broadcasts_over_cells():
    rng = np.random.default_rng(2)
    rows = np.stack([haar_unitary(4, rng)[:, :2] for _ in range(2)])
    cols = np.stack([haar_unitary(6, rng)[:, :2] for _ in range(3)])
    unitaries = np.stack([haar_unitary(2, rng) for _ in range(4)])
    batched = cell_states(rows[:, None, None], unitaries, cols[None, :, None])
    assert batched.shape == (2, 3, 4, 24)
    for alpha, beta, k in itertools.product(range(2), range(3), range(4)):
        one = rows[alpha] @ unitaries[k] @ cols[beta].T / np.sqrt(2)
        assert np.abs(batched[alpha, beta, k] - one.reshape(-1)).max() < 1e-15


@pytest.mark.parametrize("d", [0, -1])
def test_grid_rejects_cell_dimension_below_one(d):
    with pytest.raises(ValueError, match="at least 1"):
        causal_grid_basis(BiDims(4, 4), d)


# ---------------------------------------------------------------------------
# Byte-identity oracles: the generators' former loops
# ---------------------------------------------------------------------------

def _grid_oracle(dims: BiDims, d: int) -> np.ndarray:
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
    return np.stack(vecs)


def _partition_oracle(dims: BiDims, part_dims: tuple[int, ...]) -> np.ndarray:
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
    return np.stack(vecs)


_S = 1 / np.sqrt(2)
_BELL_LITERAL = [
    np.array([_S, 0, 0, _S], dtype=complex),
    np.array([_S, 0, 0, -_S], dtype=complex),
    np.array([0, _S, _S, 0], dtype=complex),
    np.array([0, _S, -_S, 0], dtype=complex),
]


def _twisted_oracle(u_b: np.ndarray) -> np.ndarray:
    def embed_pair_state(state, row, col):
        v = np.zeros(16, dtype=complex)
        for i in range(2):
            for j in range(2):
                v[(row + i) * 4 + (col + j)] = state[i * 2 + j]
        return v

    block = np.eye(4, dtype=complex)
    block[2:, 2:] = u_b
    rot = tensor_product(np.eye(4, dtype=complex), block)
    vecs = []
    for row in (0, 2):
        for col in (0, 2):
            quadrant = [embed_pair_state(s, row, col) for s in _BELL_LITERAL]
            if (row, col) == (2, 2):
                quadrant = [rot @ v for v in quadrant]
            vecs.extend(quadrant)
    return np.stack(vecs)


def _me_oracle(unitaries) -> np.ndarray:
    d = unitaries[0].shape[0]
    phi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.stack([tensor_product(u, np.eye(d, dtype=complex)) @ phi for u in unitaries])


def _compositions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for k in range(1, min(n, cap) + 1):
        for rest in _compositions(n - k, cap):
            yield (k,) + rest


def test_grid_matches_loop_oracle_bytes():
    for na, nb in itertools.product(range(1, 9), repeat=2):
        for d in range(1, min(na, nb) + 1):
            if na % d == 0 and nb % d == 0:
                dims = BiDims(na, nb)
                got = causal_grid_basis(dims, d).vectors
                assert got.tobytes() == _grid_oracle(dims, d).tobytes(), (na, nb, d)


def test_rotated_grid_matches_rotated_oracle_bytes():
    for dims, d in ((BiDims(4, 6), 2), (BiDims(6, 6), 3), (BiDims(8, 8), 4)):
        got = causal_grid_basis(dims, d, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        full = tensor_product(haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))
        expected = np.stack([full @ v for v in _grid_oracle(dims, d)])
        assert got.vectors.tobytes() == expected.tobytes()


def test_partition_matches_loop_oracle_bytes():
    for na, nb in itertools.product(range(1, 7), repeat=2):
        for parts in _compositions(na, nb):
            dims = BiDims(na, nb)
            got = semicausal_partition_basis(dims, parts).vectors
            assert got.tobytes() == _partition_oracle(dims, parts).tobytes(), (na, nb, parts)


def test_product_basis_matches_identity_columns_bytes():
    for na, nb in itertools.product(range(1, 6), repeat=2):
        eye = np.eye(na * nb, dtype=complex)
        assert product_basis(BiDims(na, nb)).vectors.tobytes() == eye.tobytes()


def test_bell_states_match_literal_bytes():
    assert np.stack(bell_states()).tobytes() == np.stack(_BELL_LITERAL).tobytes()


def test_twisted_basis_matches_embedding_oracle_bytes():
    rng = np.random.default_rng(5)
    twists = [np.eye(2, dtype=complex), HADAMARD, PAULI_X]
    twists += [haar_unitary(2, rng) for _ in range(10)]
    for u_b in twists:
        assert twisted_partition_basis(u_b).vectors.tobytes() == _twisted_oracle(u_b).tobytes()


def test_me_basis_matches_kron_oracle_bytes():
    cases = [mismatch_unitaries()]
    for d in range(2, 6):
        x, z = generalized_pauli(d)
        cases.append([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                      for a in range(d) for b in range(d)])
    for unitaries in cases:
        got = me_basis_from_unitaries(unitaries).vectors
        assert got.tobytes() == _me_oracle(unitaries).tobytes()
