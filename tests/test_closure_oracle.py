"""The cell-table closure scan against an independent per-cell reference search.

``closure_obstruction_search`` scores every triple of a causal grid, in every
cell including the anchor's, by its overlaps with the cell's states, read off
``causal_structure``'s cell unitaries, and hands the triples whose residual
reaches the bar to ``eigenstate_closure_test`` until one certifies. The
reference below never reads the cell unitaries: cell by cell, in the same
(alpha, beta, u, a, b) order, it builds each joint state (a (x) b) psi_u from
the basis vectors and the two local moves, reads its residual
sqrt(1 - sum_k |<b_k|J>|**4) off the basis, and runs the full
``eigenstate_closure_test`` on the measurement channel for each triple at or
above the bar. Both skip a triple whose premise fails, both must certify the
same triple with the same joint state and residual, and both must find nothing
on an untwisted grid.
"""

import time

import numpy as np
import pytest

from qcausal import localizability
from qcausal.channels import measurement_channel
from qcausal.linalg import (
    ATOL,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    BiDims,
    alignment_unitary,
    haar_unitary,
)
from qcausal.localizability import (
    PreconditionError,
    closure_obstruction_search,
    eigenstate_closure_test,
    twisted_partition_basis,
)
from qcausal.measurements import (
    OrthogonalBasis,
    causal_grid_basis,
    causal_structure,
    rotate_basis,
)


def _cell_shift(basis, src_idx, dst_idx, side):
    """The local unitary on ``side`` that moves basis state src onto dst."""
    src, dst = (basis.vectors[k].reshape(basis.dims) for k in (src_idx, dst_idx))
    if side == "B":
        src, dst = src.T, dst.T
    return alignment_unitary(src, dst)


def _reference_search(basis):
    grid = causal_structure(basis)
    ch = measurement_channel(basis)
    states = basis.vectors.reshape(-1, *basis.dims)
    for alpha in range(grid.r_a):
        for beta in range(grid.r_b):
            src, dst_a, dst_b = grid.cells[0][0], grid.cells[alpha][0], grid.cells[0][beta]
            moves_a = np.array([[_cell_shift(basis, u, a, "A") for a in dst_a] for u in src])
            moves_b = np.array([[_cell_shift(basis, u, b, "B") for b in dst_b] for u in src])
            # (a (x) b) vec(psi) = vec(a psi b^T)
            joint = np.einsum("uaij,ujk,ublk->uabil", moves_a, states[list(src)], moves_b,
                              optimize=True).reshape(len(src), len(dst_a), len(dst_b), -1)
            joint /= np.linalg.norm(joint, axis=-1, keepdims=True)
            p = np.abs(joint @ basis.vectors.conj().T) ** 2
            residual = np.sqrt(np.maximum(1 - (p ** 2).sum(axis=-1), 0))
            for u, a, b in np.argwhere(residual >= ATOL * ch.dim):
                try:
                    cert = eigenstate_closure_test(ch, basis.vectors[src[u]],
                                                   moves_a[u, a], moves_b[u, b])
                except PreconditionError:
                    continue
                if cert is not None:
                    return cert
    return None


def _grid_of(cells):
    """The causal grid whose cell (alpha, beta) holds the maximally entangled
    states (U (x) I)|Phi+> of the unitaries ``cells[alpha][beta]``, in order."""
    d = cells[0][0][0].shape[0]
    n = len(cells) * d
    vecs = []
    for alpha, row in enumerate(cells):
        for beta, unitaries in enumerate(row):
            for u in unitaries:
                m = np.zeros((n, n), dtype=complex)
                m[alpha * d:(alpha + 1) * d, beta * d:(beta + 1) * d] = u / np.sqrt(d)
                vecs.append(m.reshape(-1))
    return OrthogonalBasis(tuple(vecs), BiDims(n, n))


def _noncommuting_grid(rng):
    """A 4x4 grid, d=2, on which W_a W_u^dag W_b and W_b W_u^dag W_a certify
    different triples. Cell (0, 0) starts with X, cells (1, 0) and (0, 1)
    start with I, and cell (1, 1) is X times the turned Paulis of cell (0, 1):
    the triples (X, I, b) all close, (X, Z, I) is the first that does not."""
    x, z = PAULI_X, PAULI_Z
    paulis = [np.eye(2), z, x, x @ z]
    turn = haar_unitary(2, rng)
    turned = [turn @ p @ turn.conj().T for p in paulis]
    return _grid_of([[[x, np.eye(2), z, x @ z], turned],
                     [paulis, [x @ t for t in turned]]])


def _rotated(basis, rng):
    na, nb = basis.dims
    return rotate_basis(basis, haar_unitary(na, rng), haar_unitary(nb, rng))


def _obstructed_cases(twisted_cell_basis, rng):
    quadrants = [twisted_partition_basis(HADAMARD), twisted_partition_basis(haar_unitary(2, rng))]
    cell_6 = twisted_cell_basis(6, 3, haar_unitary(3, rng))
    cases = quadrants + [_rotated(b, rng) for b in quadrants] + [cell_6, _rotated(cell_6, rng)]
    cases += [_rotated(twisted_cell_basis(8, d, haar_unitary(d, rng)), rng) for d in (2, 4)]
    noncommuting = _noncommuting_grid(rng)
    return cases + [noncommuting, _rotated(noncommuting, rng)]


def test_obstructed_grids_match_the_loop(twisted_cell_basis, monkeypatch):
    # the scan hands eigenstate_closure_test the triple it certifies and no other
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigenstate_closure_test(*args, **kwargs)

    monkeypatch.setattr(localizability, "eigenstate_closure_test", counted)
    rng = np.random.default_rng(7)
    for basis in _obstructed_cases(twisted_cell_basis, rng):
        expected = _reference_search(basis)
        calls.clear()
        cert = closure_obstruction_search(basis, causal_structure(basis))
        assert expected is not None and cert is not None and len(calls) == 1
        assert cert.kind == expected.kind and cert.residual == expected.residual
        for key in ("psi", "a", "b", "joint_state"):
            assert np.array_equal(cert.evidence[key], expected.evidence[key]), key


@pytest.mark.parametrize("d", [2, 3])
def test_untwisted_6x6_grids_match_the_loop(d):
    basis = causal_grid_basis(BiDims(6, 6), d)
    assert _reference_search(basis) is None
    assert closure_obstruction_search(basis, causal_structure(basis)) is None


@pytest.mark.parametrize("d", [2, 4])
def test_untwisted_8x8_grids_certify_nothing(d):
    # the grid twirl reproduces these measurements exactly, so no certificate can exist
    basis = causal_grid_basis(BiDims(8, 8), d)
    assert closure_obstruction_search(basis, causal_structure(basis)) is None


def test_full_8x8_scan_is_fast():
    # every cell is scored, the anchor's too: 4 cells of d**6 = 4,096 triples, 16,384 in all
    basis = causal_grid_basis(BiDims(8, 8), 4, np.random.default_rng(3))
    start = time.perf_counter()
    assert closure_obstruction_search(basis, causal_structure(basis)) is None
    assert time.perf_counter() - start < 2.0
