"""A sampler over the paper's structure theorem, and the decided count on it.

Every causal complete measurement is a grid of r_a x r_b cells of dimension d,
each cell a maximally entangled set of d**2 trace-orthogonal unitaries, in
local frames over the whole basis. The sampler draws such bases: d in
{2, 3, 4}, up to 8 / d cells per side, Haar local frames, and each cell from
HW(d), Pauli (x) Pauli and the mismatch set at d = 4, or G V and V G V^dag for
such a set G and a Haar V. Every draw must be decided: localizable by
construction or not localizable with a certificate, never "no obstruction
found", one-row and one-column grids included.
"""

import numpy as np

from qcausal.linalg import PAULI_X, PAULI_Z, BiDims, haar_unitary
from qcausal.localizability import closure_obstruction_search, mismatch_unitaries
from qcausal.measurements import (
    OrthogonalBasis,
    _blocks,
    _phase_unitaries,
    causal_structure,
    cell_states,
    rotate_basis,
)
from qcausal.report import classify_basis

PAULIS = [np.eye(2), PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z]


def _cell(d: int, rng: np.random.Generator) -> np.ndarray:
    """The (d**2, d, d) unitaries of one cell."""
    sets = [_phase_unitaries(d)]
    if d == 4:
        sets += [np.stack([np.kron(p, q) for p in PAULIS for q in PAULIS]),
                 np.stack(mismatch_unitaries())]
    g = sets[rng.integers(len(sets))]
    v = haar_unitary(d, rng)
    return [g, g @ v, v @ g @ v.conj().T][rng.integers(3)]


def structure_basis(rng: np.random.Generator) -> OrthogonalBasis:
    d = int(rng.choice([2, 3, 4]))
    r_a, r_b = rng.integers(1, 8 // d + 1, size=2)
    cells = np.stack([np.stack([_cell(d, rng) for _ in range(r_b)]) for _ in range(r_a)])
    dims = BiDims(int(r_a) * d, int(r_b) * d)
    states = cell_states(_blocks(dims.dim_a, d)[:, None, None], cells,
                         _blocks(dims.dim_b, d)[None, :, None])
    basis = OrthogonalBasis(states.reshape(-1, dims.total), dims)
    return rotate_basis(basis, haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng))


def test_every_structure_draw_is_decided():
    verdicts = []
    for seed in range(100):
        basis = structure_basis(np.random.default_rng(seed))
        report = classify_basis(basis)
        assert report.causal, seed
        assert not report.localizability.startswith("no obstruction found"), (seed, basis.dims)
        if report.localizability.startswith("localizable by construction"):
            # the scan never certifies a measurement that the grid twirl reproduces
            assert closure_obstruction_search(basis, causal_structure(basis)) is None, seed
        verdicts.append(report.localizability)
    # both verdicts occur, so the sampler reaches the constructions and the scan
    assert len(set(verdicts)) >= 2
