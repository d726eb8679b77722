"""One formula per construction family, checked against the loops it replaced.

The grid twirl and the twisted one-way protocol share ``twirl.cell_twirl_kraus``;
the swap corrections are read from the Bell cell's table; the AND-box and the
compiled entangled strategy share one measure-and-prepare builder. The oracles
below are the former per-branch builders. Every stack must match them byte for
byte, except the twisted protocol, whose zeros may carry the other sign, so it
is compared with ``np.array_equal``. The demos that decode these branches are
pinned by their printed text.
"""

import itertools
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import games
from qcausal.cli import main
from qcausal.games import (
    QuantumStrategy,
    and_box_channel,
    entangled_local_protocol,
    ip_demo,
    joint_outcome_distribution,
    optimal_quantum_strategy,
)
from qcausal.linalg import (
    HADAMARD,
    I2,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    BiDims,
    basis_vector,
    dag,
    haar_unitary,
    tensor_product,
)
from qcausal.localizability import twisted_partition_basis
from qcausal.measurements import _blocks, bell_states, causal_grid_basis, causal_structure
from qcausal.protocols import (
    _copy_isometry,
    entanglement_swap_channel,
    swap_outcome,
    twisted_partition_protocol_kraus,
)
from qcausal.serialize import load_document
from qcausal.twirl import grid_twirl_channel

# ---------------------------------------------------------------------------
# Oracles: the former builders
# ---------------------------------------------------------------------------

def _grid_twirl_oracle(basis, grid) -> np.ndarray:
    group = grid.unitaries[list(grid.cells[0][0])][:, None]  # (g, 1, d, d)
    f, e = grid.rows, grid.cols
    a = f @ group @ f.conj().transpose(0, 2, 1)  # (g, alpha, A, A)
    b = e @ group.conj() @ e.conj().transpose(0, 2, 1)  # (g, beta, B, B)
    kraus = a[:, :, None, :, None, :, None] * b[:, None, :, None, :, None, :] / grid.d
    return kraus.reshape(-1, basis.dims.total, basis.dims.total)


def _twisted_protocol_oracle(u_b: np.ndarray) -> np.ndarray:
    quadrants = _blocks(4, 2)
    blocks = quadrants @ quadrants.transpose(0, 2, 1)
    kraus = []
    for alpha in range(2):
        for beta in range(2):
            for sigma in PAULIS.values():
                a_op = tensor_product(I2, sigma)
                bob_sigma = u_b @ sigma @ dag(u_b) if (alpha, beta) == (1, 1) else sigma
                b_op = tensor_product(I2, bob_sigma)
                k = tensor_product(a_op, b_op) @ tensor_product(blocks[alpha], blocks[beta])
                kraus.append(k / 2)
    return np.stack(kraus)


def _swap_oracle() -> np.ndarray:
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    w = _copy_isometry(tensor_product(basis_vector(2, 0), basis_vector(2, 0), plus, plus))
    bells = np.stack(bell_states()).conj()
    raw = np.einsum("xrsy,ir,js->ijxy", w, bells, bells, optimize=True).reshape(16, 4, 4)
    corrections = []
    for branch in range(16):
        record = swap_outcome(branch)[1]
        c = ((PAULI_Z if record["stray_phase_flip"] else I2)
             @ (PAULI_X if record["stray_parity_flip"] else I2))
        corrections.append(tensor_product(c, I2))
    return np.stack(corrections) @ raw


def _and_box_literal() -> np.ndarray:
    wins = [(2 * x + y, 2 * a + b) for x, y, a, b in itertools.product((0, 1), repeat=4)
            if a ^ b == x & y]
    kraus = np.zeros((len(wins), 4, 4), dtype=complex)
    for k, (xy, ab) in enumerate(wins):
        kraus[k, ab, xy] = 1 / np.sqrt(2)
    return kraus


def _strategy_oracle(s: QuantumStrategy) -> np.ndarray:
    kraus = []
    for x, y in itertools.product((0, 1), repeat=2):
        dist = joint_outcome_distribution(s, x, y)
        ket_in = basis_vector(4, 2 * x + y)
        for a, b in itertools.product((0, 1), repeat=2):
            weight = np.sqrt(max(dist[a, b], 0.0))
            if weight < 1e-12:
                continue
            kraus.append(weight * np.outer(basis_vector(4, 2 * a + b), ket_in.conj()))
    return np.stack(kraus)


def _same_bytes(built: np.ndarray, oracle: np.ndarray) -> bool:
    return built.shape == oracle.shape and built.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------------------
# Cell twirl: the grid twirl and the twisted one-way protocol
# ---------------------------------------------------------------------------

_GRIDS = [(BiDims(2, 2), 1), (BiDims(2, 2), 2), (BiDims(3, 3), 3), (BiDims(4, 2), 2),
          (BiDims(4, 4), 2), (BiDims(6, 6), 3), (BiDims(8, 8), 2)]


@pytest.mark.parametrize("dims, d", _GRIDS)
@pytest.mark.parametrize("rotated", [False, True])
def test_grid_twirl_matches_former_product_by_bytes(dims, d, rotated):
    basis = causal_grid_basis(dims, d, np.random.default_rng(dims.total + d) if rotated else None)
    grid = causal_structure(basis)
    assert _same_bytes(grid_twirl_channel(basis, grid).kraus, _grid_twirl_oracle(basis, grid))


@pytest.mark.parametrize("u_b", [np.eye(2, dtype=complex), HADAMARD], ids=["I", "H"])
def test_grid_twirl_of_twisted_quadrant_matches_by_bytes(u_b):
    basis = twisted_partition_basis(u_b)
    grid = causal_structure(basis)
    assert _same_bytes(grid_twirl_channel(basis, grid).kraus, _grid_twirl_oracle(basis, grid))


def test_grid_twirl_of_twisted_cells_matches_by_bytes(twisted_cell_basis):
    rng = np.random.default_rng(12)
    for n, d in ((4, 2), (6, 3)):
        basis = twisted_cell_basis(n, d, haar_unitary(d, rng))
        grid = causal_structure(basis)
        assert _same_bytes(grid_twirl_channel(basis, grid).kraus,
                           _grid_twirl_oracle(basis, grid))


_TWISTS = [np.eye(2, dtype=complex), HADAMARD, PAULI_X] + [
    haar_unitary(2, np.random.default_rng(seed)) for seed in range(4)]


@pytest.mark.parametrize("u_b", _TWISTS, ids=["I", "H", "X", "haar0", "haar1", "haar2", "haar3"])
def test_twisted_protocol_matches_former_loop(u_b):
    kraus = twisted_partition_protocol_kraus(u_b).kraus
    assert kraus.shape == (16, 16, 16)
    assert np.array_equal(kraus, _twisted_protocol_oracle(u_b))


def test_twisted_protocol_is_the_twirl_with_bob_group_chosen_by_row():
    # branch 8 * row + 4 * column + pauli: Alice's factor fixed by (row, pauli),
    # Bob's by (row, column, pauli); his Pauli is twisted only in cell (1, 1)
    u_b = haar_unitary(2, np.random.default_rng(9))
    kraus = twisted_partition_protocol_kraus(u_b).kraus.reshape(2, 2, 4, 4, 4, 4, 4)
    quadrants = _blocks(4, 2)
    for row, column, (g, sigma) in itertools.product(range(2), range(2),
                                                      enumerate(PAULIS.values())):
        bob = u_b @ sigma @ dag(u_b) if (row, column) == (1, 1) else sigma
        a = quadrants[row] @ sigma @ quadrants[row].T
        b = quadrants[column] @ bob @ quadrants[column].T
        expected = np.einsum("ik,jl->ijkl", a, b) / 2
        assert np.abs(kraus[row, column, g] - expected).max() < 1e-15


# ---------------------------------------------------------------------------
# Bell cell: the swap corrections
# ---------------------------------------------------------------------------

def test_swap_channel_matches_former_corrections_by_bytes():
    assert _same_bytes(entanglement_swap_channel().kraus, _swap_oracle())


# ---------------------------------------------------------------------------
# Measure-and-prepare: the AND-box and compiled strategies
# ---------------------------------------------------------------------------

def test_and_box_matches_literal_and_bundled_fixture_by_bytes():
    kraus = and_box_channel().kraus
    assert _same_bytes(kraus, _and_box_literal())
    bundled = resources.files("qcausal") / "fixtures" / "andbox.json"
    assert _same_bytes(kraus, load_document(str(bundled)).kraus)


def test_optimal_strategy_matches_former_compiler_by_bytes():
    s = optimal_quantum_strategy()
    assert _same_bytes(entangled_local_protocol(s).kraus, _strategy_oracle(s))


def test_product_strategy_drops_zero_branches_as_before():
    # |00> measured with Z everywhere: one outcome per input, so 4 branches
    s = QuantumStrategy(np.array([1, 0, 0, 0]), PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    kraus = entangled_local_protocol(s).kraus
    assert kraus.shape == (4, 4, 4)
    assert _same_bytes(kraus, _strategy_oracle(s))
    # amplitudes 1e-13, under the 1e-12 cutoff, are dropped too
    state = np.array([1, 1e-13, 0, 0]) / np.sqrt(1 + 1e-26)
    s = QuantumStrategy(state, PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    kraus = entangled_local_protocol(s).kraus
    assert kraus.shape == (4, 4, 4)
    assert _same_bytes(kraus, _strategy_oracle(s))


def _observable(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "haar":
        v = haar_unitary(2, rng)
        return v @ PAULI_Z @ dag(v)
    return {"Z": PAULI_Z, "X": PAULI_X, "I": I2, "-I": -I2}[kind]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["haar", "product", "bell"]),
       st.lists(st.sampled_from(["haar", "Z", "X", "I", "-I"]), min_size=4, max_size=4))
def test_drawn_strategies_match_former_compiler_by_bytes(seed, state_kind, kinds):
    rng = np.random.default_rng(seed)
    if state_kind == "haar":
        state = haar_unitary(4, rng)[:, 0]
    elif state_kind == "product":
        state = np.kron(haar_unitary(2, rng)[:, 0], haar_unitary(2, rng)[:, 0])
    else:
        state = bell_states()[int(rng.integers(4))]
    s = QuantumStrategy(state, *(_observable(k, rng) for k in kinds))
    assert _same_bytes(entangled_local_protocol(s).kraus, _strategy_oracle(s))


def test_ip_demo_draws_every_position_from_the_box(monkeypatch):
    calls = []
    sample = games.sample_branch

    def recording(ch, rho, rng):
        calls.append(ch)
        return sample(ch, rho, rng)

    monkeypatch.setattr(games, "sample_branch", recording)
    assert ip_demo("1101", "1011", seed=3) == 0
    assert len(calls) == 4
    assert all(_same_bytes(ch.kraus, and_box_channel().kraus) for ch in calls)


@pytest.mark.parametrize("seed", [0, 1])
def test_ip_demo_returns_the_inner_product(seed):
    for n in range(1, 5):
        for x, y in itertools.product(itertools.product("01", repeat=n), repeat=2):
            expected = sum(int(a) & int(b) for a, b in zip(x, y)) % 2
            assert ip_demo("".join(x), "".join(y), seed) == expected


# ---------------------------------------------------------------------------
# Demos that decode the branches: printed text as before the formulas
# ---------------------------------------------------------------------------

_DEMO_TEXT = {
    ("swap",): "input |00>, 200 runs:\n  phi+: 106\n  phi-: 94\n"
               "last run correction record: {'correction_on_a': 'Z', "
               "'stray_phase_flip': True, 'stray_parity_flip': False}\n",
    ("swap", "--input", "01", "--seed", "3"):
        "input |01>, 200 runs:\n  psi+: 94\n  psi-: 106\n"
        "last run correction record: {'correction_on_a': 'Z', "
        "'stray_phase_flip': True, 'stray_parity_flip': False}\n",
    ("swap", "--input", "11", "--seed", "7", "--shots", "50"):
        "input |11>, 50 runs:\n  phi+: 22\n  phi-: 28\n"
        "last run correction record: {'correction_on_a': 'ZX', "
        "'stray_phase_flip': True, 'stray_parity_flip': True}\n",
    ("ip",): "1\n",
    ("ip", "--x", "1101", "--y", "1011", "--seed", "4"): "0\n",
}

_TWISTED_TEXT = {
    ("x", "0"): "sampled run: row 0, column 1, Pauli Z",
    ("hadamard", "0"): "sampled run: row 0, column 1, Pauli Z",
    ("identity", "0"): "sampled run: row 0, column 1, Pauli Z",
    ("hadamard", "5"): "sampled run: row 1, column 1, Pauli X",
}


@pytest.mark.parametrize("args", list(_DEMO_TEXT), ids=" ".join)
def test_demo_text_is_unchanged(capsys, args):
    assert main(["demo", *args]) == 0
    assert capsys.readouterr().out == _DEMO_TEXT[args]


@pytest.mark.parametrize("twist, seed", list(_TWISTED_TEXT))
def test_twisted_demo_text_is_unchanged(capsys, twist, seed):
    assert main(["demo", "twisted", "--u", twist, "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the Choi distance is a rounding residual (1.78e-15 on x86-64 with OpenBLAS),
    # so its digits are checked by size, not by text
    match = re.fullmatch(r"protocol channel == twisted basis channel: True "
                         r"\(Choi distance (\S+)\)", lines[1])
    assert match and float(match.group(1)) < 1e-12
    assert lines[0] == f"twist: {twist}"
    assert lines[2:] == [_TWISTED_TEXT[twist, seed], "one-way: True"]
