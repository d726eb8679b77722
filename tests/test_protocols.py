import numpy as np

from qcausal.causality import B_TO_A, semicausal_test
from qcausal.channels import apply, channel_distance, measurement_channel, validate
from qcausal.linalg import (
    BiDims,
    HADAMARD,
    PAULI_X,
    haar_unitary,
    proj,
    random_density_matrix,
    random_pure_state,
    tensor_product,
)
from qcausal.localizability import twisted_partition_basis
from qcausal.measurements import (
    bell_basis,
    bell_states,
    causal_grid_basis,
    conditional_basis,
    product_basis,
    rotate_basis,
    semicausal_partition_basis,
    semicausal_structure,
)
from qcausal.protocols import (
    BELL_LABELS,
    bell_circuit_channel,
    branch_weights,
    entanglement_swap_channel,
    sample_branch,
    semilocal_channel,
    swap_outcome,
    twisted_partition_protocol_kraus,
)
from qcausal.twirl import bell_twirl

D22 = BiDims(2, 2)


def _semicausal_fixture_bases(rng):
    return [
        ("bell", bell_basis()),
        ("product", product_basis(D22)),
        ("conditional", conditional_basis()),
        ("partition-3x2", semicausal_partition_basis(BiDims(3, 2), (2, 1), rng)),
        ("twisted-h", twisted_partition_basis(HADAMARD)),
        ("grid-6x6", causal_grid_basis(BiDims(6, 6), 2, rng)),
    ]


def _branch_output(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The normalized state a branch leaves."""
    out = k @ rho @ k.conj().T
    return out / np.trace(out).real


def test_semilocal_eigenstate_input_is_deterministic():
    protocol = semilocal_channel(bell_basis())
    rho = proj(bell_states()[0])
    rng = np.random.default_rng(0)
    for _ in range(6):
        assert sample_branch(protocol, rho, rng) == 0
    assert np.linalg.norm(_branch_output(protocol.kraus[0], rho) - rho) < 1e-9


def test_semilocal_conditional_basis_product_input():
    basis = conditional_basis()
    weights = branch_weights(semilocal_channel(basis), proj([1, 0, 0, 0]))
    # oracle: <a|rho|a> directly
    expected = [abs(np.vdot(basis.vectors[a], [1, 0, 0, 0])) ** 2 for a in range(4)]
    assert np.max(np.abs(weights - expected)) < 1e-12
    assert abs(weights[0] - 1) < 1e-12


def test_semilocal_branches_match_direct_probabilities(rng):
    for name, basis in _semicausal_fixture_bases(rng):
        protocol = semilocal_channel(basis)
        rho = random_density_matrix(basis.dims.total, rng)
        weights = branch_weights(protocol, rho)
        for a, k in enumerate(protocol.kraus):
            direct = np.vdot(basis.vectors[a], rho @ basis.vectors[a]).real
            assert abs(weights[a] - direct) < 1e-9, name
            assert np.linalg.norm(_branch_output(k, rho) - proj(basis.vectors[a])) < 1e-9, name


def test_semilocal_protocol_channel_equality(rng):
    rotated = rotate_basis(causal_grid_basis(BiDims(6, 6), 2, rng),
                           haar_unitary(6, rng), haar_unitary(6, rng))
    for name, basis in _semicausal_fixture_bases(rng) + [("rotated-grid-6x6", rotated)]:
        protocol = semilocal_channel(basis)
        assert validate(protocol).tp, name
        assert channel_distance(protocol, measurement_channel(basis)) < 1e-9, name


def test_semilocal_branches_are_one_way(rng):
    """Alice's factor depends on A's subspace alone: the branches of subspace
    alpha together act on B as the identity."""
    for name, basis in _semicausal_fixture_bases(rng):
        protocol = semilocal_channel(basis)
        ks = protocol.kraus
        for sub in semicausal_structure(basis, "A"):
            members = ks[list(sub.member_indices)]
            effect = np.einsum("kji,kjl->il", members.conj(), members)
            target = tensor_product(sub.projector, np.eye(basis.dims.dim_b))
            assert np.linalg.norm(effect - target) < 1e-9, name
        assert semicausal_test(protocol, B_TO_A), name


def test_semilocal_outcome_frequencies(rng):
    protocol = semilocal_channel(bell_basis())
    rho = random_density_matrix(4, rng)
    n = 10_000
    draw = np.random.default_rng(5)
    outcomes = np.array([sample_branch(protocol, rho, draw) for _ in range(n)])
    for a in range(4):
        p = np.vdot(bell_basis().vectors[a], rho @ bell_basis().vectors[a]).real
        freq = np.mean(outcomes == a)
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(freq - p) < 4 * sigma + 1e-9


def test_sample_branch_repeats_for_fixed_seed(rng):
    protocol = semilocal_channel(conditional_basis())
    rho = random_density_matrix(4, rng)
    first, second = ([sample_branch(protocol, rho, g) for _ in range(50)]
                     for g in (np.random.default_rng(7), np.random.default_rng(7)))
    assert first == second and len(set(first)) > 1


def test_bell_circuit_equals_bell_measurement():
    circuit = bell_circuit_channel()
    assert validate(circuit).tp
    assert channel_distance(circuit, measurement_channel(bell_basis())) < 1e-9
    assert channel_distance(circuit, bell_twirl()) < 1e-9


def test_bell_circuit_action_examples():
    circuit = bell_circuit_channel()
    phi = proj(bell_states()[0])
    assert np.linalg.norm(apply(circuit, phi) - phi) < 1e-12
    # oracle: expanding |00><00| over Bell projectors
    e00 = proj([1, 0, 0, 0])
    expected = (proj(bell_states()[0]) + proj(bell_states()[1])) / 2
    assert np.linalg.norm(apply(circuit, e00) - expected) < 1e-12


def test_swap_channel_equals_bell_measurement():
    swap = entanglement_swap_channel()
    assert validate(swap).tp
    assert len(swap.kraus) == 16
    assert channel_distance(swap, measurement_channel(bell_basis())) < 1e-9
    assert channel_distance(swap, bell_circuit_channel()) < 1e-9


def test_swap_branches_are_rank_one_bell_projections(rng):
    bells = bell_states()
    psi = random_pure_state(4, rng)  # entangled with probability one
    assert np.linalg.matrix_rank(psi.reshape(2, 2), tol=1e-6) == 2
    for branch, k in enumerate(entanglement_swap_channel().kraus):
        index, record = swap_outcome(branch)
        assert np.linalg.matrix_rank(k, tol=1e-9) == 1
        target = proj(bells[index])
        assert np.linalg.norm(target @ k - k) < 1e-9
        assert np.linalg.norm(_branch_output(k, proj(psi)) - target) < 1e-9
        assert record["correction_on_a"] in ("I", "X", "Z", "ZX")


def test_swap_demo_parity_definite_inputs():
    swap = entanglement_swap_channel()
    for label, vec, allowed in [
        ("00", [1, 0, 0, 0], {"phi+", "phi-"}),
        ("01", [0, 1, 0, 0], {"psi+", "psi-"}),
    ]:
        weights = branch_weights(swap, proj(vec))
        by_label = {name: 0.0 for name in BELL_LABELS}
        for branch, w in enumerate(weights):
            by_label[BELL_LABELS[swap_outcome(branch)[0]]] += w
        for name, total in by_label.items():
            assert abs(total - (0.5 if name in allowed else 0.0)) < 1e-12, label


def test_swap_demo_statistics_follow_born_rule(rng):
    swap = entanglement_swap_channel()
    product = np.kron(np.array([np.cos(0.4), np.sin(0.4)]),
                      np.array([np.cos(1.1), 1j * np.sin(1.1)]))
    for vec in (product, random_pure_state(4, rng)):
        weights = branch_weights(swap, proj(vec))
        by_index = np.zeros(4)
        np.add.at(by_index, [swap_outcome(b)[0] for b in range(16)], weights)
        born = [abs(np.vdot(b, vec)) ** 2 for b in bell_states()]
        assert np.max(np.abs(by_index - born)) < 1e-12


def test_twisted_protocol_channel_equality():
    for u in (np.eye(2), HADAMARD, PAULI_X):
        protocol = twisted_partition_protocol_kraus(u)
        assert validate(protocol).tp
        target = measurement_channel(twisted_partition_basis(u))
        assert channel_distance(protocol, target) < 1e-9


def test_twisted_protocol_rows_are_one_way():
    """Alice's row measurement is her only step before the bit reaches Bob:
    the branches of each row together act as the row block (x) identity."""
    blocks = [np.diag([1, 1, 0, 0]), np.diag([0, 0, 1, 1])]
    for u in (np.eye(2), HADAMARD, PAULI_X):
        protocol = twisted_partition_protocol_kraus(u)
        ks = protocol.kraus
        for row in range(2):
            members = ks[8 * row: 8 * row + 8]
            effect = np.einsum("kji,kjl->il", members.conj(), members)
            assert np.linalg.norm(effect - tensor_product(blocks[row], np.eye(4))) < 1e-9
        assert semicausal_test(protocol, B_TO_A)


def test_twisted_protocol_identity_reduces_to_quadrant_twirl():
    protocol = twisted_partition_protocol_kraus(np.eye(2))
    target = measurement_channel(twisted_partition_basis(np.eye(2)))
    assert channel_distance(protocol, target) < 1e-9
