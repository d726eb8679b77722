import numpy as np
import pytest

from qcausal.linalg import (
    PAULI_X,
    PAULI_Z,
    HADAMARD,
    BiDims,
    haar_unitary,
    hermitian_spectrum,
    max_entangled,
    operator_schmidt,
    partial_trace,
    proj,
    random_density_matrix,
    random_pure_state,
    schmidt_vectors,
    tensor_product,
    trace_distance,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_tensor_product_identity():
    assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_eigenstates():
    zz = tensor_product(PAULI_Z, PAULI_Z)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(zz @ e00, e00)
    xx = tensor_product(PAULI_X, PAULI_X)
    phi_plus = max_entangled(2)
    assert np.allclose(xx @ phi_plus, phi_plus)
    assert np.allclose(zz @ phi_plus, phi_plus)


def test_tensor_product_mixed_product_identity(rng):
    for d in (2, 3):
        a, b, c, e = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                      for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, e)
        rhs = tensor_product(a @ c, b @ e)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * d * d
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(tensor_product(tensor_product(a, b), c),
                       tensor_product(a, tensor_product(b, c)))


def test_partial_trace_product_case(rng):
    rho_a = random_density_matrix(2, rng)
    rho_b = 0.7 * random_density_matrix(2, rng)  # subnormalized on purpose
    joint = tensor_product(rho_a, rho_b)
    reduced = partial_trace(joint, BiDims(2, 2), "B")
    assert np.allclose(reduced, rho_a * np.trace(rho_b))


def test_partial_trace_max_entangled():
    for d in (2, 3, 4):
        rho = proj(max_entangled(d))
        assert np.allclose(partial_trace(rho, BiDims(d, d), "B"), np.eye(d) / d)
        assert np.allclose(partial_trace(rho, BiDims(d, d), "A"), np.eye(d) / d)


def test_partial_trace_full_contraction(rng):
    # oracle: summing both partial traces down to a scalar is the full trace
    rho = random_density_matrix(4, rng)
    full = np.sum(np.diag(rho))
    reduced = partial_trace(rho, BiDims(2, 2), "A")
    scalar = partial_trace(reduced.reshape(2, 2), BiDims(1, 2), "B")
    assert abs(scalar[0, 0] - full) < 1e-12
    assert abs(scalar[0, 0] - 1) < 1e-12


def test_partial_trace_linearity_and_trace(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alpha, beta = 0.3 - 1j, 2.5 + 0.25j
    lhs = partial_trace(alpha * x + beta * y, BiDims(2, 2), "B")
    rhs = alpha * partial_trace(x, BiDims(2, 2), "B") + beta * partial_trace(y, BiDims(2, 2), "B")
    assert np.linalg.norm(lhs - rhs) < 1e-10
    assert abs(np.trace(partial_trace(x, BiDims(2, 2), "A")) - np.trace(x)) < 1e-12


def test_max_entangled_conventions():
    assert np.allclose(max_entangled(1), [1])
    phi = max_entangled(2)
    assert np.allclose(phi, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.allclose(max_entangled(3, normalized=False),
                       np.sqrt(3) * max_entangled(3, normalized=True))


def _reshuffle_oracle(m, na, nb):
    # independent index-by-index reshuffle used to cross-check the SVD route
    rect = np.zeros((na * na, nb * nb), dtype=complex)
    for i in range(na):
        for k in range(na):
            for j in range(nb):
                for ell in range(nb):
                    rect[i * na + k, j * nb + ell] = m[i * nb + j, k * nb + ell]
    return rect


@pytest.mark.parametrize("u,expected_rank", [(CNOT, 2), (SWAP, 4)])
def test_operator_schmidt_ranks(u, expected_rank):
    # oracle: singular values of the explicitly reshuffled matrix
    svals = np.linalg.svd(_reshuffle_oracle(u, 2, 2), compute_uv=False)
    assert np.sum(svals > 1e-9) == expected_rank
    terms = operator_schmidt(u, BiDims(2, 2))
    assert len(terms) == expected_rank


def test_operator_schmidt_product_rank_one(rng):
    u = tensor_product(haar_unitary(2, rng), haar_unitary(3, rng))
    terms = operator_schmidt(u, BiDims(2, 3))
    assert len(terms) == 1
    lam, a, b = terms[0]
    assert abs(lam - 1) < 1e-9


def test_operator_schmidt_reconstruction_and_normalization(rng):
    for na, nb in [(2, 2), (3, 2), (4, 4)]:
        m = rng.standard_normal((na * nb, na * nb)) + 1j * rng.standard_normal((na * nb, na * nb))
        terms = operator_schmidt(m, BiDims(na, nb))
        rec = sum(lam * tensor_product(a, b) for lam, a, b in terms)
        assert np.linalg.norm(rec - m) < 1e-9
        for lam, a, b in terms:
            assert abs(np.trace(a.conj().T @ a) - na) < 1e-8
            assert abs(np.trace(b.conj().T @ b) - nb) < 1e-8


def test_operator_schmidt_unitary_coefficient_norm(rng):
    for na, nb in [(2, 2), (2, 3)]:
        u = haar_unitary(na * nb, rng)
        terms = operator_schmidt(u, BiDims(na, nb))
        assert abs(sum(lam ** 2 for lam, _, _ in terms) - 1) < 1e-9


def test_hermitian_spectrum_basics():
    w, v = hermitian_spectrum(PAULI_Z)
    assert np.allclose(w, [1, -1])
    w, _ = hermitian_spectrum(np.eye(2) / 2)
    assert np.allclose(w, [0.5, 0.5])
    # rank-1 projector oracle
    w, v = hermitian_spectrum(proj(max_entangled(2)))
    assert np.allclose(w, [1, 0, 0, 0], atol=1e-12)
    rec = v @ np.diag(w) @ v.conj().T
    assert np.linalg.norm(rec - proj(max_entangled(2))) < 1e-9


def test_hermitian_spectrum_reconstruction(rng):
    m = random_density_matrix(6, rng)
    w, v = hermitian_spectrum(m)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - m) < 1e-9
    assert np.linalg.norm(v.conj().T @ v - np.eye(6)) < 1e-9


def test_hermitian_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_distance_known_values():
    assert abs(trace_distance(proj([1, 0]), np.eye(2) / 2) - 0.5) < 1e-12
    assert abs(trace_distance(proj([1, 0]), proj([0, 1])) - 1.0) < 1e-12
    assert trace_distance(HADAMARD @ proj([1, 0]) @ HADAMARD, proj([1, 1] / np.sqrt(2))) < 1e-12


def test_schmidt_vectors_reconstruct_complex_state(rng):
    dims = BiDims(3, 4)
    v = random_pure_state(dims.total, rng)
    coeffs, a_vecs, b_vecs = schmidt_vectors(v, dims)
    rebuilt = sum(c * np.kron(a, b) for c, a, b in zip(coeffs, a_vecs, b_vecs))
    assert np.linalg.norm(rebuilt - v) < 1e-12
    assert np.allclose(np.array(b_vecs).conj() @ np.array(b_vecs).T, np.eye(len(coeffs)))
