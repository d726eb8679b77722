import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.channels import identity_channel, measurement_channel
from qcausal.linalg import BiDims, HADAMARD, PAULI_X, PAULI_Z, haar_unitary
from qcausal.localizability import (
    MEBasisUnitaries,
    PreconditionError,
    closure_obstruction_search,
    eigenstate_closure_test,
    extract_unitaries,
    generalized_pauli,
    is_eigenstate,
    me_basis_from_unitaries,
    mismatch_basis,
    mismatch_unitaries,
    projective_group_test,
    twisted_partition_basis,
)
from qcausal.measurements import (
    OrthogonalBasis,
    bell_basis,
    bell_states,
    causal_grid_basis,
    product_basis,
    rotate_basis,
)
from qcausal.report import classify_basis
from qcausal.serialize import load_document
from qcausal.twirl import bell_twirl, werner_twirl

D22 = BiDims(2, 2)


def test_is_eigenstate_bell_channel():
    ch = measurement_channel(bell_basis())
    for b in bell_states():
        assert is_eigenstate(ch, b)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    assert not is_eigenstate(ch, e00)  # output is a rank-2 mixture
    assert is_eigenstate(identity_channel(D22), e00)


def test_eigenstate_closure_on_twists():
    x4, _ = generalized_pauli(4)
    shift = x4 @ x4
    for u, expect_cert in ((HADAMARD, True), (PAULI_X, False), (np.eye(2), False)):
        basis = twisted_partition_basis(u)
        ch = measurement_channel(basis)
        cert = eigenstate_closure_test(ch, basis.vectors[0], shift, shift)
        assert (cert is not None) == expect_cert
        if cert is not None:
            assert cert.residual > 1e-6


def test_eigenstate_closure_premise_errors():
    ch = measurement_channel(bell_basis())
    phi = bell_states()[0]
    with pytest.raises(PreconditionError, match="invertible"):
        eigenstate_closure_test(ch, phi, np.zeros((2, 2)), np.eye(2))
    with pytest.raises(PreconditionError, match="psi is not"):
        eigenstate_closure_test(ch, np.array([1, 0, 0, 0]), np.eye(2), np.eye(2))
    with pytest.raises(PreconditionError, match="a x I"):
        eigenstate_closure_test(ch, phi, HADAMARD, np.eye(2))


def test_eigenstate_closure_accepts_non_unitary_moves():
    # invertible, non-unitary scaling keeps every premise intact
    ch = measurement_channel(bell_basis())
    phi = bell_states()[0]
    cert = eigenstate_closure_test(ch, phi, 2 * PAULI_Z, 3 * PAULI_Z)
    assert cert is None


def test_twisted_partition_basis_shapes():
    for u in (np.eye(2), HADAMARD, PAULI_X):
        basis = twisted_partition_basis(u)
        assert basis.size == 16
        assert classify_basis(basis).causal


def test_twisted_partition_rejects_nonunitary():
    with pytest.raises(ValueError):
        twisted_partition_basis(np.array([[1, 0], [0, 0.5]]))


def test_closure_search_fires_only_for_genuine_twists():
    assert closure_obstruction_search(twisted_partition_basis(HADAMARD)) is not None
    assert closure_obstruction_search(twisted_partition_basis(np.eye(2))) is None
    assert closure_obstruction_search(twisted_partition_basis(PAULI_X)) is None


def test_extract_unitaries_bell_basis():
    # oracle: reshaping sqrt(2) * (each Bell vector) gives I, Z, X, XZ
    us = extract_unitaries(bell_basis())
    expected = [np.eye(2), PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z]
    for u in us.unitaries:
        assert any(abs(np.trace(e.conj().T @ u)) > 2 - 1e-9 for e in expected)
    assert np.allclose(us.unitaries[0], np.eye(2))


def test_extract_unitaries_round_trip(rng):
    x, z = generalized_pauli(3)
    unitaries = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                 for a in range(3) for b in range(3)]
    basis = me_basis_from_unitaries(unitaries)
    us = extract_unitaries(basis)
    d = 3
    for u in us.unitaries:
        assert any(abs(np.trace(v.conj().T @ u)) > d - 1e-9 for v in unitaries)


def test_extract_unitaries_rejects_product_basis():
    with pytest.raises(ValueError, match="maximally entangled"):
        extract_unitaries(product_basis(D22))


def test_extract_unitaries_mismatch_recovers_table():
    us = extract_unitaries(mismatch_basis())
    listed = mismatch_unitaries()
    for u in us.unitaries:
        assert any(abs(np.trace(v.conj().T @ u)) > 4 - 1e-8 for v in listed)


def test_projective_group_closed_sets():
    for d in (2, 3, 4):
        x, z = generalized_pauli(d)
        unitaries = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                     for a in range(d) for b in range(d)]
        us = MEBasisUnitaries(tuple(unitaries))
        assert projective_group_test(us) is None


def test_projective_group_mismatch_certificate():
    us = extract_unitaries(mismatch_basis())
    cert = projective_group_test(us)
    assert cert is not None and cert.residual > 1e-6
    # the certificate pair and the documented example pair (X times X^2 Z lands
    # on X^3 Z) each have a product proportional to no member
    listed = mismatch_unitaries()
    for table, (i, j) in ((us.unitaries, cert.evidence["pair"]), (listed, (4, 9))):
        product = table[i] @ table[j]
        assert max(abs(np.trace(w.conj().T @ product)) for w in table) < us.d - 1e-6


def test_projective_group_requires_identity_member():
    x, z = generalized_pauli(2)
    shifted = [x, x @ z]
    with pytest.raises(PreconditionError):
        projective_group_test(MEBasisUnitaries((shifted[0], shifted[1])))


def test_generalized_pauli_relations():
    for d in (2, 3, 4):
        x, z = generalized_pauli(d)
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(z @ x, omega * x @ z)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d))
    x, z = generalized_pauli(2)
    assert np.allclose(x, PAULI_X) and np.allclose(z, PAULI_Z)
    x4, z4 = generalized_pauli(4)
    assert abs(np.trace(z4.conj().T @ x4)) < 1e-12


def test_mismatch_basis_is_orthonormal_and_causal():
    basis = mismatch_basis()
    gram = np.array([[np.vdot(u, v) for v in basis.vectors] for u in basis.vectors])
    assert np.linalg.norm(gram - np.eye(16)) < 1e-9


def test_single_global_twist_closure():
    # A single global twist W multiplies every defining unitary, and the
    # anchor re-alignment turns that common factor into a conjugation, so the
    # extracted set is a conjugated group for EVERY W: the closure
    # test must never fire on these bases (they are localizable by the
    # matched conjugate twirl). Whether W itself normalizes the group
    # is a separate, independent fact.
    x, z = generalized_pauli(2)
    paulis = [np.eye(2), x, z, x @ z]

    def conjugation_stays_pauli(w):
        for p in paulis:
            c = w @ p @ w.conj().T
            if not any(abs(np.trace(q.conj().T @ c)) > 2 - 1e-9 for q in paulis):
                return False
        return True

    t_like = np.diag([1, np.exp(1j * np.pi / 4)])
    cases = [(np.eye(2), True), (HADAMARD, True), (t_like, False)]
    for w, normalizes in cases:
        assert conjugation_stays_pauli(w) == normalizes
        basis = me_basis_from_unitaries([p @ w for p in paulis])
        us = extract_unitaries(basis)
        assert projective_group_test(us) is None


def test_single_global_twist_localizable_by_matched_twirl():
    # construction oracle for the previous test: the matched conjugate twirl
    # over the extracted set reproduces the aligned measurement exactly
    from qcausal.channels import choi, choi_distance, measurement_channel
    from qcausal.linalg import tensor_product
    from qcausal.twirl import ProjectiveUnitaryGroup, twirl_channel

    x, z = generalized_pauli(2)
    paulis = [np.eye(2), x, z, x @ z]
    t_like = np.diag([1, np.exp(1j * np.pi / 4)])
    for w in (np.eye(2), HADAMARD, t_like):
        us = extract_unitaries(me_basis_from_unitaries([p @ w for p in paulis]))
        aligned = me_basis_from_unitaries(us.unitaries)
        elements = tuple(tensor_product(u, u.conj()) for u in us.unitaries)
        candidate = twirl_channel(ProjectiveUnitaryGroup(elements), D22)
        assert choi_distance(choi(candidate), choi(measurement_channel(aligned))) < 1e-9


def test_closure_test_never_fires_on_twirl_channels():
    # localizable-by-construction corpus: matched twirls hold every premise
    phi = bell_states()[0]
    for ch in (bell_twirl(), werner_twirl()):
        for a, b in [(PAULI_X, PAULI_X), (PAULI_Z, PAULI_Z),
                     (PAULI_X @ PAULI_Z, PAULI_X @ PAULI_Z)]:
            try:
                cert = eigenstate_closure_test(ch, phi, a, b)
            except PreconditionError:
                continue
            assert cert is None


def test_rotated_grid_with_cells_classifies(rng):
    # cell moves are built in each state's Schmidt frames; a complex local
    # frame must not turn them into moves between non-eigenstates
    basis = causal_grid_basis(BiDims(4, 4), 2, rng)
    report = classify_basis(basis)
    assert report.causal and report.obstructions == []
    assert report.localizability.startswith("localizable by construction")


@pytest.mark.parametrize("d", [2, 3])
def test_6x6_grids_localizable_by_construction(d, rng):
    for basis in (causal_grid_basis(BiDims(6, 6), d), causal_grid_basis(BiDims(6, 6), d, rng)):
        report = classify_basis(basis)
        assert report.causal and report.obstructions == []
        assert report.localizability == ("localizable by construction "
                                         "(cell dephasing + matched twirl)")


def test_rotated_8x8_grid_classifies_quickly(rng):
    basis = causal_grid_basis(BiDims(8, 8), 4, rng)
    start = time.perf_counter()
    report = classify_basis(basis)
    assert time.perf_counter() - start < 10.0
    assert report.causal and report.obstructions == []
    assert report.localizability.startswith("localizable by construction")


def test_rotated_twisted_basis_keeps_closure_certificate(rng):
    basis = rotate_basis(twisted_partition_basis(HADAMARD), haar_unitary(4, rng), haar_unitary(4, rng))
    report = classify_basis(basis)
    assert report.causal
    assert [c["kind"] for c in report.obstructions] == ["EigenstateClosure"]


BASIS_FIXTURES = ["bell_basis.json", "completion_basis.json", "conditional_basis.json",
                  "mismatch_basis.json", "twisted_quadrant_basis.json"]


def _verdict_summary(basis: OrthogonalBasis) -> tuple:
    report = classify_basis(basis)
    return (report.b_to_a_blocked.verdict, report.a_to_b_blocked.verdict, report.causal,
            [c["kind"] for c in report.obstructions], report.localizability)


@pytest.fixture(scope="module")
def verdict_cases(corpus):
    fixtures = [(name, load_document(str(resources.files("qcausal") / "fixtures" / name)))
                for name in BASIS_FIXTURES]
    return [(name, basis, _verdict_summary(basis)) for name, basis in corpus + fixtures]


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_frames_and_order_do_not_change_the_verdict(verdict_cases, seed):
    # local unitaries and the order of the vectors change neither signaling
    # nor localizability, so every decision must come out the same
    rng = np.random.default_rng(seed)
    for name, basis, expected in verdict_cases:
        na, nb = basis.dims
        moved = rotate_basis(basis, haar_unitary(na, rng), haar_unitary(nb, rng))
        shuffled = OrthogonalBasis(tuple(moved.vectors[k] for k in rng.permutation(basis.size)),
                                   basis.dims)
        assert _verdict_summary(shuffled) == expected, name
