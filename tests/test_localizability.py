import sys
import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import localizability, measurements
from qcausal.channels import identity_channel, measurement_channel
from qcausal.linalg import BiDims, HADAMARD, PAULI_X, PAULI_Z, haar_unitary
from qcausal.localizability import (
    EIGENSTATE_CLOSURE,
    PROJECTIVE_GROUP,
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
    _blocks,
    _phase_unitaries,
    bell_basis,
    bell_states,
    causal_grid_basis,
    causal_structure,
    cell_states,
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
    for u, obstructed in ((HADAMARD, True), (np.eye(2), False), (PAULI_X, False)):
        basis = twisted_partition_basis(u)
        cert = closure_obstruction_search(basis, causal_structure(basis))
        assert (cert is not None) == obstructed


def test_closure_search_skips_a_triple_whose_premise_fails(monkeypatch):
    # a failed premise means the triple proves nothing, not that the input is invalid
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise PreconditionError("(a x I) psi is not an eigenstate")
        return eigenstate_closure_test(*args, **kwargs)

    monkeypatch.setattr(localizability, "eigenstate_closure_test", first_fails)
    basis = twisted_partition_basis(HADAMARD)
    cert = closure_obstruction_search(basis, causal_structure(basis))
    assert len(calls) == 2 and cert.kind == EIGENSTATE_CLOSURE
    assert abs(cert.residual - np.sqrt(0.5)) < 1e-9


def test_closure_search_scans_the_anchor_cell(rng):
    # a one-cell grid has only the anchor's cell, and the mismatch set fails closure there
    mismatch = mismatch_basis()
    for basis in (mismatch, rotate_basis(mismatch, haar_unitary(4, rng), haar_unitary(4, rng))):
        cert = closure_obstruction_search(basis, causal_structure(basis))
        assert cert.kind == EIGENSTATE_CLOSURE and abs(cert.residual - np.sqrt(0.5)) < 1e-9
    for basis in (causal_grid_basis(BiDims(4, 4), 4), bell_basis(),
                  causal_grid_basis(BiDims(4, 4), 2)):
        assert closure_obstruction_search(basis, causal_structure(basis)) is None
    # the report still sends a one-cell grid to the group test
    assert [c["kind"] for c in classify_basis(mismatch).obstructions] == [PROJECTIVE_GROUP]


def test_extract_unitaries_bell_basis():
    # oracle: reshaping sqrt(2) * (each Bell vector) gives I, Z, X, XZ
    us = extract_unitaries(causal_structure(bell_basis()))
    expected = [np.eye(2), PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z]
    for u in us:
        assert any(abs(np.trace(e.conj().T @ u)) > 2 - 1e-9 for e in expected)
    assert np.allclose(us[0], np.eye(2))


def test_extract_unitaries_round_trip(rng):
    x, z = generalized_pauli(3)
    unitaries = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                 for a in range(3) for b in range(3)]
    basis = me_basis_from_unitaries(unitaries)
    us = extract_unitaries(causal_structure(basis))
    d = 3
    for u in us:
        assert any(abs(np.trace(v.conj().T @ u)) > d - 1e-9 for v in unitaries)


def test_extract_unitaries_rejects_product_basis():
    with pytest.raises(ValueError, match="maximally entangled"):
        extract_unitaries(causal_structure(product_basis(D22)))


def test_extract_unitaries_mismatch_recovers_table():
    us = extract_unitaries(causal_structure(mismatch_basis()))
    listed = mismatch_unitaries()
    for u in us:
        assert any(abs(np.trace(v.conj().T @ u)) > 4 - 1e-8 for v in listed)


def test_projective_group_closed_sets():
    for d in (2, 3, 4):
        x, z = generalized_pauli(d)
        unitaries = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                     for a in range(d) for b in range(d)]
        assert projective_group_test(np.stack(unitaries)) is None


def test_projective_group_mismatch_certificate():
    us = extract_unitaries(causal_structure(mismatch_basis()))
    cert = projective_group_test(us)
    assert cert is not None and cert.residual > 1e-6
    # the certificate pair and the documented example pair (X times X^2 Z lands
    # on X^3 Z) each have a product proportional to no member
    listed = mismatch_unitaries()
    for table, (i, j) in ((us, cert.evidence["pair"]), (listed, (4, 9))):
        product = table[i] @ table[j]
        assert max(abs(np.trace(w.conj().T @ product)) for w in table) < 4 - 1e-6


def test_projective_group_requires_identity_member():
    x, z = generalized_pauli(2)
    shifted = [x, x @ z]
    with pytest.raises(PreconditionError):
        projective_group_test(np.stack(shifted))


def test_projective_group_reports_a_nan_stack_as_not_trace_orthogonal():
    x, z = generalized_pauli(2)
    stack = np.stack([np.eye(2), x, z, x @ z]).astype(complex)
    stack[0, 0, 0] = np.nan  # the identity member
    with pytest.raises(PreconditionError, match="trace-orthogonality"):
        projective_group_test(stack)


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
        us = extract_unitaries(causal_structure(basis))
        assert projective_group_test(us) is None


def test_single_global_twist_localizable_by_matched_twirl():
    # construction oracle for the previous test: the matched conjugate twirl
    # over the extracted set reproduces the aligned measurement exactly
    from qcausal.channels import choi, choi_distance, measurement_channel
    from qcausal.linalg import tensor_product
    from qcausal.twirl import twirl_channel

    x, z = generalized_pauli(2)
    paulis = [np.eye(2), x, z, x @ z]
    t_like = np.diag([1, np.exp(1j * np.pi / 4)])
    for w in (np.eye(2), HADAMARD, t_like):
        us = extract_unitaries(causal_structure(me_basis_from_unitaries([p @ w for p in paulis])))
        aligned = me_basis_from_unitaries(us)
        elements = np.stack([tensor_product(u, u.conj()) for u in us])
        candidate = twirl_channel(elements, D22)
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


def _one_row_probe() -> OrthogonalBasis:
    """4x8, one row of two cells: HW(4) on B's first block, the mismatch set on its second."""
    cells = np.stack([_phase_unitaries(4), np.stack(mismatch_unitaries())])
    return OrthogonalBasis(cell_states(np.eye(4), cells, _blocks(8, 4)[:, None]).reshape(32, 32),
                           BiDims(4, 8))


def _party_swap(basis: OrthogonalBasis) -> OrthogonalBasis:
    na, nb = basis.dims
    vectors = basis.vectors.reshape(-1, na, nb).transpose(0, 2, 1).reshape(basis.size, -1)
    return OrthogonalBasis(vectors, BiDims(nb, na))


@pytest.fixture(scope="module")
def verdict_cases(corpus, twisted_cell_basis):
    fixtures = [(name, load_document(str(resources.files("qcausal") / "fixtures" / name)))
                for name in BASIS_FIXTURES]
    # a multi-cell closure input beyond the 4x4 quadrants, with a certificate
    twisted = twisted_cell_basis(6, 3, haar_unitary(3, np.random.default_rng(5)))
    assert classify_basis(twisted).obstructions[0]["kind"] == "EigenstateClosure"
    # one-row and one-column grids, certified in the anchor's row or column
    probes = [("one-row-4x8", _one_row_probe()), ("one-column-8x4", _party_swap(_one_row_probe()))]
    for _, basis in probes:
        assert classify_basis(basis).localizability == ("not localizable "
                                                        "(eigenstate-closure certificate)")
    return [(name, basis, _verdict_summary(basis))
            for name, basis in corpus + fixtures + [("twisted-cell-6x6-d3", twisted)] + probes]


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


@pytest.mark.parametrize("name", ["mismatch_basis.json", "twisted_quadrant_basis.json"])
def test_classify_derives_the_grid_once(name, monkeypatch):
    # every module binding of causal_structure is counted, as the benchmark's
    # tracer patches them, so a second derivation anywhere in the package shows
    original = measurements.causal_structure
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "qcausal" or key.startswith("qcausal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    report = classify_basis(load_document(str(resources.files("qcausal") / "fixtures" / name)))
    assert report.obstructions and len(calls) == 1
