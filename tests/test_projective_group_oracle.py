"""The stacked ME-basis checks against the per-pair loops they replaced.

``extract_unitaries`` takes its Gram matrix from one einsum over the stacked
unitaries, and ``projective_group_test`` decides closure from one table of
|tr(W^dag U_i U_j)|. The references below are the double loops they replaced,
one ``np.trace`` per entry, with the unitaries in basis order; both must give
the same unitaries, the same certificate pair, the same residual and the same
``None``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.linalg import ATOL, dag, frobenius, is_unitary, max_entangled, tensor_product
from qcausal.localizability import (
    MEBasisUnitaries,
    PreconditionError,
    extract_unitaries,
    generalized_pauli,
    me_basis_from_unitaries,
    mismatch_basis,
    mismatch_unitaries,
    projective_group_test,
)
from qcausal.measurements import OrthogonalBasis, bell_basis
from qcausal.report import classify_basis


def _reference_extract(basis, tol=ATOL):
    d = basis.dims.dim_a
    scale = max(1.0, d * d)
    for idx, v in enumerate(basis.vectors):
        s = np.linalg.svd(v.reshape(d, d), compute_uv=False)
        if np.any(np.abs(s - 1 / np.sqrt(d)) > tol * scale):
            raise ValueError(f"basis state {idx} is not maximally entangled")
    phi_un = max_entangled(d, normalized=False)
    anchor = int(np.argmax([abs(np.vdot(phi_un, v)) for v in basis.vectors]))
    w_a, _, vh = np.linalg.svd(basis.vectors[anchor].reshape(d, d))
    unitaries = []
    for k in range(basis.size):
        aligned = tensor_product(dag(w_a), vh.conj()) @ basis.vectors[k]
        u = np.sqrt(d) * aligned.reshape(d, d)
        if not is_unitary(u, 1e-8):
            raise ValueError(f"extracted operator {k} is not unitary")
        unitaries.append(u)
    gram = np.array([[np.trace(dag(u1) @ u2) for u2 in unitaries] for u1 in unitaries])
    if frobenius(gram - d * np.eye(d * d)) > 1e-7 * d * d:
        raise ValueError("extracted unitaries violate the trace-orthogonality condition")
    return MEBasisUnitaries(tuple(unitaries))


def _reference_projective(us, tol=ATOL):
    """Returns None or (pair, residual)."""
    unitaries, d = us.unitaries, us.d
    gram = np.array([[np.trace(dag(u1) @ u2) for u2 in unitaries] for u1 in unitaries])
    if frobenius(gram - d * np.eye(len(unitaries))) > 1e-7 * d * len(unitaries):
        raise PreconditionError("unitaries violate the trace-orthogonality condition")
    if not any(abs(np.trace(u)) > d - 1e-7 for u in unitaries):
        raise PreconditionError("no member is proportional to the identity")
    for i, u in enumerate(unitaries):
        for j, v in enumerate(unitaries):
            product = u @ v
            best = max(abs(np.trace(dag(w) @ product)) for w in unitaries)
            if best < d - tol * d:
                return (i, j), float(d - best)
    return None


def _pauli_products(d):
    x, z = generalized_pauli(d)
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d) for b in range(d)]


def _phased_unitaries(d, rng, twist):
    """X^a D_b with the clock diagonals D_b turned by a phase vector per row a.

    Turning the columns of the Fourier table keeps every row's diagonals
    orthogonal, so the basis stays maximally entangled; a random turn per row
    breaks closure, no turn leaves the generalized Pauli group. Row 0 is not
    turned, so the identity stays a member; global phases are random.
    """
    x, _ = generalized_pauli(d)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    turns = rng.uniform(0, 2 * np.pi, size=(d, d)) if twist else np.zeros((d, d))
    turns[0] = 0.0
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(d, d)))
    phases[0, 0] = 1.0
    return [phases[a, b] * np.linalg.matrix_power(x, a)
            @ np.diag(fourier[b] * np.exp(1j * turns[a]))
            for a in range(d) for b in range(d)]


def _assert_same_verdict(us):
    expected = _reference_projective(us)
    cert = projective_group_test(us)
    if expected is None:
        assert cert is None
        return
    pair, residual = expected
    assert cert is not None and cert.evidence["pair"] == pair
    assert abs(cert.residual - residual) <= 1e-12
    assert np.array_equal(cert.evidence["product"], us.unitaries[pair[0]] @ us.unitaries[pair[1]])


def _assert_same_extraction(basis):
    expected = _reference_extract(basis)
    got = extract_unitaries(basis)
    assert len(got.unitaries) == len(expected.unitaries)
    for u, v in zip(got.unitaries, expected.unitaries):
        assert np.array_equal(u, v)
    return got


@pytest.mark.parametrize("make_basis", [
    mismatch_basis,
    bell_basis,
    *[lambda d=d: me_basis_from_unitaries(_pauli_products(d)) for d in (2, 3, 4, 5)],
], ids=["mismatch", "bell", "pauli-2", "pauli-3", "pauli-4", "pauli-5"])
def test_named_me_bases_match_the_loops(make_basis):
    _assert_same_verdict(_assert_same_extraction(make_basis()))


def test_mismatch_certificate_is_found():
    cert = projective_group_test(extract_unitaries(mismatch_basis()))
    assert cert is not None and cert.residual > 1e-6


def test_certificate_pair_indexes_a_reordered_basis():
    # with state 15 moved to the front the anchor (the old state 0) sits at
    # index 1; the unitaries stay in basis order, so the reported pair names
    # basis states whose product matches no basis unitary
    basis = mismatch_basis()
    order = [15] + list(range(15))
    reordered = OrthogonalBasis(tuple(basis.vectors[k] for k in order), basis.dims)
    us = extract_unitaries(reordered)
    assert np.allclose(us.unitaries[1], np.eye(4))
    cert = projective_group_test(us)
    assert cert is not None and cert.evidence["pair"] == (0, 2)
    i, j = cert.evidence["pair"]
    product = us.unitaries[i] @ us.unitaries[j]
    assert max(abs(np.trace(dag(w) @ product)) for w in us.unitaries) < 4 - 1e-6
    assert classify_basis(reordered).obstructions[0]["pair"] == [i, j]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans())
def test_random_phase_me_bases_match_the_loops(seed, d, twist):
    rng = np.random.default_rng(seed)
    unitaries = _phased_unitaries(d, rng, twist)
    unitaries = [unitaries[k] for k in rng.permutation(len(unitaries))]
    _assert_same_verdict(MEBasisUnitaries(tuple(unitaries)))
    basis = me_basis_from_unitaries(unitaries)
    _assert_same_verdict(_assert_same_extraction(basis))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reordered_mismatch_unitaries_match_the_loops(seed):
    # the mismatch table fails on pairs (i, j) whose mirror (j, i) passes, so
    # a reordering tells row-major order from any other
    rng = np.random.default_rng(seed)
    unitaries = mismatch_unitaries()
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(unitaries)))
    _assert_same_verdict(MEBasisUnitaries(tuple(
        phases[k] * unitaries[k] for k in rng.permutation(len(unitaries)))))


def test_missing_identity_raises_like_the_loops():
    shifted = MEBasisUnitaries(tuple(_pauli_products(2)[2:]))
    for check in (projective_group_test, _reference_projective):
        with pytest.raises(PreconditionError, match="identity"):
            check(shifted)
