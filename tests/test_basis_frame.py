"""The basis path's channel checks, read from the vectors, against the channel path.

``classify_basis`` decides trace preservation, both Choi-marginal cross-checks
and the grid-twirl distance without building the measurement's Kraus stack:
``measurement_validate``, ``measurement_marginal_residual`` and
``measurement_distance``. The channel-path functions they replace
(``validate``, ``semicausal_test``'s residual over ``causality._marginal``,
``channel_distance``) run on ``measurement_channel(basis)`` here as their
oracles. Values must agree within 1e-12, absolute plus relative, and near the
bar that admits a basis every verdict must be the channel path's.
"""

import math
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import channels
from qcausal.causality import A_TO_B, B_TO_A, _marginal, semicausal_test
from qcausal.channels import (
    KrausChannel,
    channel_distance,
    measurement_channel,
    validate,
)
from qcausal.linalg import ATOL, BiDims, _maximally_mixed, frobenius, haar_unitary
from qcausal.localizability import EIGENSTATE_CLOSURE
from qcausal.measurements import (
    OrthogonalBasis,
    causal_grid_basis,
    causal_structure,
    measurement_distance,
    measurement_marginal_residual,
    measurement_semicausal_test,
    measurement_validate,
    rotate_basis,
)
from qcausal.report import classify_basis
from qcausal.serialize import load_document
from qcausal.twirl import grid_twirl_channel
from helpers import identity_channel

BASIS_FIXTURES = ["bell_basis.json", "completion_basis.json", "conditional_basis.json",
                  "mismatch_basis.json", "twisted_quadrant_basis.json"]
GRIDS = [((2, 2), 1), ((2, 2), 2), ((3, 3), 3), ((2, 4), 2), ((4, 4), 2), ((4, 4), 4),
         ((6, 6), 3), ((8, 8), 2), ((8, 8), 8)]
# The grids moved near the admission bar: 2x2 with d = 1, 2; 3x3 with d = 3; 4x4
# with d = 2, 4. Their verdicts are compared at the default tol and at a smaller
# one, where a B^dag frame's error of the basis's residual size flips them.
NEAR_BAR_GRIDS = [((2, 2), 1), ((2, 2), 2), ((3, 3), 3), ((4, 4), 2), ((4, 4), 4)]
NEAR_BAR_FRACTIONS = [0.3, 0.6, 0.9, 0.99]
NEAR_BAR_TOLS = [ATOL, 1e-10]


def _fixture(name):
    return load_document(str(resources.files("qcausal") / "fixtures" / name))


def _agree(got, want):
    assert abs(got - want) <= 1e-12 * (1 + abs(want)), (got, want)


def _oracle_residual(basis, direction):
    """``semicausal_test``'s residual, as it reads the measurement channel's marginal."""
    t = _marginal(measurement_channel(basis), direction)
    reduced = np.trace(t, axis1=1, axis2=4)[:, None, :, :, None, :]
    expected = reduced * _maximally_mixed(t.shape[1])[:, None, None, :, None]
    return frobenius(t - expected)


def _check_tp_and_residuals(basis):
    _agree(measurement_validate(basis).deviation,
           validate(measurement_channel(basis)).deviation)
    for direction in (B_TO_A, A_TO_B):
        _agree(measurement_marginal_residual(basis, direction),
               _oracle_residual(basis, direction))


def _grid(dims, d, seed=0):
    return causal_grid_basis(BiDims(*dims), d, np.random.default_rng(seed))


def _haar_unitary_channel(dims, rng):
    return KrausChannel((haar_unitary(dims.total, rng),), dims)


def test_corpus_and_fixtures_match_the_channel_path(corpus):
    bases = [basis for _, basis in corpus] + [_fixture(name) for name in BASIS_FIXTURES]
    for basis in bases:
        _check_tp_and_residuals(basis)


@pytest.mark.parametrize("dims,d", GRIDS)
def test_causal_grids_match_the_channel_path(dims, d):
    basis = _grid(dims, d)
    _check_tp_and_residuals(basis)
    target = measurement_channel(basis)
    rng = np.random.default_rng(d)
    other = measurement_channel(rotate_basis(basis, haar_unitary(dims[0], rng),
                                             haar_unitary(dims[1], rng)))
    near = grid_twirl_channel(basis, causal_structure(basis))
    for candidate in (near, identity_channel(basis.dims),
                      _haar_unitary_channel(basis.dims, rng), other):
        _agree(measurement_distance(candidate, basis), channel_distance(candidate, target))
    # the grid twirl is the measurement, the far candidates are not
    assert measurement_distance(near, basis) < ATOL
    assert measurement_distance(other, basis) > 0.1


def test_distance_to_other_measurements_in_the_corpus(corpus):
    # every far distance: cross and off-diagonal terms, not only distances near 0
    rng = np.random.default_rng(7)
    for (_, basis), (_, other) in zip(corpus, corpus[1:]):
        if other.dims != basis.dims:
            other = _haar_unitary_channel(basis.dims, rng)
        else:
            other = measurement_channel(other)
        for candidate in (other, identity_channel(basis.dims)):
            _agree(measurement_distance(candidate, basis),
                   channel_distance(candidate, measurement_channel(basis)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(GRIDS[:6]))
def test_haar_local_frames_match_the_channel_path(seed, grid):
    rng = np.random.default_rng(seed)
    (na, nb), d = grid
    basis = rotate_basis(_grid((na, nb), d, seed), haar_unitary(na, rng), haar_unitary(nb, rng))
    _check_tp_and_residuals(basis)
    target = measurement_channel(basis)
    for candidate in (grid_twirl_channel(basis, causal_structure(basis)),
                      _haar_unitary_channel(basis.dims, rng)):
        _agree(measurement_distance(candidate, basis), channel_distance(candidate, target))


def _near_bar(basis, kind, fraction, rng):
    """The basis moved to ``fraction`` of the admission bar ``ATOL`` on its
    trace-preservation residual: every vector scaled, or every vector turned by
    I + eps H for a random Hermitian H whose diagonal in the basis is zero, so that
    the norms move only at second order."""
    n = basis.dims.total
    if kind == "scaled":
        # w_k = s^2 for the scale s, so the residual is (s^4 - 1) sqrt(n)
        vectors = basis.vectors * (1 + fraction * ATOL / math.sqrt(n)) ** 0.25
    else:
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h + h.conj().T
        np.fill_diagonal(h, 0)
        b = basis.vectors.T
        h = b @ (h / frobenius(h)) @ b.conj().T  # the residual is 2 eps ||h||
        vectors = basis.vectors @ (np.eye(n) + fraction * ATOL / 2 * h).T
    moved = OrthogonalBasis(vectors, basis.dims)
    assert 0.25 * ATOL < measurement_validate(moved).deviation < ATOL
    return moved


@pytest.mark.parametrize("kind", ["scaled", "hermitian"])
@pytest.mark.parametrize("dims,d", NEAR_BAR_GRIDS)
def test_near_gram_bar_verdicts_are_the_channel_paths(dims, d, kind):
    # with the conjugate basis matrix as the frame, the measurement's Choi state
    # is off by the basis's residual and the grid-twirl verdict flips at tol 1e-10
    rng = np.random.default_rng(29)
    for fraction in NEAR_BAR_FRACTIONS:
        basis = _near_bar(_grid(dims, d), kind, fraction, rng)
        ch = measurement_channel(basis)
        n = basis.dims.total
        twirl = grid_twirl_channel(basis, causal_structure(basis))
        old, new = channel_distance(twirl, ch), measurement_distance(twirl, basis)
        _agree(new, old)
        for tol in NEAR_BAR_TOLS:
            assert measurement_validate(basis, tol) == pytest.approx(validate(ch, tol),
                                                                     abs=1e-12)
            for direction in (B_TO_A, A_TO_B):
                assert (measurement_semicausal_test(basis, direction, tol)
                        == semicausal_test(ch, direction, tol))
            assert (new < tol * n) == (old < tol * n)


def test_classify_builds_the_channel_only_where_a_step_needs_it(corpus, near_causal_basis,
                                                                monkeypatch):
    # every module binding of measurement_channel is counted. A 2x2 basis builds
    # the channel once, for its game value; a larger one only for the probe-search
    # witness (once for both sides) and for an eigenstate-closure certificate.
    original = channels.measurement_channel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "qcausal" or key.startswith("qcausal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    bases = ([basis for _, basis in corpus] + [_fixture(name) for name in BASIS_FIXTURES]
             + [near_causal_basis])
    searched = closures = 0
    for basis in bases:
        calls.clear()
        report = classify_basis(OrthogonalBasis(basis.vectors, basis.dims)).to_json()
        witnesses = [report["semicausal"][side].get("witness") for side in (B_TO_A, A_TO_B)]
        search = any(w is not None and w["kind"] != "basis-steering" for w in witnesses)
        closure = any(o["kind"] == EIGENSTATE_CLOSURE for o in report["obstructions"])
        searched, closures = searched + search, closures + closure
        if basis.dims == BiDims(2, 2):
            assert len(calls) == 1
        else:
            assert len(calls) == search + closure
    assert searched and closures  # both exceptions were exercised
