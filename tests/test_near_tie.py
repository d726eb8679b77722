"""Valid near-causal bases that ``classify_basis`` rejects or certifies on a near tie.

Each basis is a causal grid turned by exp(i eps H), H drawn as in
``conftest.near_causal_basis`` but with eps = 1e-9. Its measurement is trace
preserving to about 1e-14, so the basis is a valid input, and its measurement
channel classifies without error. The basis path raises instead, because its
fixed bars sit at different scales: the pairwise bar ``tol * max(1, n)`` and
the Choi-marginal bar ``tol * dim`` split a near tie, and the structure pass
rejects states a few 1e-9 off a cell. These are strict xfails: the mend is one
tolerance scale (ROADMAP direction 4), and a test that starts to pass marks it.

The closure scan skips a triple whose premise fails on such a basis, so it
raises no more, but where it certifies, the residual can sit just above the
bar ``tol * dim``: a near-tie verdict, without a margin or a flag. A strict
xfail pins that too.

``OrthogonalBasis`` admits a basis by its measurement's trace-preservation
residual, at the channel path's bar for the default ``--tol``, so every
admitted basis is trace preserving there, and its measurement channel
classifies.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.channels import KrausChannel, measurement_channel, validate
from qcausal.linalg import ATOL, BiDims, frobenius
from qcausal.measurements import (
    OrthogonalBasis,
    causal_grid_basis,
    haar_basis,
    measurement_validate,
    product_basis,
)
from qcausal.report import classify_basis, classify_channel

EPS = 1e-9

# (grid side, cell size, seed) and the message classify_basis raises
NEAR_TIES = [
    ((2, 2, 0), "criteria disagree on side A"),
    ((2, 1, 1), "criteria disagree on side B"),
    ((3, 1, 3), "criteria disagree on side A"),
    ((4, 2, 19), "subspace projectors do not resolve the identity"),
]
# (grid side, cell size, seed) of bases that read "not localizable" on a near tie
NEAR_TIE_CERTIFICATES = [(4, 2, 0), (4, 2, 13), (4, 2, 30)]


def _near_causal(n: int, d: int, seed: int) -> OrthogonalBasis:
    rng = np.random.default_rng(seed)
    basis = causal_grid_basis(BiDims(n, n), d)
    h = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    w, v = np.linalg.eigh(h + h.conj().T)
    u = v @ np.diag(np.exp(1j * EPS * w)) @ v.conj().T
    return OrthogonalBasis(tuple(u @ x for x in basis.vectors), basis.dims)


def _id(case) -> str:
    n, d, seed = case
    return f"{n}x{n}-d{d}-seed{seed}"


@pytest.mark.parametrize("case", [c for c, _ in NEAR_TIES] + NEAR_TIE_CERTIFICATES, ids=_id)
def test_near_tie_bases_are_valid_inputs(case):
    basis = _near_causal(*case)
    assert measurement_validate(basis).deviation < 1e-12
    classify_channel(measurement_channel(basis))  # the channel path does not raise


@pytest.mark.parametrize("case, message", NEAR_TIES, ids=[_id(c) for c, _ in NEAR_TIES])
@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="near-tie bars at different scales; ROADMAP direction 4")
def test_near_tie_basis_classifies(case, message):
    try:
        classify_basis(_near_causal(*case))
    except ValueError as exc:
        # another message is another fault: an AssertionError fails the xfail
        assert re.search(message, str(exc)), str(exc)
        raise


@pytest.mark.parametrize("case", NEAR_TIE_CERTIFICATES, ids=_id)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="near-tie certificates carry no margin or flag; ROADMAP direction 4")
def test_closure_certificate_clears_the_bar_or_is_flagged(case):
    # residuals 1.00-1.28x the bar tol * dim here; a verdict that close to the
    # bar needs a margin or direction 4's nearTie flag
    basis = _near_causal(*case)
    for cert in classify_basis(basis).obstructions:
        if cert["kind"] == "EigenstateClosure":
            assert cert["residual"] >= 10 * ATOL * basis.dims.total or cert.get("nearTie") is True


def test_accepted_basis_is_trace_preserving():
    # every vector scaled by 1 + 6e-10: trace-preservation deviation 4.8e-9 over
    # the bar 1e-9. A Gram bar of ATOL * n admitted it (Gram deviation 2.4e-9),
    # and the basis report then read tp false.
    dims = BiDims(2, 2)
    try:
        basis = OrthogonalBasis(product_basis(dims).vectors * (1 + 6e-10), dims)
    except ValueError:
        return  # rejected: no accepted basis fails trace preservation
    assert classify_basis(basis).tp


@settings(max_examples=40, deadline=None)
@given(dim_a=st.integers(1, 4), dim_b=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["scaled", "hermitian", "entries"]), log_eps=st.floats(-11, -8))
def test_admitted_basis_is_trace_preserving(dim_a, dim_b, seed, kind, log_eps):
    # the basis is rejected exactly when the channel path's validate, on projectors
    # built here from the same vectors, reads a deviation at or over ATOL
    dims, eps = BiDims(dim_a, dim_b), 10.0 ** log_eps
    rng = np.random.default_rng(seed)
    rows, n = haar_basis(dims, rng).vectors, dims.total
    if kind == "scaled":
        rows = rows * (1 + eps)
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if kind == "hermitian":
            rows = rows @ (np.eye(n) + eps * (g + g.conj().T) / frobenius(g + g.conj().T)).T
        else:
            rows = rows + eps * g / frobenius(g)
    projectors = rows[:, :, None] * rows.conj()[:, None, :]
    deviation = validate(KrausChannel(projectors, dims)).deviation
    try:
        basis = OrthogonalBasis(rows, dims)
    except ValueError:
        assert deviation >= ATOL
        return
    assert deviation < ATOL
    assert classify_basis(basis).tp
    classify_channel(measurement_channel(basis))  # does not raise
