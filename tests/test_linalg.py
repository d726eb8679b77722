from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.linalg import (
    PAULI_X,
    PAULI_Z,
    HADAMARD,
    BiDims,
    _arange,
    _identity,
    _maximally_mixed,
    _trace_distance,
    _upper_pairs,
    alignment_unitary,
    frobenius,
    frobenius_norms,
    haar_unitary,
    max_entangled,
    operator_schmidt,
    partial_trace,
    proj,
    random_density_matrix,
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


def test_trace_distance_known_values():
    assert abs(trace_distance(proj([1, 0]), np.eye(2) / 2) - 0.5) < 1e-12
    assert abs(trace_distance(proj([1, 0]), proj([0, 1])) - 1.0) < 1e-12
    assert trace_distance(HADAMARD @ proj([1, 0]) @ HADAMARD, proj([1, 1] / np.sqrt(2))) < 1e-12


def test_trace_distance_kernel_is_bit_identical():
    """The unchecked kernel that the witness scans call equals the checked function."""
    rng = np.random.default_rng(19)
    for d in range(1, 9):
        for _ in range(5):
            rho, sigma = random_density_matrix(d, rng), random_density_matrix(d, rng)
            assert _trace_distance(rho, sigma) == trace_distance(rho, sigma), d


def _exact_half_trace_norm(h):
    """max(|m|, r) of a 2x2 Hermitian float matrix, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, e = Decimal(h[0, 0].real), Decimal(h[1, 1].real)
        b_re, b_im = Decimal(h[0, 1].real), Decimal(h[0, 1].imag)
        r = (((a - e) / 2) ** 2 + b_re ** 2 + b_im ** 2).sqrt()
        return float(max(abs((a + e) / 2), r))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["general", "traceless", "diagonal", "zero", "scalar", "plus-minus"]),
       st.floats(-12, 3), st.integers(0, 2**32 - 1))
def test_2x2_closed_form_matches_eigvalsh(kind, exponent, seed):
    """The 2x2 closed form against eigvalsh of the Hermitian part and against the
    exact value of that part, on inputs with an anti-Hermitian part (which the
    kernel drops), at scales 1e-12 to 1e3. eigvalsh is off by up to 9 ulps in
    200,000 general draws; the closed form by at most 1.2 of the exact value."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    x = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    anti = (x - x.conj().T) / 2
    lam = scale * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
    if kind == "traceless":
        x = x - np.trace(x) / 2 * np.eye(2)
    elif kind == "diagonal":
        x = np.diag(np.diag(x))
    elif kind == "zero":
        x = np.zeros((2, 2), dtype=complex)
    elif kind == "scalar":  # the degenerate lam I, eigenvalues lam and lam
        x = lam * np.eye(2) + anti
    elif kind == "plus-minus":  # eigenvalues lam and -lam in a random frame
        u = haar_unitary(2, rng)
        x = u @ np.diag([lam, -lam]) @ u.conj().T + anti
    zero = np.zeros((2, 2), dtype=complex)
    got = _trace_distance(x, zero)
    assert got == trace_distance(x, zero)
    h = (x + x.conj().T) / 2
    eig = 0.5 * np.abs(np.linalg.eigvalsh(h)).sum()
    assert abs(got - eig) <= 16 * np.spacing(eig), (kind, got, eig)
    exact = _exact_half_trace_norm(h)
    assert abs(got - exact) <= 2 * np.spacing(exact), (kind, got, exact)


def test_trace_distance_checks_its_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        trace_distance(np.array([[np.nan, 0], [0, 1]]), np.eye(2))
    with pytest.raises(ValueError, match="expected a matrix"):
        trace_distance(np.ones(2), np.eye(2))


def test_dimension_constants_are_cached_and_read_only():
    fresh = {_identity: lambda n: np.eye(n, dtype=complex),
             _arange: np.arange,
             _upper_pairs: lambda n: np.triu(np.ones((n, n), dtype=bool), 1),
             _maximally_mixed: lambda n: np.eye(n) / n}
    for build, reference in fresh.items():
        for n in range(1, 65):
            arr = build(n)
            expected = reference(n)
            assert arr.dtype == expected.dtype and np.array_equal(arr, expected), (build, n)
            assert build(n) is arr and not arr.flags.writeable, (build, n)
    with pytest.raises(ValueError):
        _identity(3)[0, 0] = 2.0


@st.composite
def _aligned_pair(draw):
    """(src, U0 @ src, U0, rank): src is n x m of the drawn rank, U0 Haar-random."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(n, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    singular = rng.uniform(0.1, 1.0, rank)
    src = (haar_unitary(n, rng)[:, :rank] * singular) @ haar_unitary(m, rng)[:rank, :]
    u0 = haar_unitary(n, rng)
    return src, u0 @ src, u0, rank


@settings(max_examples=60, deadline=None)
@given(_aligned_pair(), st.integers(0, 2**32 - 1))
def test_alignment_unitary_recovers_the_move_on_the_range(case, seed):
    src, dst, u0, rank = case
    u = alignment_unitary(src, dst)
    n = src.shape[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12
    assert np.linalg.norm(u @ src - u0 @ src) < 1e-12
    # it attains the nuclear norm of src dst^dag, the largest Re tr(dst^dag U src)
    nuclear = np.linalg.svd(src @ dst.conj().T, compute_uv=False).sum()
    assert abs(np.trace(dst.conj().T @ u @ src).real - nuclear) < 1e-12
    rng = np.random.default_rng(seed)
    for _ in range(5):
        r = haar_unitary(n, rng)
        assert np.trace(dst.conj().T @ r @ src).real <= nuclear + 1e-12


def _layouts(arr):
    """The array as C- and F-ordered copies, its transpose and a strided view."""
    strided = arr[tuple(slice(None, None, 2) if n > 2 else slice(None) for n in arr.shape)]
    return [np.ascontiguousarray(arr), np.asfortranarray(arr), arr.T, strided]


def _kinds(rng, shape):
    """Complex, float, int and bool arrays of one shape."""
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    return [re + 1j * im, re, np.round(4 * re).astype(int), re > 0]


def test_norm_helpers_equal_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(8)
    for shape in [(7,), (3, 5), (4, 4), (6, 3, 5)]:
        for arr in _kinds(rng, shape):
            for x in _layouts(arr):
                assert np.array_equal(frobenius(x), np.linalg.norm(x)), (shape, x.dtype)
                for axis in range(x.ndim):
                    assert np.array_equal(frobenius_norms(x, axis),
                                          np.linalg.norm(x, axis=axis)), (shape, axis)
                if x.ndim == 3:
                    for axes in [(1, 2), (0, 2), (2, 0)]:
                        assert np.array_equal(frobenius_norms(x, axes),
                                              np.linalg.norm(x, axis=axes)), (shape, axes)


@pytest.mark.parametrize("n,ns", [(4, 2), (6, 2), (6, 3), (9, 3), (16, 4), (36, 6), (64, 8)])
def test_norm_helpers_equal_np_linalg_norm_on_pair_tables(n, ns):
    # the exact (n, n, ns, ns) difference and (n, ns, n, ns) product layouts,
    # from a 2x2 basis up to an 8x8 one
    rng = np.random.default_rng(n * ns)
    sigmas = rng.normal(size=(n, ns, ns)) + 1j * rng.normal(size=(n, ns, ns))
    diff = sigmas[:, None] - sigmas[None, :]
    prod = (sigmas.reshape(n * ns, ns) @ sigmas.transpose(1, 0, 2).reshape(ns, n * ns))
    prod = prod.reshape(n, ns, n, ns)
    assert np.array_equal(frobenius_norms(diff, (2, 3)), np.linalg.norm(diff, axis=(2, 3)))
    assert np.array_equal(frobenius_norms(prod, (1, 3)), np.linalg.norm(prod, axis=(1, 3)))
    for x in (diff, prod, diff.transpose(1, 0, 3, 2), prod[:, ::-1]):
        assert np.array_equal(frobenius(x), np.linalg.norm(x))
        assert np.array_equal(frobenius(x[0, 0]), np.linalg.norm(x[0, 0]))
