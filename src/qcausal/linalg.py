"""Dense complex linear algebra specialized for bipartite tensor structure.

Conventions used throughout the package:

* Subsystem A is always the *left* Kronecker factor; the product basis
  vector ``|i>_A (x) |j>_B`` sits at flat index ``i * dim_b + j``.
* Matrices are ``numpy`` arrays of dtype complex128, row-major.
* Equality of operators is decided in Frobenius norm with absolute
  tolerance ``ATOL``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

ATOL = 1e-9
# Not --tol: it counts a state's Schmidt rank; the flatness check at the --tol bar then decides.
SUPPORT_CUTOFF = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class BiDims(NamedTuple):
    """Bipartition ``(dim_a, dim_b)`` of a dim_a*dim_b dimensional space."""

    dim_a: int
    dim_b: int

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    def check(self, dim: int) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")
        if self.total != dim:
            raise ValueError(f"bipartition {self} does not match dimension {dim}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Constants that depend on a dimension only, built once per size and shared
# read-only by every call of that size.

@functools.cache
def _identity(n: int) -> np.ndarray:
    """The complex n x n identity."""
    return _read_only(np.eye(n, dtype=complex))


@functools.cache
def _arange(n: int) -> np.ndarray:
    """``np.arange(n)``: the indices 0 to n - 1."""
    return _read_only(np.arange(n))


@functools.cache
def _upper_pairs(n: int) -> np.ndarray:
    """The (n, n) boolean mask of the index pairs a < b (the strict upper triangle)."""
    return _read_only(_arange(n)[:, None] < _arange(n))


@functools.cache
def _maximally_mixed(n: int) -> np.ndarray:
    """The real n x n matrix I/n."""
    return _read_only(np.eye(n) / n)


def _all_finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if not _all_finite(arr):
        raise ValueError("matrix has non-finite entries")
    return arr


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex array (column vectors are flattened) and reject
    non-finite entries."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("vector has non-finite entries")
    return arr


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _as_inexact(m) -> np.ndarray:
    """``m`` as an array, cast to float unless inexact, as ``np.linalg.norm`` casts it."""
    x = np.asarray(m)
    return x if issubclass(x.dtype.type, np.inexact) else x.astype(float)


def frobenius(m: np.ndarray) -> float:
    """``np.linalg.norm(m)`` bit for bit: its own formula, without its argument handling."""
    x = _as_inexact(m).ravel(order="K")
    if x.dtype.kind != "c":
        return float(np.sqrt(x.dot(x)))
    return float(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)))


def frobenius_norms(m: np.ndarray, axis) -> np.ndarray:
    """``np.linalg.norm(m, axis=axis)`` bit for bit, for one axis or a pair of axes."""
    x = _as_inexact(m)
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def mat_close(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """Frobenius-norm equality with absolute tolerance."""
    return frobenius(np.asarray(a) - np.asarray(b)) < tol


def proj(v) -> np.ndarray:
    """Rank-1 projector |v><v| for a state vector."""
    vec = as_vector(v)
    return np.outer(vec, vec.conj())


def normalize(v) -> np.ndarray:
    vec = as_vector(v)
    norm = np.linalg.norm(vec)
    if norm < 1e-14:
        raise ValueError("cannot normalize the zero vector")
    return vec / norm


def tensor_product(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the factors, the first the left (slowest) one."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def partial_trace(m: np.ndarray, dims: BiDims, side: str) -> np.ndarray:
    """Trace out subsystem ``side`` ("A" or "B"); returns the other factor's operator.

    The trace is preserved: ``tr(result) == tr(m)``.
    """
    mat = as_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("partial trace needs a square matrix")
    dims.check(mat.shape[0])
    t = mat.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    if side == "B":
        return np.trace(t, axis1=1, axis2=3)
    if side == "A":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def alignment_unitary(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The unitary U, acting on the row index, that maximises ``Re tr(dst^dag U src)``.

    It is the polar factor ``V W^dag`` of ``src @ dst^dag = W S V^dag``, the
    closest unitary of the closest-unitary theorem (Fan & Hoffman, 1955), and
    reaches the nuclear norm of ``src @ dst^dag``. When ``dst = U0 @ src`` for a
    unitary U0 it equals U0 on the range of ``src``.
    """
    w, _, vh = np.linalg.svd(src @ dag(dst))
    return dag(vh) @ dag(w)


def fix_phase(v: np.ndarray) -> tuple[np.ndarray, complex]:
    """Scale a vector/matrix so its first entry of magnitude above 1e-12 is real positive.

    Returns the rescaled array and the phase that was divided out.
    """
    flat = np.asarray(v).reshape(-1)
    idx = np.nonzero(np.abs(flat) > 1e-12)[0]
    if idx.size == 0:
        return v, 1.0 + 0j
    phase = flat[idx[0]] / abs(flat[idx[0]])
    return v / phase, phase


def operator_schmidt(m: np.ndarray, dims: BiDims) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Decompose a bipartite operator as ``m = sum_k lam_k A_k (x) B_k``.

    Coefficients are above ``ATOL`` and descending. Factor normalization is
    ``tr(A_j^dag A_k) = dim_a * delta_jk`` and ``tr(B_j^dag B_k) = dim_b * delta_jk``,
    so a unitary ``m`` has ``sum_k lam_k**2 == 1``. Implemented by reshuffling
    ``m`` into a ``dim_a**2 x dim_b**2`` rectangle and taking an SVD.
    """
    mat = as_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("operator Schmidt decomposition needs a square matrix")
    dims.check(mat.shape[0])
    na, nb = dims
    rect = mat.reshape(na, nb, na, nb).transpose(0, 2, 1, 3).reshape(na * na, nb * nb)
    u, s, vh = np.linalg.svd(rect)
    terms = []
    for k in range(min(rect.shape)):
        lam = s[k] / np.sqrt(na * nb)
        if lam <= ATOL:
            break
        a = u[:, k].reshape(na, na) * np.sqrt(na)
        b = vh[k, :].reshape(nb, nb) * np.sqrt(nb)
        a, phase = fix_phase(a)
        terms.append((float(lam), a, b * phase))
    return terms


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho - sigma||_1`` via Hermitian eigenvalues."""
    return _trace_distance(as_matrix(rho), as_matrix(sigma))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """:func:`trace_distance` for complex matrices the caller built, unchecked.

    A 2x2 difference takes the closed form, with no LAPACK call: its Hermitian
    part H has the eigenvalues m +- r, m = tr(H) / 2 and
    r = hypot((h_00 - h_11) / 2, |h_01|), so ``0.5 * ||H||_1 = max(|m|, r)``.
    It is :func:`_qubit_trace_norms` on one matrix, operation for operation,
    so the witness scan's scores and its replay read one formula.
    """
    diff = rho - sigma
    if diff.shape == (2, 2):
        (a, b), (c, e) = diff.tolist()
        w = b + c.conjugate()
        # abs of a complex is libm's hypot, as np.hypot is; math.hypot rounds otherwise
        return max(abs((a.real + e.real) / 2), abs(complex((a.real - e.real) / 2, abs(w) / 2)))
    diff = (diff + dag(diff)) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _qubit_trace_norms(diffs: np.ndarray) -> np.ndarray:
    """``0.5 * ||H||_1`` of the Hermitian part of each 2x2 complex matrix, its
    four entries row-major along the last (contiguous) axis: the closed form of
    :func:`_trace_distance`, vectorised over real and imaginary parts, and
    equal to it bit for bit (``b + conj(c)`` adds the parts one by one)."""
    f = diffs.view(float)  # (..., 8): a, b, c, e as (re, im)
    a, e = f[..., 0], f[..., 6]
    w_abs = np.hypot(f[..., 2] + f[..., 4], f[..., 3] - f[..., 5])
    return np.maximum(np.abs((a + e) / 2), np.hypot((a - e) / 2, w_abs / 2))


def is_unitary(m: np.ndarray, tol: float = ATOL) -> bool:
    mat = as_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        return False
    return mat_close(dag(mat) @ mat, np.eye(mat.shape[0]), tol * mat.shape[0])


def min_singular_value(m: np.ndarray) -> float:
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[-1])


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
