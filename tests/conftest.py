"""Shared test fixtures: seeded generators, the basis corpus and the Choi oracle."""

import numpy as np
import pytest

from qcausal.channels import ChoiState
from qcausal.linalg import BiDims, haar_unitary
from qcausal.measurements import (
    OrthogonalBasis,
    bell_basis,
    causal_grid_basis,
    completion_basis,
    conditional_basis,
    haar_basis,
    product_basis,
    rotate_basis,
    semicausal_partition_basis,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _choi_of_map(f, dims: BiDims) -> ChoiState:
    """Choi state of an arbitrary linear map ``f``, assembled from matrix units
    one application at a time, independently of ``channels.choi``."""
    na, nb = dims
    n = dims.total
    out = np.zeros((na * n * nb, na * n * nb), dtype=complex)
    t = out.reshape(na, n, nb, na, n, nb)
    unit = np.zeros((n, n), dtype=complex)
    for i in range(na):
        for k in range(na):
            for j in range(nb):
                for ell in range(nb):
                    unit[:] = 0
                    unit[i * nb + j, k * nb + ell] = 1.0
                    t[i, :, j, k, :, ell] += f(unit)
    return ChoiState(out, dims)


@pytest.fixture(scope="session")
def choi_of_map():
    """The matrix-unit Choi oracle, ``choi_of_map(f, dims) -> ChoiState``."""
    return _choi_of_map


@pytest.fixture(scope="session")
def near_causal_basis():
    """A 4x4 grid with cell size 2 turned by exp(i 1e-7 H) for a random Hermitian H.

    It signals, but every basis-steering pair and IC probe pair separates the
    receiver's outputs by less than 1e-6. Shared by the session: a basis is
    immutable, and tests that count work on a fresh basis copy it.
    """
    rng = np.random.default_rng(3)
    basis = causal_grid_basis(BiDims(4, 4), 2)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    w, v = np.linalg.eigh(h + h.conj().T)
    u = v @ np.diag(np.exp(0.5e-7j * w)) @ v.conj().T
    return OrthogonalBasis(tuple(u @ x for x in basis.vectors), basis.dims)


def _twisted_cell_basis(n: int, d: int, twist: np.ndarray) -> OrthogonalBasis:
    """The n x n causal grid with cell size d whose cell (1, 1) is turned by
    ``twist`` on B's second block. It stays causal; unless the twist maps the
    cell's group onto itself, eigenstate closure fails in that cell."""
    basis = causal_grid_basis(BiDims(n, n), d)
    turn = np.eye(n, dtype=complex)
    turn[d:2 * d, d:2 * d] = twist
    op = np.kron(np.eye(n), turn)
    first = (n // d + 1) * d * d  # cell (1, 1) in causal_grid_basis order
    vecs = [op @ v if first <= k < first + d * d else v for k, v in enumerate(basis.vectors)]
    return OrthogonalBasis(tuple(vecs), basis.dims)


@pytest.fixture(scope="session")
def twisted_cell_basis():
    """``twisted_cell_basis(n, d, twist) -> OrthogonalBasis``, a grid with one twisted cell."""
    return _twisted_cell_basis


def build_corpus(seed: int = 11) -> list[tuple[str, OrthogonalBasis]]:
    """Random plus structured complete bases with local dimensions in {2, 3, 4}.

    Mix of generically signaling (Haar), one-way, and fully causal instances;
    the labels record the construction, not the expected verdict.
    """
    rng = np.random.default_rng(seed)
    corpus: list[tuple[str, OrthogonalBasis]] = [
        ("bell", bell_basis()),
        ("conditional", conditional_basis()),
        ("completion", completion_basis()),
        ("product-2x2", product_basis(BiDims(2, 2))),
        ("product-2x3", product_basis(BiDims(2, 3))),
        ("product-3x3", product_basis(BiDims(3, 3))),
    ]
    for k, (na, nb) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2),
                                  (4, 3), (3, 4), (4, 4)]):
        corpus.append((f"haar-{na}x{nb}-{k}", haar_basis(BiDims(na, nb), rng)))
    for k, (na, nb) in enumerate([(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 2), (4, 3)]):
        corpus.append((f"rotated-product-{k}",
                       rotate_basis(product_basis(BiDims(na, nb)),
                                    haar_unitary(na, rng), haar_unitary(nb, rng))))
    partitions = [
        ((2, 2), (2,)), ((2, 2), (1, 1)), ((2, 3), (2,)), ((2, 3), (1, 1)),
        ((3, 3), (2, 1)), ((3, 3), (3,)), ((4, 4), (2, 2)), ((4, 4), (3, 1)),
        ((2, 4), (2,)), ((4, 2), (2, 1, 1)), ((3, 4), (2, 1)), ((4, 3), (3, 1)),
        ((4, 4), (4,)), ((3, 2), (2, 1)),
    ]
    for k, (dims, parts) in enumerate(partitions):
        corpus.append((f"partition-{k}",
                       semicausal_partition_basis(BiDims(*dims), parts, rng)))
    grids = [((2, 2), 1), ((2, 2), 2), ((3, 3), 1), ((3, 3), 3), ((2, 4), 2),
             ((4, 2), 2), ((4, 4), 2), ((4, 4), 4), ((2, 3), 1), ((3, 4), 1)]
    for k, (dims, d) in enumerate(grids):
        corpus.append((f"grid-{k}", causal_grid_basis(BiDims(*dims), d, rng)))
    # mixtures of structure and noise: random product rotations of structured ones
    for k, (dims, parts) in enumerate([((3, 3), (2, 1)), ((4, 4), (2, 2)),
                                       ((2, 4), (1, 1)), ((4, 3), (2, 2))]):
        base = semicausal_partition_basis(BiDims(*dims), parts)
        corpus.append((f"rotated-partition-{k}",
                       rotate_basis(base, haar_unitary(dims[0], rng),
                                    haar_unitary(dims[1], rng))))
    for k in range(10):
        na, nb = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)][k % 5]
        corpus.append((f"haar-extra-{k}", haar_basis(BiDims(na, nb), rng)))
    assert len(corpus) >= 50
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_of_seed():
    """``corpus_of_seed(seed) -> list[(label, OrthogonalBasis)]``, the corpus at another seed."""
    return build_corpus
