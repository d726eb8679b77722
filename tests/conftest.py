"""Shared test fixtures: seeded generators and the basis corpus."""

import numpy as np
import pytest

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
