"""Quantum operations as Kraus lists: validation, application, composition, Choi states.

Only trace-preserving operations are modeled. Channel equality is decided on
Choi states, never on Kraus lists (Kraus representations are not unique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import ATOL, BiDims, _all_finite, _identity, as_matrix, dag, frobenius


@dataclass(frozen=True)
class KrausChannel:
    """A quantum operation ``rho -> sum_k M_k rho M_k^dag`` on a bipartite space.

    ``kraus`` is given as a sequence of operators or one (k, n, n) array; either
    way it is copied once into the read-only (k, n, n) stack that ``kraus`` then
    holds. ``_cache`` keeps tensors derived from it (``causality``'s Choi marginals).
    """

    kraus: np.ndarray
    dims: BiDims
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.kraus):
            raise ValueError("channel needs at least one Kraus operator")
        n = self.dims.total
        self.dims.check(n)  # rejects non-positive local dimensions
        if isinstance(self.kraus, np.ndarray) and self.kraus.shape[1:] == (n, n):
            stack = self.kraus.astype(complex)  # a stack, as decoded or built: one copy
        else:
            mats = [np.asarray(k, dtype=complex) for k in self.kraus]
            for k in mats:
                if k.shape != (n, n):
                    raise ValueError(f"Kraus operator shape {k.shape} != ({n}, {n})")
            stack = np.stack(mats)
        if not _all_finite(stack):
            raise ValueError("matrix has non-finite entries")
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.dims.total


class TPReport(NamedTuple):
    tp: bool
    deviation: float


@dataclass(frozen=True)
class ChoiState:
    """Channel fingerprint on reference (x) system (x) reference factors.

    ``matrix`` lives on the four ordered factors R (x) A (x) B (x) S where R
    probes A and S probes B, built from unnormalized maximally entangled pairs;
    its trace is dim_a * dim_b for a trace-preserving channel. Two channels are
    equal iff their Choi states match.
    """

    matrix: np.ndarray
    dims: BiDims


def validate(ch: KrausChannel, tol: float = ATOL) -> TPReport:
    """Check the trace-preservation condition ``sum_k M_k^dag M_k == I``."""
    ks = ch.kraus
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as deviation NaN
        acc = (ks.conj().transpose(0, 2, 1) @ ks).sum(axis=0)
        deviation = frobenius(acc - _identity(ch.dim))
    return TPReport(bool(deviation < tol), float(deviation))


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the operator sum ``sum_k M_k rho M_k^dag``."""
    mat = as_matrix(rho)
    if mat.shape != (ch.dim, ch.dim):
        raise ValueError(f"state shape {mat.shape} != ({ch.dim}, {ch.dim})")
    ks = ch.kraus
    return (ks @ mat @ ks.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_to_vector(ch: KrausChannel, psi: np.ndarray) -> np.ndarray:
    """Channel output on a pure-state input given as a vector."""
    vecs = ch.kraus @ np.asarray(psi, dtype=complex)
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


def compose(e2: KrausChannel, e1: KrausChannel) -> KrausChannel:
    """The composition e2 after e1, with the product Kraus list {M2_j M1_k}."""
    if e1.dims != e2.dims:
        raise ValueError(f"cannot compose channels with dims {e1.dims} and {e2.dims}")
    kraus = tuple(m2 @ m1 for m2 in e2.kraus for m1 in e1.kraus)
    return KrausChannel(kraus, e1.dims)


def convex_mixture(channels: Sequence[KrausChannel], probs: Sequence[float]) -> KrausChannel:
    """Probabilistic mixture of channels; Kraus lists scaled by sqrt(p)."""
    if len(channels) != len(probs) or not channels:
        raise ValueError("need equally many channels and probabilities")
    if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    dims = channels[0].dims
    if any(ch.dims != dims for ch in channels):
        raise ValueError("mixture components must share dims")
    kraus = tuple(np.sqrt(p) * k for ch, p in zip(channels, probs) for k in ch.kraus)
    return KrausChannel(kraus, dims)


def identity_channel(dims: BiDims) -> KrausChannel:
    return KrausChannel((np.eye(dims.total, dtype=complex),), dims)


def _choi_vectors(ch: KrausChannel) -> np.ndarray:
    """Per Kraus operator, (I_R (x) K (x) I_S) applied to the probes, as a
    (k, R, A, B, S) view of the Kraus stack: K's entries reordered, no copy.

    Each caller reshapes it once, so each reads the one reshuffle at the cost
    of one copy.
    """
    na, nb = ch.dims
    return ch.kraus.reshape(-1, na, nb, na, nb).transpose(0, 3, 1, 2, 4)


def choi(ch: KrausChannel) -> ChoiState:
    """Choi state from unnormalized entangled probes on both factors."""
    v = _choi_vectors(ch).reshape(len(ch.kraus), -1)
    return ChoiState(v.T @ v.conj(), ch.dims)


def choi_distance(c1: ChoiState, c2: ChoiState) -> float:
    if c1.dims != c2.dims:
        raise ValueError("choi states have different dims")
    return frobenius(c1.matrix - c2.matrix)


def channel_distance(e1: KrausChannel, e2: KrausChannel) -> float:
    """``choi_distance(choi(e1), choi(e2))`` without forming either Choi state.

    The Choi difference is W^T S conj(W) for the stacked Choi vectors W of both
    channels and signs S (+1 for e1, -1 for e2); with W^T = QR its norm is that
    of the small R S R^dag, and no difference of large squared norms is taken.
    """
    if e1.dims != e2.dims:
        raise ValueError("channels have different dims")
    w = np.concatenate([_choi_vectors(e1), _choi_vectors(e2)]).reshape(-1, e1.dim ** 2)
    r = np.linalg.qr(w.T, mode="r")
    signs = np.repeat([1.0, -1.0], [len(e1.kraus), len(e2.kraus)])
    return frobenius((r * signs) @ dag(r))


def measurement_channel(basis) -> KrausChannel:
    """Complete measurement superoperator of an orthonormal basis.

    Kraus operators are the rank-1 projectors onto the basis states;
    the channel decoheres any input in that basis.
    """
    return KrausChannel(basis.projectors(), basis.dims)

