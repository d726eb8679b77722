"""Channel-level causality decisions.

Both deciders read one tensor: the channel's Choi state traced over the
sender's output, contracted straight from the stacked Kraus operators. The
semicausality test is exact: a channel blocks signaling from B to A iff that
marginal factorizes as (operator on A's input and output) (x) (identity on
B's input). The witness scan is exact too: the receiver's output is linear in
the product input, and the probe states |i>, (|i>+|j>)/sqrt(2) and
(|i>+i|j>)/sqrt(2) span each side's operator space, so some probe pair
separates the receiver's outputs iff the channel signals. A returned witness
is a working signaling protocol that replays on the Kraus operators.

The scan eigendecomposes only the probe-pair differences that can win: for a
difference X of receiver outputs, ||X||_F <= ||X||_1 <= sqrt(d_out) ||X||_F,
so once one pair's trace norm is known, a pair whose bound sqrt(d_out) ||X||_F
falls below it by more than ``PRUNE_MARGIN`` cannot be the maximum. Among the
maxima the first in (receiver probe, sender pair) row-major order wins.

Scope note: only trace-preserving operations are modeled. The signaling
notion also makes sense for trace-decreasing operations (with renormalized
receiver states), but those appear in this package only as the branch Kraus
operators of a protocol channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import KrausChannel
from .linalg import ATOL, BiDims, frobenius, is_unitary, operator_schmidt, trace_distance

B_TO_A = "BtoA"
A_TO_B = "AtoB"
SEARCH_THRESHOLD = 1e-6
# Relative slack on the trace-norm bound of the witness scan, far above rounding.
PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class SignalWitness:
    """A pure-product signaling protocol: sender prepares psi or psi_prime,
    receiver prepares phi and measures; separation is the receiver's
    trace-distance advantage."""

    direction: str
    phi: np.ndarray
    psi: np.ndarray
    psi_prime: np.ndarray
    separation: float


def _marginal(ch: KrausChannel, direction: str) -> np.ndarray:
    """The Choi state traced over the sender's output, as a 6-index tensor.

    Indices are (receiver input, sender input, receiver output) for the ket
    and the same three for the bra, with x the sender's output:
    ``t[r, s, o, r', s', o'] = sum_k,x K_k[(o, x), (r, s)] conj(K_k[(o', x), (r', s')])``
    with A's indices first inside each Kraus operator.
    """
    na, nb = ch.dims
    t = ch.stacked().reshape(-1, na, nb, na, nb)  # (k, out A, out B, in A, in B)
    if direction == B_TO_A:
        x = t.transpose(0, 2, 3, 4, 1)  # (k, out B, in A, in B, out A)
    elif direction == A_TO_B:
        x = t.transpose(0, 1, 4, 3, 2)  # (k, out A, in B, in A, out B)
    else:
        raise ValueError(f"direction must be {B_TO_A!r} or {A_TO_B!r}, got {direction!r}")
    shape = x.shape[2:]
    x = x.reshape(x.shape[0] * x.shape[1], -1)
    return (x.T @ x.conj()).reshape(shape + shape)


def semicausal_test(ch: KrausChannel, direction: str, tol: float = ATOL) -> bool:
    """Exact decision whether the channel blocks signaling along ``direction``.

    The Choi marginal must equal (its reduction to the receiver's input and
    output) (x) I/d_send on the sender's input. Tolerance is scaled by the
    marginal's dimension.
    """
    t = _marginal(ch, direction)
    d_send = t.shape[1]
    reduced = np.einsum("rsoRsO->roRO", t)
    expected = np.einsum("roRO,sS->rsoRSO", reduced, np.eye(d_send) / d_send)
    return frobenius(t - expected) < tol * math.prod(t.shape[:3])


def _receiver_output(kraus_stack: np.ndarray, dims: BiDims, direction: str,
                     phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    if direction == B_TO_A:
        vec = np.einsum("i,j->ij", phi, psi).reshape(-1)
    else:
        vec = np.einsum("i,j->ij", psi, phi).reshape(-1)
    out = kraus_stack @ vec
    na, nb = dims
    w = out.reshape(-1, na, nb)
    if direction == B_TO_A:
        return np.einsum("kab,kcb->ac", w, w.conj())
    return np.einsum("kab,kac->bc", w, w.conj())


@lru_cache(maxsize=None)
def _ic_probes(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One side's IC probes and their pairs, built once per dimension, read-only.

    The d**2 probe states, one per row, are |i>, then (|i>+|j>)/sqrt(2) and
    (|i>+i|j>)/sqrt(2) for each i < j; their projectors |p><p| span the d x d
    matrices. Returned with those projectors flattened to rows and the index
    arrays (first, second) of every probe pair in row-major order.
    """
    eye = np.eye(d, dtype=complex)
    states = list(eye)
    for i in range(d):
        for j in range(i + 1, d):
            states += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    probes = np.array(states)
    projectors = (probes[:, :, None] * probes[:, None, :].conj()).reshape(len(probes), -1)
    first, second = np.triu_indices(len(probes), 1)
    tables = (probes, projectors, first, second)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _probe_outputs(t: np.ndarray, recv_proj: np.ndarray, send_proj: np.ndarray) -> np.ndarray:
    """Receiver outputs for every (receiver probe, sender probe), flattened:
    ``out[p, q] = tr_in[(|p><p| (x) |q><q|) t]`` as two matrix products."""
    dr, ds, do = t.shape[:3]
    x = t.transpose(0, 3, 1, 4, 2, 5).reshape(dr * dr, -1)  # (rR, sS oO)
    y = (recv_proj @ x).reshape(len(recv_proj), ds * ds, do * do)
    return send_proj @ y


def _trace_distances(diffs: np.ndarray, d_out: int) -> np.ndarray:
    return 0.5 * np.abs(np.linalg.eigvalsh(diffs.reshape(-1, d_out, d_out))).sum(axis=-1)


def signaling_search(ch: KrausChannel, direction: str) -> SignalWitness | None:
    """Exhaustive scan for a signaling protocol along ``direction``.

    Every receiver probe meets every pair of sender probes (:func:`_ic_probes`);
    the receiver probe and sender pair whose outputs lie furthest apart in
    trace distance make the witness, the first in row-major (probe, pair)
    order on ties. Only candidates are eigendecomposed: the pair with the
    largest Frobenius difference sets a floor (its trace distance), and a pair
    whose bound ``sqrt(d_out) ||X||_F / 2`` stays below that floor by more than
    ``PRUNE_MARGIN`` cannot reach the maximum. The witness's separation is
    recomputed from the Kraus operators, so it replays. Returns nothing when
    the best separation is at most ``SEARCH_THRESHOLD``: the channel then
    blocks signaling, or signals so weakly that no probe pair shows it above
    that threshold.
    """
    t = _marginal(ch, direction)
    d_out = t.shape[2]
    recv, recv_proj, _, _ = _ic_probes(t.shape[0])
    send, send_proj, first, second = _ic_probes(t.shape[1])
    out = _probe_outputs(t, recv_proj, send_proj)
    p = q = q_alt = 0
    if len(first):
        # One row of differences at a time keeps peak memory at one row.
        fro = np.array([np.linalg.norm(row[first] - row[second], axis=-1) for row in out])
        top = np.unravel_index(int(fro.argmax()), fro.shape)
        floor = _trace_distances(out[top[0], first[top[1]]] - out[top[0], second[top[1]]],
                                 d_out)[0]
        bound = 0.5 * math.sqrt(d_out) * fro
        rows, pairs = np.nonzero(bound >= floor * (1 - PRUNE_MARGIN))
        best = 0.0
        # Candidates in row-major order, at most one row's worth per batch.
        for start in range(0, len(rows), len(first)):
            r, m = rows[start:start + len(first)], pairs[start:start + len(first)]
            dist = _trace_distances(out[r, first[m]] - out[r, second[m]], d_out)
            k = int(dist.argmax())
            if dist[k] > best:
                best, p, q, q_alt = dist[k], int(r[k]), int(first[m[k]]), int(second[m[k]])
    stack = ch.stacked()
    phi, psi, psi_prime = recv[p].copy(), send[q].copy(), send[q_alt].copy()
    separation = trace_distance(_receiver_output(stack, ch.dims, direction, phi, psi),
                                _receiver_output(stack, ch.dims, direction, phi, psi_prime))
    if separation <= SEARCH_THRESHOLD:
        return None
    return SignalWitness(direction, phi, psi, psi_prime, float(separation))


@dataclass(frozen=True)
class ProductVerdict:
    is_product: bool
    factors: tuple[np.ndarray, np.ndarray] | None = None


def unitary_product_test(u: np.ndarray, dims: BiDims, tol: float = ATOL) -> ProductVerdict:
    """Decide whether a bipartite unitary factorizes as U_A (x) U_B.

    Equivalent to operator Schmidt rank 1; for unitaries this is exactly the
    condition for blocking signaling in either direction. Factors are
    recovered from the rank-1 term with the phase pushed into the A factor.
    """
    if not is_unitary(u, tol):
        raise ValueError("input is not unitary within tolerance")
    terms = operator_schmidt(u, dims)
    if len(terms) != 1:
        return ProductVerdict(False)
    lam, a, b = terms[0]
    # lam == 1 for a unitary; fold it in anyway so kron(a, b) reproduces u.
    return ProductVerdict(True, (lam * a, b))
