"""Channel-level causality decisions.

Both deciders read one tensor: the channel's Choi state traced over the
sender's output, contracted from the Choi vectors that ``channels.choi``
builds (one reshuffle of the stacked Kraus operators), never the full state. The
semicausality test is exact: a channel blocks signaling from B to A iff that
marginal factorizes as (operator on A's input and output) (x) (identity on
B's input). The witness scan is exact too: the receiver's output is linear in
the product input, and the probe states |i>, (|i>+|j>)/sqrt(2) and
(|i>+i|j>)/sqrt(2) span each side's operator space, so some probe pair
separates the receiver's outputs iff the channel signals. A returned witness
is a working signaling protocol that replays on the Kraus operators.

When the receiver's output is a qubit (d_out = 2), the scan scores every
probe-pair difference X in one vectorised pass with the closed form of
``linalg._trace_distance`` (``linalg._qubit_trace_norms``): no bound, floor or
LAPACK call. Above that it eigendecomposes only the X that can win, pruned by
two upper bounds on 0.5 ||X||_1. Each only prunes, so its slack costs work,
never a verdict.

The Gram bound: ||X||_F <= ||X||_1 <= sqrt(d_out) ||X||_F. One batched Gram
product G of the outputs, read as real vectors, gives every
||X||_F^2 = G_ii + G_jj - 2 G_ij; that expansion cancels near X = 0 and is off
by up to (2 d_out^2 + 2) eps (G_ii + G_jj), each entry summing 2 d_out^2
products, so each square gets a slack of ``GRAM_SLACK`` d_out^2 eps
(G_ii + G_jj). The floor is the score of the pair with the largest Gram bound,
one eigendecomposition of the same matrix the candidates' scores read.

The fourth-moment bound, on the Hermitian matrix H that ``eigvalsh`` reads from a
raw difference (its lower triangle and real diagonal): with eigenvalues l_i,
p2 = ||H||_F^2 and p4 = ||H^2||_F^2, Cauchy-Schwarz over the d_out (d_out - 1)
ordered pairs i != j gives ||H||_1^2 = p2 + sum |l_i l_j| <=
p2 + sqrt(d_out (d_out - 1) (p2^2 - p4)), tight for rank-1 and flat spectra.
p2^2 - p4 cancels at rank 1: each of p2 and p4 sums 2 d_out^2 squares and each
entry of H^2 sums d_out complex products, so the difference is off by up to
(3 d_out^2 + sqrt(2) d_out + 4) eps p2^2, and it gets a slack of
``MOMENT_SLACK`` d_out^2 eps p2^2 (enough for d_out >= 3). The bound runs only
when the Gram survivors outnumber ``MOMENT_CROSSOVER``: below that one batched
``eigvalsh`` costs less than the bound.

Both keep every pair within ``PRUNE_MARGIN`` of the floor; the survivors are
eigendecomposed in batches of ``ENTRY_BUDGET`` entries. Either way the first
maximum in (receiver probe, sender pair) row-major order wins. The winner's
separation is replayed on the Kraus operators with ``_trace_distance``, so a
qubit-receiver scan makes no LAPACK call at all.

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

from .channels import KrausChannel, _choi_vectors
from .linalg import (
    ATOL,
    BiDims,
    _maximally_mixed,
    _qubit_trace_norms,
    _trace_distance,
    frobenius,
    is_unitary,
    operator_schmidt,
)

B_TO_A = "BtoA"
A_TO_B = "AtoB"
SEARCH_THRESHOLD = 1e-6
# Relative slack on the trace-norm bounds of the witness scan, far above rounding.
PRUNE_MARGIN = 1e-9
# The scan's slack on ||X||_F^2 in d_out^2 eps (G_ii + G_jj); its batch in complex entries.
GRAM_SLACK, EPS, ENTRY_BUDGET = 4, float(np.finfo(float).eps), 1 << 16
# The slack on p2^2 - p4 in d_out^2 eps p2^2, and the Gram survivor count above which
# the fourth-moment bound runs. Both are rounding and cost, not tolerances: --tol does
# not reach them, and neither changes a result.
MOMENT_SLACK, MOMENT_CROSSOVER = 4, 16


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
    with A's indices first inside each Kraus operator; built once, kept in ``ch._cache``.
    """
    if direction in ch._cache:
        return ch._cache[direction]
    t = _choi_vectors(ch)  # (k, in A, out A, out B, in B), a view
    if direction == B_TO_A:
        x = t.transpose(0, 3, 1, 4, 2)  # (k, out B, in A, in B, out A)
    elif direction == A_TO_B:
        x = t.transpose(0, 2, 4, 1, 3)  # (k, out A, in B, in A, out B)
    else:
        raise ValueError(f"direction must be {B_TO_A!r} or {A_TO_B!r}, got {direction!r}")
    shape = x.shape[2:]
    x = x.reshape(x.shape[0] * x.shape[1], -1)
    marginal = ch._cache[direction] = (x.T @ x.conj()).reshape(shape + shape)
    marginal.flags.writeable = False
    return marginal


def semicausal_test(ch: KrausChannel, direction: str, tol: float = ATOL) -> bool:
    """Exact decision whether the channel blocks signaling along ``direction``.

    The Choi marginal must equal (its reduction to the receiver's input and
    output) (x) I/d_send on the sender's input. Tolerance is scaled by the
    marginal's dimension.
    """
    t = _marginal(ch, direction)
    reduced = np.trace(t, axis1=1, axis2=4)[:, None, :, :, None, :]  # (r, 1, o, R, 1, O)
    expected = reduced * _maximally_mixed(t.shape[1])[:, None, None, :, None]
    return frobenius(t - expected) < tol * math.prod(t.shape[:3])


def _receiver_output(kraus_stack: np.ndarray, dims: BiDims, direction: str,
                     phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    vec = np.multiply.outer(phi, psi) if direction == B_TO_A else np.multiply.outer(psi, phi)
    w = (kraus_stack @ vec.reshape(-1)).reshape(-1, *dims)  # (k, out A, out B)
    w = w.transpose(1, 0, 2) if direction == B_TO_A else w.transpose(2, 0, 1)
    w = w.reshape(len(w), -1)  # (receiver, k * other)
    return w @ w.conj().T


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
    y = recv_proj @ t.transpose(0, 3, 1, 4, 2, 5).reshape(dr * dr, -1)  # (rR, sS oO) copy
    return send_proj @ y.reshape(len(recv_proj), ds * ds, do * do)


def _trace_distances(diffs: np.ndarray) -> np.ndarray:
    """``0.5 * ||H||_1`` of each square matrix H that ``eigvalsh`` reads from ``diffs``."""
    return 0.5 * np.abs(np.linalg.eigvalsh(diffs)).sum(axis=-1)


def _moment_bounds(diffs: np.ndarray) -> np.ndarray:
    """An upper bound on each of :func:`_trace_distances`, with no eigendecomposition.

    H is the Hermitian matrix ``eigvalsh`` reads from each d x d matrix of
    ``diffs``: the lower triangle, its real diagonal and the conjugate above.
    With p2 = ||H||_F^2 and p4 = ||H^2||_F^2,
    ``||H||_1^2 <= p2 + sqrt(d (d - 1) (p2^2 - p4))``, with ``MOMENT_SLACK``
    on the cancelling difference (see the module docstring).
    """
    n, d = len(diffs), diffs.shape[-1]
    h = np.where(np.tri(d, dtype=bool), diffs, diffs.conj().swapaxes(1, 2))
    h.reshape(n, d * d).imag[:, ::d + 1] = 0
    f = h.reshape(n, -1).view(float)
    p2 = np.einsum("ij,ij->i", f, f)
    f = (h @ h).reshape(n, -1).view(float)
    p4 = np.einsum("ij,ij->i", f, f)
    square = p2 * p2
    gap = np.maximum(square - p4, 0) + MOMENT_SLACK * d * d * EPS * square
    return 0.5 * np.sqrt(p2 + np.sqrt(d * (d - 1) * gap))


def signaling_search(ch: KrausChannel, direction: str) -> SignalWitness | None:
    """Exhaustive scan for a signaling protocol along ``direction``.

    Every receiver probe meets every pair of sender probes (:func:`_ic_probes`);
    the receiver probe and sender pair whose outputs lie furthest apart in
    trace distance make the witness, the first in row-major (probe, pair)
    order on ties. At d_out = 2 every pair is scored in closed form; above
    that, only pairs whose Gram bound ``sqrt(d_out) ||X||_F / 2`` reaches the
    floor within ``PRUNE_MARGIN`` are eigendecomposed, and when more than
    ``MOMENT_CROSSOVER`` do, only those whose fourth-moment bound
    (:func:`_moment_bounds`, with its ``MOMENT_SLACK``) reaches it too; see the
    module docstring. The witness's separation is recomputed from the Kraus
    operators, so it replays. Returns nothing when the best separation is at
    most ``SEARCH_THRESHOLD``: the channel then blocks signaling, or signals
    so weakly that no probe pair shows it above that threshold.
    """
    t = _marginal(ch, direction)
    d_out = t.shape[2]
    recv, recv_proj, _, _ = _ic_probes(t.shape[0])
    send, send_proj, first, second = _ic_probes(t.shape[1])
    out = _probe_outputs(t, recv_proj, send_proj)
    p = q = q_alt = 0
    if len(first) and d_out == 2:
        scores = _qubit_trace_norms(out.take(first, axis=1) - out.take(second, axis=1))
        p, m = divmod(int(scores.argmax()), scores.shape[1])  # (receiver probe, pair)
        q, q_alt = int(first[m]), int(second[m])
    elif len(first):
        flat = out.view(float)
        gram = flat @ flat.transpose(0, 2, 1)
        norms = gram.diagonal(axis1=1, axis2=2)
        scale = norms[:, first] + norms[:, second]
        bound = 0.5 * math.sqrt(d_out) * np.sqrt(np.maximum(scale - 2 * gram[:, first, second], 0)
                                                 + GRAM_SLACK * d_out ** 2 * EPS * scale)
        del gram, norms, scale  # 3 MB at 8x8, next to the batches
        r0, m0 = divmod(int(bound.argmax()), bound.shape[1])
        top = out[r0, first[m0]] - out[r0, second[m0]]
        cut = float(_trace_distances(top.reshape(d_out, d_out))) * (1 - PRUNE_MARGIN)
        rows, pairs = np.nonzero(bound >= cut)
        k = 0  # a lone candidate is the maximum: no eigendecomposition
        if len(rows) > 1:
            step, best = ENTRY_BUDGET // d_out ** 2, -1.0
            for i in range(0, len(rows), step):
                r, m = rows[i:i + step], pairs[i:i + step]
                diffs = (out[r, first[m]] - out[r, second[m]]).reshape(-1, d_out, d_out)
                kept = np.arange(len(r))
                if len(rows) > MOMENT_CROSSOVER:
                    kept = np.flatnonzero(_moment_bounds(diffs) >= cut)
                    diffs = diffs[kept]
                if len(kept):  # the floor's own pair survives, so one batch keeps a pair
                    scores = _trace_distances(diffs)
                    j = int(scores.argmax())
                    if scores[j] > best:
                        best, k = scores[j], i + int(kept[j])
        p, q, q_alt = int(rows[k]), int(first[pairs[k]]), int(second[pairs[k]])
    phi, psi, psi_prime = recv[p].copy(), send[q].copy(), send[q_alt].copy()
    separation = _trace_distance(_receiver_output(ch.kraus, ch.dims, direction, phi, psi),
                                 _receiver_output(ch.kraus, ch.dims, direction, phi, psi_prime))
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
